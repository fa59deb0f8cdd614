"""Speed probe: how fast the benchmark's CPU core runs, moment by moment.

    python3 perfbench/speed.py OUT_FILE      (run.py starts and stops it)

The benchmark is meant for small shared VMs, whose cores change speed by up
to 1.6x within seconds and stay slow or fast for up to minutes, because of
other tenants on the host. The medians of wall times of runs of the same
code then spread by up to half. The probe removes most of that: run.py pins
itself, the workers and this probe to one core. The probe sleeps PERIOD_S, warms up,
times a fixed kernel (a pure-Python loop and a numpy sort, like the
interpreted and the array-bound parts of cwkit) by its own CPU time and
repeats. A span of
the workload that took `wall` seconds while the kernel took `k` seconds on
average is reported as `wall * REFERENCE_S / k`: the seconds it would have
taken with the core at the reference speed, at which the kernel takes
REFERENCE_S. The probe keeps its samples in memory and writes them to
OUT_FILE when it is terminated or its parent is gone. It takes about 3% of
the core.
"""

import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

PERIOD_S = 0.04
LOOP_N = 4_000
SORT_N = 32_768  # 256 KiB of float64; the sort takes about a third of the kernel
# the kernel's time at the reference speed: about its median time on a
# 2-vCPU x86-64 VM (Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 6.6e-4
MIN_SAMPLES = 5
STOP_TIMEOUT_S = 10


def kernel(values):
    s = 0
    for j in range(LOOP_N):
        s += j * j % 7
    np.sort(values)


def probe(out_path):
    values = np.random.default_rng(0).standard_normal(SORT_N)
    samples = []
    parent = os.getppid()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        while os.getppid() == parent:  # an orphaned probe stops by itself
            kernel(values)  # the workload ran last: bring the kernel back into cache
            w0, c0 = time.perf_counter(), time.thread_time()
            kernel(values)
            c1, w1 = time.thread_time(), time.perf_counter()
            samples.append(f"{w0!r} {w1!r} {c1 - c0!r}\n")
            if len(samples) == 1:
                print("ready", flush=True)
            time.sleep(PERIOD_S)
    finally:
        with open(out_path, "w", encoding="utf-8") as out:
            out.writelines(samples)


class Probe:
    """Runs the probe beside the workload; afterwards rescales its spans.

    Every process involved reads the same clock: perf_counter is
    CLOCK_MONOTONIC on Linux.
    """

    def __init__(self, out_path):
        self.out_path = out_path
        self.samples = []

    def __enter__(self):
        self.child = subprocess.Popen([sys.executable, __file__, str(self.out_path)],
                                      stdout=subprocess.PIPE)
        if self.child.stdout.readline().strip() != b"ready":
            self.stop()
            raise RuntimeError("the speed probe did not start")
        return self

    def stop(self):
        if self.child.poll() is None:
            self.child.terminate()
            try:
                self.child.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        self.child.stdout.close()

    def __exit__(self, *exc):
        self.stop()
        if exc[0] is None:
            with open(self.out_path, encoding="utf-8") as f:
                self.samples = [tuple(map(float, line.split())) for line in f]
            os.unlink(self.out_path)
            if len(self.samples) < MIN_SAMPLES:
                raise RuntimeError("the speed probe recorded too few samples")

    def kernel_s(self, t0, t1):
        """Mean kernel time over [t0, t1]; a short span borrows its nearest samples."""
        inside = [k for w0, w1, k in self.samples if t0 <= w0 and w1 <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda s: abs((s[0] + s[1]) / 2 - mid))
            inside = [k for _, _, k in near[:MIN_SAMPLES]]
        return statistics.fmean(inside)

    def rescale(self, t0, t1):
        """Seconds [t0, t1] would have lasted at the reference speed."""
        return (t1 - t0) * REFERENCE_S / self.kernel_s(t0, t1)


if __name__ == "__main__":
    probe(sys.argv[1])
