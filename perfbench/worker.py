"""One benchmark process: set a workload up, then call it in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (set up and stop), `run` (untraced calls, then the output
checks) or `trace` (the traced replay beside untraced calls). The result
is one JSON object on the last line of standard output. run.py starts this
with PYTHONPATH pointing at the checkout's `src` and BLAS held to one thread.
"""

import time

START = time.perf_counter()  # workload start: before numpy, scipy or cwkit load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import proc  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402

STARTUP_TIMEOUT_S = 60


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment():
    import mpmath
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas_threads": blas_threads()}


def peak_rss_mb(cli):
    # Linux reports ru_maxrss in KiB; for the CLI, the largest finished child
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_loop(p, seconds, perturb):
    """Untraced closed loop of timed calls; every call is then checked."""
    calls = []

    def one():
        try:
            start, stop, out = workloads.timed_call(p)
        except Exception:  # a failed call is counted, not fatal
            calls.append({"span": None, "out": None, "error": traceback.format_exc(limit=3)})
            return
        calls.append({"span": [start, stop], "out": out, "error": None})

    # No warm-up call: the median shrugs off the first call's cold caches, and
    # the time goes to a longer window, which is what steadies the median on
    # a machine whose speed drifts over seconds.
    begin = time.perf_counter()
    one()
    while time.perf_counter() - begin < seconds:
        one()
    peak = peak_rss_mb(p.workload.cli)

    reference = next((c["out"].key() for c in calls if c["out"] is not None), None)
    verified = {}
    problems = []
    for c in calls:
        if c["out"] is None:
            c["failed"] = True
            problems.append(c["error"])
            continue
        key = c["out"].key()
        if key not in verified:
            verified[key] = checks.verify(p, c["out"], perturb)
            problems += verified[key]
        c["failed"] = bool(verified[key]) or key != reference
        if key != reference:
            problems.append("output differs from the first call's with the same inputs")
    return {
        "calls": [{"span": c["span"], "failed": c["failed"],
                   "overall": c["out"].overall if c["out"] else None} for c in calls],
        "peak_rss_mb": peak,
        "problems": problems[:10],
    }


def startup_wall():
    """Wall time of a fresh interpreter importing cwkit.cli."""
    begin = time.perf_counter()
    code, _, _ = proc.run([sys.executable, "-c", "import cwkit.cli"],
                          timeout=STARTUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
    if code != 0:
        raise workloads.CallFailed(f"importing cwkit.cli exited with {code}")
    return time.perf_counter() - begin


def traced_request(p, tracer, replay_dir):
    """One untraced call and its traced replay: (per-layer numbers, problems)."""
    from cwkit import run_verdict

    cli = None
    sequence, target = p.sequence, p.target
    if p.workload.cli:
        start, stop, cli_out = workloads.timed_call(p)
        cli = {"wall_s": stop - start, "startup_s": startup_wall()}
        sequence, target = replay.replay_cli_reads(tracer, p)
    t0 = time.perf_counter()
    report = run_verdict(sequence, target, p.config)
    t1 = time.perf_counter()
    report.to_json()
    t2 = time.perf_counter()
    text, problems, counts = replay.replay_verdict(tracer, sequence, target, p.config, report)
    counts["io.rows"] = counts["io.bytes_written"] = 0
    if p.workload.cli:
        counts["io.rows"] = sum(e.n for e in sequence) + target.n
        counts["io.bytes_written"] = replay.replay_cli_writes(tracer, report, text, replay_dir)
        problems += replay.check_against_cli(p, replay_dir, cli_out)
    d = tracer.durations(tracer.request)
    return replay.layer_metrics(d, counts, t1 - t0, t2 - t1, cli), problems


def trace_loop(p, seconds, spans_path):
    """Untraced call and traced replay, alternately, until time is up."""
    from cwkit import run_verdict

    tracer = replay.Tracer()
    replay_dir = None
    if p.workload.cli:
        replay_dir = p.out_dir.parent / "replay"
        replay_dir.mkdir(exist_ok=True)
    run_verdict(p.sequence, p.target, p.config)  # warm-up
    per_request, problems, failed = [], [], 0
    begin = time.perf_counter()
    while tracer.request == 0 or time.perf_counter() - begin < seconds:
        try:
            metrics, found = traced_request(p, tracer, replay_dir)
        except workloads.CallFailed as err:
            metrics, found = None, [str(err)]
        if metrics is not None:
            per_request.append(metrics)
        failed += bool(found)
        problems += found
        tracer.request += 1
    tracer.write(spans_path)
    return {"per_layer": replay.median_metrics(per_request) if per_request else {},
            "attempted": tracer.request, "failed": failed, "problems": problems[:10]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--perturb", action="store_true")
    args = ap.parse_args()

    wl = workloads.get(args.workload, args.tiny)
    try:
        p = workloads.setup(wl, args.seed, args.workdir)
        setup_end = time.perf_counter()
        import cwkit

        src = Path(os.environ["PYTHONPATH"]).resolve()
        if Path(cwkit.__file__).resolve().parent.parent != src:
            raise SystemExit(f"cwkit was imported from {cwkit.__file__}, not from {src}")
        result = {"setup_span": [START, setup_end], "env": environment()}
        if args.mode == "run":
            result.update(run_loop(p, args.seconds, args.perturb))
        elif args.mode == "trace":
            result.update(trace_loop(p, args.seconds, args.spans))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
