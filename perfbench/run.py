"""cwkit benchmark: seeded verdict workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table each

It measures the cwkit sources in `src/` beside the directory this file is
in. Each workload runs in fresh worker processes (perfbench/worker.py), one
caller each, in a closed loop, with BLAS held to one thread. This process,
its workers and their children are pinned to one core.

--trace 0 measures the end-to-end metrics with tracing off; a speed probe on
the same core (speed.py) rescales every timed span to the reference core
speed, so that the host's changing speed does not show as a change of the
code. --trace 1 is the separate traced run that gives the per-layer metrics
(replay.py), as plain wall times.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The full
result, with the environment stamp, is also written to .perfbench/.
Exit code: 0 when every output checked out, 1 when one did not, 2 when the
benchmark could not run (for instance, no cwkit sources in the checkout).
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import proc
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 2  # extra set-up-only processes; with the measuring one, 3 set-ups a run
DEADLINE_S = 170  # every run ends well within 180 s

# name -> unit; the metrics BENCHMARK.json lists
END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# printed beside them, but kept out of BENCHMARK.json, whose bounded metrics
# must never be 0; failures show in the JSON line's `failed` and `correct`
OUTCOMES = {"failed_frac": "ratio", "false_inconsistent_frac": "ratio"}
PER_LAYER = {
    "directions.sample_s": "s", "directions.frame_s": "s",
    "gallery.reference_s": "s", "gallery.reference_points": "count",
    "projections.trace_s": "s", "projections.pairs": "count",
    "projections.points": "count", "projections.points_per_s": "1/s",
    "verdict.h2_check_s": "s", "verdict.h2_moment_orders": "count",
    "verdict.moment_match_s": "s", "verdict.moment_se_s": "s",
    "verdict.h1_rule_s": "s", "verdict.tightness_s": "s",
    "verdict.report_s": "s", "verdict.residual_s": "s",
    "moments.table_target_s": "s", "moments.table_candidate_s": "s", "moments.alphas": "count",
    "io.ingest_s": "s", "io.rows": "count", "io.rows_per_s": "1/s",
    "io.write_s": "s", "io.bytes_written": "B",
    "cli.startup_s": "s", "cli.residual_s": "s",
    "trace.overhead_frac": "ratio",
}
# the layer each workload was chosen to load, reported as shares of the call
LAYER_SHARES = {
    "h1-gauss-d3": ("projections.trace_s",),
    "oracle-lognormal-d3": ("verdict.h2_check_s", "projections.trace_s"),
    "moments-gauss-d8": ("verdict.moment_match_s", "projections.trace_s"),
    "cli-sample-w1-d2": ("io.ingest_s", "io.write_s", "cli.startup_s"),
}


class BenchError(Exception):
    pass


class Runner:
    """Starts the worker processes of one workload, all within its deadline."""

    def __init__(self, args):
        self.args = args
        self.begin = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def worker(self, name, mode, seconds=0.0, spans=None):
        remaining = DEADLINE_S - (time.monotonic() - self.begin)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(self.args.seed), "--seconds", str(seconds), "--mode", mode,
               "--workdir", str(OUT / "work" / f"{name}-{os.getpid():07d}-{mode}")]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--tiny"] * self.args.tiny + ["--perturb"] * self.args.perturb
        try:
            code, out, _ = proc.run(cmd, timeout=max(remaining, 1.0), env=self.env, group=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: {mode} worker passed the {DEADLINE_S} s deadline") from None
        lines = out.decode().strip().splitlines()
        if code != 0 or not lines:
            raise BenchError(f"{name}: {mode} worker exited with {code}")
        return json.loads(lines[-1])


def measure(runner, name):
    """End-to-end metrics of one workload, tracing off, rescaled to the reference speed."""
    args = runner.args
    try:
        with speed.Probe(OUT / "work" / f"speed-{name}-{os.getpid()}.txt") as probe:
            probes = [runner.worker(name, "setup") for _ in range(SETUP_PROBES)]
            main = runner.worker(name, "run", args.seconds)
    except RuntimeError as err:
        raise BenchError(f"{name}: {err}") from None
    calls = main["calls"]
    spans = [c["span"] for c in calls if c["span"] is not None]
    times = [probe.rescale(*span) for span in spans]
    walls = [t1 - t0 for t0, t1 in spans]
    setup_spans = [p["setup_span"] for p in probes] + [main["setup_span"]]
    setups = [probe.rescale(*span) for span in setup_spans]
    attempted = len(calls)
    failed = sum(c["failed"] for c in calls)
    inconsistent = sum(c["overall"] == "inconsistent" for c in calls)
    values = {"verdict_s": statistics.median(times)} if times else {}
    values.update({"setup_s": statistics.median(setups), "peak_rss_mb": main["peak_rss_mb"],
                   "failed_frac": failed / attempted,
                   "false_inconsistent_frac": inconsistent / attempted})
    speeds = [speed.REFERENCE_S / probe.kernel_s(*span) for span in spans + setup_spans]
    notes = {
        "verdict_s": (f"median of {len(times)} calls at the reference speed"
                      + (f" (min {min(times):.4f}, max {max(times):.4f}; wall median "
                         f"{statistics.median(walls):.4f})" if times else "")
                      + f", {attempted - len(times)} raised"),
        "setup_s": (f"median of {len(setups)} set-ups at the reference speed "
                    + " ".join(f"{s:.4f}" for s in setups)),
        "peak_rss_mb": "the largest cwkit CLI process" if workloads.WORKLOADS[name].cli
                       else "the process making the calls",
        "failed_frac": f"{failed} of {attempted} calls",
        "false_inconsistent_frac": f"{inconsistent} of {attempted} calls on data from the target",
        "speed": f"core speed / reference speed {min(speeds):.3f} to {max(speeds):.3f}",
    }
    return {"values": values, "units": {**END_TO_END, **OUTCOMES}, "notes": notes,
            "attempted": attempted, "failed": failed, "problems": main["problems"],
            "env": main["env"],
            "samples": {"verdict_s": times, "verdict_wall_s": walls, "setup_s": setups,
                        "setup_wall_s": [t1 - t0 for t0, t1 in setup_spans]}}


def measure_traced(runner, name):
    """Per-layer metrics of one workload, from the traced replay."""
    spans = OUT / f"spans-{name}-seed{runner.args.seed}.json"
    main = runner.worker(name, "trace", runner.args.seconds, spans=spans)
    layer = dict(main["per_layer"])
    # the replayed call's own total (for the CLI, its process wall time), so a
    # share compares spans of one interval
    whole = layer.pop("replayed_verdict_s", None)
    notes = {k: f"median of {main['attempted']} traced requests" for k in layer}
    if whole:
        shares = {k: layer[k] / whole for k in LAYER_SHARES[name]}
        notes["shares"] = ", ".join(f"{k} {v:.1%}" for k, v in shares.items()) + (
            f" of the verdict call ({whole:.4f} s)")
    notes["spans"] = str(spans.relative_to(ROOT))
    return {"values": layer, "units": PER_LAYER, "notes": notes,
            "attempted": main["attempted"], "failed": main["failed"],
            "problems": main["problems"], "env": main["env"]}


def stamp(env, seed, cpus):
    """Where and on what the numbers were measured."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            code, out, _ = proc.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    timeout=30, stderr=subprocess.DEVNULL)
            commit = out.decode().strip() if code == 0 else None
        except OSError:  # no git program
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "cwkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(cpus), "cpu_count": os.cpu_count(), "pinned_cpu": max(cpus), **env,
            "git_commit": commit, "cwkit_source_sha256": digest.hexdigest(), "seed": seed}


def report(name, res, env):
    print(f"{name}  seed {env['seed']}  closed loop, 1 caller")
    for key, value in res["values"].items():
        print(f"  {key:28s} {value:<14.6g} {res['units'][key]:6s} {res['notes'].get(key, '')}")
    for key in ("speed", "shares", "spans"):
        if key in res["notes"]:
            print(f"  {key}: {res['notes'][key]}")
    for problem in res["problems"]:
        print(f"  problem: {problem.strip()}")
    print(f"  env {json.dumps(env, sort_keys=True)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    ap.add_argument("--perturb", action="store_true",
                    help="negative control: check a deliberately wrong copy of each output")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "cwkit" / "__init__.py").is_file():
        print(f"no cwkit sources at {SRC}; run the benchmark inside a cwkit checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so workers get killed
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    # one core for this process, its workers and the speed probe, which must
    # share the core whose speed it measures
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    wanted = PER_LAYER if args.trace else END_TO_END
    for name in names:
        try:
            res = (measure_traced if args.trace else measure)(Runner(args), name)
        except BenchError as err:
            print(f"benchmark error: {err}", file=sys.stderr)
            return 2
        env = stamp(res["env"], args.seed, cpus)
        report(name, res, env)
        record = {"workload": name, "trace": args.trace, "env": env, **res}
        out_file = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: {"value": res["values"][k], "unit": unit}
                                   for k, unit in wanted.items() if k in res["values"]})
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["correct"] &= res["failed"] == 0 and all(k in res["values"] for k in wanted)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
