"""The four benchmark workloads: sizes, verdict settings and seeded inputs.

Every workload is a closed loop: one process and one caller, and each
verdict call starts only after the previous one returned. All inputs are
drawn from the benchmark seed; cwkit receives nothing but the generated
samples (in memory for the library workloads, as CSV files for the CLI).

Importing this module imports no part of cwkit: `setup` does, so that the
import is part of the measured set-up time.
"""

import json
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import proc

TARGET_STREAM = 1_000  # element streams are 0, 1, 2, ...; the sample target uses this one
# The verdict's own seed (directions, frame, reference draw) is fixed, so every
# run checks the same directions: the oracle's cost depends on the direction
# coordinates, and a seed-dependent direction set would move verdict_s by
# about a quarter from seed to seed. The benchmark seed varies the data.
VERDICT_SEED = 0
CLI_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    target: str  # "gaussian" or "lognormal" (analytic), "sample" (CSV drawn from N(0, I))
    dim: int
    sizes: tuple
    directions: int
    region_axis: tuple | None = None  # None: the full sphere
    region_angle: float = 0.0
    metric: str = "ks"
    carleman_order: int = 12
    moment_order: int = 4
    reference_n: int = 50_000
    target_n: int = 0
    cli: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("h1-gauss-d3",
             "h1 distance traces dominate: 100 directions in a cap, 1e5 points; "
             "the batched projection engine shows here",
             target="gaussian", dim=3, sizes=(1_000, 10_000, 100_000), directions=100,
             region_axis=(1.0, 0.0, 0.0), region_angle=0.7854, metric="ks"),
    Workload("oracle-lognormal-d3",
             "h2 Carleman check dominates: mpmath directional-moment oracle to order 32, "
             "projections negligible",
             target="lognormal", dim=3, sizes=(1_000, 10_000), directions=12,
             carleman_order=16, reference_n=10_000),
    Workload("moments-gauss-d8",
             "moment match dominates: 3002 alphas up to order 6 in d=8, exact and "
             "empirical tables side by side",
             target="gaussian", dim=8, sizes=(1_000, 10_000), directions=8,
             moment_order=6, reference_n=10_000),
    Workload("cli-sample-w1-d2",
             "fresh cwkit verdict process on CSV files: start-up, CSV ingest, W1 and "
             "the sample-target branches",
             target="sample", dim=2, sizes=(1_000, 10_000, 100_000), directions=50,
             metric="w1", target_n=20_000, cli=True),
)}

# smaller sizes with the same structure, for the benchmark's smoke test
TINY = {
    "h1-gauss-d3": dict(sizes=(200, 500, 2_000), directions=10, reference_n=2_000),
    "oracle-lognormal-d3": dict(sizes=(200, 500), directions=6, carleman_order=6,
                                reference_n=1_000),
    "moments-gauss-d8": dict(sizes=(200, 500), moment_order=3, reference_n=1_000),
    "cli-sample-w1-d2": dict(sizes=(200, 500, 2_000), directions=10, target_n=1_000),
}


def get(name, tiny=False):
    wl = WORKLOADS[name]
    return replace(wl, **TINY[name]) if tiny else wl


def stream_seed(seed, stream):
    """Seed of one input stream, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


@dataclass
class Prepared:
    """Everything a verdict call needs, built once per process."""

    workload: Workload
    sequence: list  # SampleSets, as generated
    target: object  # analytic law or SampleSet
    config: object  # cwkit VerdictConfig, equal to what the CLI resolves
    paths: list = None  # CLI: element CSV files
    target_path: Path = None
    out_dir: Path = None


@dataclass
class Output:
    """What one verdict call produced."""

    verdict_json: str
    distances: list  # per direction, the h1 distance of each element
    overall: str

    def key(self):
        return self.verdict_json.encode() + b"".join(d.tobytes() for d in self.distances)


def setup(wl, seed, workdir):
    """Import cwkit, draw the inputs and build the objects a call needs."""
    from cwkit import Cap, Direction, FullSphere, VerdictConfig, gallery, io

    law = (gallery.ProductLognormal.standard(wl.dim) if wl.target == "lognormal"
           else gallery.Gaussian.standard(wl.dim))
    sequence = [gallery.sample(law, n, stream_seed(seed, i)) for i, n in enumerate(wl.sizes)]
    target = (gallery.sample(law, wl.target_n, stream_seed(seed, TARGET_STREAM))
              if wl.target == "sample" else law)
    region = (FullSphere(wl.dim) if wl.region_axis is None else
              Cap(axis=Direction.from_vector(wl.region_axis), half_angle=wl.region_angle))
    config = VerdictConfig(region=region, n_directions=wl.directions, metric=wl.metric,
                           carleman_order=wl.carleman_order, moment_order=wl.moment_order,
                           seed=VERDICT_SEED, reference_sample_size=wl.reference_n)
    prepared = Prepared(wl, sequence, target, config)
    if wl.cli:
        workdir.mkdir(parents=True, exist_ok=True)
        prepared.paths = [workdir / f"element{i}.csv" for i in range(len(sequence))]
        for path, elem in zip(prepared.paths, sequence):
            io.atomic_write(path, io.samples_csv(elem))
        prepared.target_path = workdir / "target.csv"
        io.atomic_write(prepared.target_path, io.samples_csv(target))
        prepared.out_dir = workdir / "out"
        prepared.out_dir.mkdir(exist_ok=True)
    return prepared


def cli_argv(p):
    wl = p.workload
    region = "full" if wl.region_axis is None else (
        "cap:" + ",".join(repr(x) for x in wl.region_axis) + f":{wl.region_angle!r}")
    return [sys.executable, "-m", "cwkit.cli", "verdict",
            "--inputs", ",".join(str(x) for x in p.paths), "--target", str(p.target_path),
            "--region", region, "--directions", str(wl.directions), "--metric", wl.metric,
            "--carleman-order", str(wl.carleman_order),
            "--moment-order", str(wl.moment_order), "--reference-n", str(wl.reference_n),
            "--seed", str(p.config.seed), "--out", str(p.out_dir)]


class CallFailed(Exception):
    pass


def read_traces_csv(text, n_directions):
    """Distances per direction from the CLI's traces.csv."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    out = [[] for _ in range(n_directions)]
    for direction_id, _, distance in rows:
        out[int(direction_id)].append(float(distance))
    return [np.array(d) for d in out]


def timed_call(p):
    """Make one verdict call; return (start, stop, Output), perf_counter readings."""
    if not p.workload.cli:
        from cwkit import run_verdict

        start = time.perf_counter()
        report = run_verdict(p.sequence, p.target, p.config)
        text = report.to_json()
        stop = time.perf_counter()
        return start, stop, Output(text, [r.trace.distances for r in report.h1_results],
                            report.overall)

    verdict, traces = p.out_dir / "verdict.json", p.out_dir / "traces.csv"
    for stale in (verdict, traces):
        stale.unlink(missing_ok=True)
    argv = cli_argv(p)
    start = time.perf_counter()
    code, _, err = proc.run(argv, timeout=CLI_TIMEOUT_S, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    stop = time.perf_counter()
    if code not in (0, 1):
        raise CallFailed(f"cwkit verdict exited with {code}: {err.decode(errors='replace')}")
    text = verdict.read_text(encoding="utf-8")
    doc = json.loads(text)
    return start, stop, Output(text, read_traces_csv(traces.read_text(encoding="utf-8"),
                                              len(doc["h1"]["results"])), doc["overall"])
