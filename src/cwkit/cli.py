"""Batch command-line interface.

Every run resolves its options from, in increasing precedence: built-in
defaults, a flat `key = value` config file (--config), the CWKIT_SEED
environment variable (seed only), then command-line flags. The fully
resolved options are echoed to OUT/config_echo.cfg; `cwkit run --config
OUT/config_echo.cfg` reproduces the run byte for byte.

--region and --direction take the spec grammar of ``cwkit.directions``, so
the region a verdict records (``provenance.config.region``) can be passed
back to --region. Input files are NDJSON by the suffix .ndjson or .jsonl,
else CSV; there is no format option. --inputs takes comma-separated paths
or glob patterns; a pattern's matches come in natural order, digit runs
compared as integers (elem2.csv before elem10.csv), since the last file is
the element the verdict reads last.

`cwkit carleman` writes the M-term Carleman scan of one law or data file as
evidence; `cwkit verdict` answers h2 from its target law and reads no scan.

Exit codes: 0 success (including inconclusive verdicts, which are flagged
in the report), 1 for an inconsistent verdict, 2 for usage or data errors
and for internal errors. Errors are emitted as one JSON object on stderr;
an internal error (any exception other than a CwkitError, ValueError or
OSError) also carries its traceback there.
"""

import argparse
import glob as _glob
import json
import os
import re
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gallery, io
from .directions import (Direction, extract_frame, parse_direction, parse_region,
                         region_directions, sample_in_region)
from .errors import CwkitError, ParseError
from .moments import carleman_partial_sums, moment_sequence, reconstruct_mixed
from .projections import Empirical, distance_trace, project
from .verdict import VerdictConfig, run_verdict, tightness_box

ECHO_NAME = "config_echo.cfg"

DEFAULTS = {
    "sample-directions": {"dim": "2", "directions": "50", "region": "full", "seed": None},
    "gallery-sample": {"dist": "gaussian", "dim": "2", "n": "1000", "seed": None},
    "project": {"input": None, "direction": None},
    "trace": {"inputs": None, "target": None, "direction": None, "metric": "ks"},
    "carleman": {"dist": None, "input": None, "direction": None, "carleman_order": "30"},
    "reconstruct": {"input": None, "order": None},
    "tightness": {"inputs": None, "region": "full", "directions": "50",
                  "epsilon": "0.1", "frame_tau": "1e-6", "seed": None},
    "verdict": {"inputs": None, "target": None, "region": "full", "directions": "50",
                "metric": "ks", "h1_rule": "final_below", "h1_tolerance": None,
                "epsilon": "0.1", "moment_order": "4", "carleman_order": "12",
                "frame_tau": "1e-6", "reference_n": "50000", "seed": None},
    "counterexample": {"kernels": "1,0;0,1"},
}


@dataclass
class RunConfig:
    """A resolved subcommand invocation: name, string options, output dir."""

    command: str
    options: dict
    out_dir: Path

    @property
    def seed(self):
        return int(self.options.get("seed") or 0)

    def get(self, key, required=False):
        val = self.options.get(key)
        if required and val is None:
            raise ValueError(f"{self.command}: missing required option --{key.replace('_', '-')}")
        return val

    def echo_text(self):
        lines = ["# cwkit config echo; replay with: cwkit run --config config_echo.cfg",
                 f"command = {self.command}",
                 f"out = {self.out_dir}"]
        for key in sorted(self.options):
            if self.options[key] is not None:
                lines.append(f"{key} = {self.options[key]}")
        return "\n".join(lines) + "\n"

    def write_echo(self):
        io.atomic_write(self.out_dir / ECHO_NAME, self.echo_text())


def parse_config_file(path):
    opts = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'", row=lineno)
        key, _, value = stripped.partition("=")
        opts[key.strip().replace("-", "_")] = value.strip()
    return opts


def _natural_key(path):
    parts = re.split(r"(\d+)", path)
    # ties such as elem01 and elem1 fall back to the string, so the order is total
    return [int(p) if i % 2 else p for i, p in enumerate(parts)], path


def _expand_inputs(spec):
    paths = []
    for token in spec.split(","):
        token = token.strip()
        hits = sorted(_glob.glob(token), key=_natural_key)
        if hits:
            paths.extend(hits)
        else:
            paths.append(token)
    return paths


def _parse_target(spec, dim):
    if spec == "gaussian":
        return gallery.Gaussian.standard(dim)
    if spec == "lognormal":
        return gallery.ProductLognormal.standard(dim)
    if spec.startswith("atomic:"):
        return io.load_atomic_csv(spec.split(":", 1)[1])
    return io.ingest_samples(spec)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_sample_directions(cfg):
    d = int(cfg.get("dim"))
    region = parse_region(cfg.get("region"), dim_hint=d)
    dirs = sample_in_region(region, int(cfg.get("directions")), cfg.seed)
    io.atomic_write(cfg.out_dir / "directions.csv", io.directions_csv(dirs))
    return 0


def _cmd_gallery_sample(cfg):
    dist = _parse_target(cfg.get("dist"), int(cfg.get("dim")))
    if isinstance(dist, Empirical) and dist.weights is None:
        raise ValueError("gallery-sample needs an analytic dist, not a sample file")
    out = gallery.sample(dist, int(cfg.get("n")), cfg.seed)
    io.atomic_write(cfg.out_dir / "sample.csv", io.samples_csv(out))
    return 0


def _cmd_project(cfg):
    sample_set = io.ingest_samples(cfg.get("input", required=True))
    u = parse_direction(cfg.get("direction", required=True))
    proj = project(sample_set, u)
    io.atomic_write(cfg.out_dir / "projected.csv", io.projected_csv(proj))
    return 0


def _cmd_trace(cfg):
    paths = _expand_inputs(cfg.get("inputs", required=True))
    sequence = [io.ingest_samples(p) for p in paths]
    target = _parse_target(cfg.get("target", required=True), sequence[0].dim)
    if not isinstance(target, Empirical):
        raise ValueError("trace needs a sample or atomic target, not an analytic one")
    u = parse_direction(cfg.get("direction", required=True))
    tr = distance_trace(sequence, target, u, cfg.get("metric"))
    io.atomic_write(cfg.out_dir / "trace.csv", io.traces_csv([tr]))
    return 0


def _cmd_carleman(cfg):
    order = int(cfg.get("carleman_order"))
    dist_spec = cfg.get("dist")
    spec = cfg.get("direction", required=dist_spec is None)
    u = parse_direction(spec) if spec is not None else None
    if dist_spec is not None:
        # an analytic law is built in the direction's dimension, 2 without one
        dist = _parse_target(dist_spec, 2 if u is None else u.dim)
        if isinstance(dist, Empirical) and dist.weights is None:
            raise ValueError("--dist must name an analytic distribution; use --input for samples")
        source = dist_spec
    else:
        dist = io.ingest_samples(cfg.get("input", required=True))
        source = cfg.get("input")
    if u is None:
        u = Direction(np.eye(dist.dim)[0])
    else:
        source = f"{source} along {spec}"
    report = carleman_partial_sums(moment_sequence(dist, u, 2 * order), order)
    payload = {"source": source, "order": order, **report.to_dict()}
    io.write_json(cfg.out_dir / "carleman.json", payload)
    return 0


def _cmd_reconstruct(cfg):
    path = cfg.get("input", required=True)
    rows = io.read_array(path)  # u_1..u_d,value
    if rows.shape[1] < 3:
        raise ValueError("reconstruct input needs d >= 2 direction columns plus a value column")
    d = rows.shape[1] - 1
    m = int(cfg.get("order", required=True))
    observations = [(Direction.from_vector(r[:-1]), float(r[-1])) for r in rows]
    result = reconstruct_mixed(observations, d, m)
    payload = {
        "dimension": d,
        "order": m,
        "exponents": [list(a) for a in result.exponents],
        "coefficients": result.coefficients.tolist(),
        "condition_number": result.condition_number,
        "residual_norm": result.residual_norm,
    }
    io.write_json(cfg.out_dir / "reconstruction.json", payload)
    io.atomic_write(cfg.out_dir / "mixed_moments.csv",
                    io.mixed_moments_csv(result.exponents, result.coefficients))
    return 0


def _cmd_tightness(cfg):
    paths = _expand_inputs(cfg.get("inputs", required=True))
    sequence = [io.ingest_samples(p) for p in paths]
    d = sequence[0].dim
    region = parse_region(cfg.get("region"), dim_hint=d)
    dirs = region_directions(region, int(cfg.get("directions")), cfg.seed)
    frame = extract_frame(dirs, float(cfg.get("frame_tau")))
    box = tightness_box(sequence, frame, float(cfg.get("epsilon")))
    payload = {
        "frame": [u.coords.tolist() for u in frame.directions],
        **box.to_dict(),
        "elements": paths,
    }
    io.write_json(cfg.out_dir / "tightness.json", payload)
    return 0


def _cmd_verdict(cfg):
    paths = _expand_inputs(cfg.get("inputs", required=True))
    sequence = [io.ingest_samples(p) for p in paths]
    d = sequence[0].dim
    target = _parse_target(cfg.get("target", required=True), d)
    tol = cfg.get("h1_tolerance")
    vconf = VerdictConfig(
        region=parse_region(cfg.get("region"), dim_hint=d),
        n_directions=int(cfg.get("directions")),
        metric=cfg.get("metric"),
        h1_tolerance=float(tol) if tol is not None else None,
        h1_rule=cfg.get("h1_rule"),
        carleman_order=int(cfg.get("carleman_order")),
        moment_order=int(cfg.get("moment_order")),
        epsilon=float(cfg.get("epsilon")),
        seed=cfg.seed,
        frame_tau=float(cfg.get("frame_tau")),
        reference_sample_size=int(cfg.get("reference_n")),
    )
    report = run_verdict(sequence, target, vconf)
    io.atomic_write(cfg.out_dir / "verdict.json", report.to_json())
    io.atomic_write(cfg.out_dir / "traces.csv",
                    io.traces_csv([r.trace for r in report.h1_results]))
    return 1 if report.overall == "inconsistent" else 0


def _cmd_counterexample(cfg):
    kernels = [[int(x) for x in part.split(",")]
               for part in cfg.get("kernels").split(";")]
    p, q, certified = gallery.switching_pair(kernels)
    io.atomic_write(cfg.out_dir / "counterexample_p.csv", io.atomic_csv(p))
    io.atomic_write(cfg.out_dir / "counterexample_q.csv", io.atomic_csv(q))
    io.atomic_write(cfg.out_dir / "certified_directions.csv", io.directions_csv(certified))
    return 0


_COMMANDS = {
    "sample-directions": _cmd_sample_directions,
    "gallery-sample": _cmd_gallery_sample,
    "project": _cmd_project,
    "trace": _cmd_trace,
    "carleman": _cmd_carleman,
    "reconstruct": _cmd_reconstruct,
    "tightness": _cmd_tightness,
    "verdict": _cmd_verdict,
    "counterexample": _cmd_counterexample,
}


class _Parser(argparse.ArgumentParser):
    # a usage error raises, so main reports it as one JSON object; the
    # subcommand parsers are made of this class too
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="cwkit", description="projection-based weak-convergence diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults in DEFAULTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        for key in defaults:
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    runner = sub.add_parser("run", help="replay a config echo")
    runner.add_argument("--config", type=str, required=True)
    runner.add_argument("--out", type=str, default=None)
    return parser


def resolve(command, file_opts, flag_opts, out_flag):
    """Merge defaults <- config file <- environment seed <- flags."""
    opts = dict(DEFAULTS[command])
    file_out = file_opts.pop("out", None)
    out = out_flag or file_out
    for key, val in file_opts.items():
        if key == "command":
            continue
        if key not in opts:
            raise ValueError(f"unknown option {key!r} for {command}")
        opts[key] = val
    if "seed" in opts and opts["seed"] is None:
        opts["seed"] = os.environ.get("CWKIT_SEED", "0")
    for key, val in flag_opts.items():
        if val is not None:
            opts[key] = val
    if out is None:
        raise ValueError(f"{command}: missing required option --out")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return RunConfig(command=command, options=opts, out_dir=out_dir)


def dispatch(command, cfg):
    code = _COMMANDS[command](cfg)
    cfg.write_echo()
    return code


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            file_opts = parse_config_file(args.config)
            command = file_opts.pop("command", None)
            if command not in _COMMANDS:
                raise ValueError(f"config names no known command (got {command!r})")
            cfg = resolve(command, file_opts, {}, args.out)
        else:
            file_opts = parse_config_file(args.config) if args.config else {}
            flag_opts = {k: v for k, v in vars(args).items()
                         if k in DEFAULTS[args.command]}
            cfg = resolve(args.command, file_opts, flag_opts, args.out)
        return dispatch(cfg.command, cfg)
    except (CwkitError, ValueError, OSError) as err:
        payload = {"error": type(err).__name__, "message": str(err)}
        for attr in ("row", "column", "accepted", "budget"):
            if getattr(err, attr, None) is not None:
                payload[attr] = getattr(err, attr)
        print(json.dumps(payload), file=sys.stderr)
        return 2
    except Exception as err:
        # a bug, not bad input; exit 1 would read as an inconsistent verdict
        payload = {"error": type(err).__name__, "message": str(err),
                   "traceback": traceback.format_exc()}
        print(json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
