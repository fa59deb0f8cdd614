"""The traced run: run_verdict's stages replayed with spans around each call.

The replay calls cwkit's public functions in the order run_verdict makes
them (plus the CLI's reads and writes), with a span around each. Spans stay
in memory and are written out once, when the run ends. The replay then
asserts that what it computed is bit-identical to what the real call
returned, so the per-layer numbers describe the same program.

Table builds are timed as a probe span beside moment_match, which rebuilds
them internally; probe spans count in no stage total.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

PROBE = "moments.tables"


class Tracer:
    """Spans (request, id, parent, name, start, end), kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = 0

    @contextmanager
    def span(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"request": self.request, "id": span_id, "parent": parent, "name": name,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, request):
        """Total duration per span name, for one request."""
        out = {}
        for s in self.spans:
            if s["request"] == request:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def write(self, path):
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")


# stages whose spans, summed, replay run_verdict itself
VERDICT_STAGES = ("directions.sample", "directions.frame", "gallery.reference",
                  "projections.trace", "verdict.h1_rule", "verdict.h2_check",
                  "verdict.tightness", "verdict.moment_match")


def _differences(pairs):
    return [f"replayed {what} differs from the real call" for what, a, b in pairs if a != b]


def replay_verdict(tracer, sequence, target, config, report):
    """Replay run_verdict's stages and to_json; check each against `report`.

    Returns the report text, the differences found and the work counts.
    """
    from cwkit import (SampleSet, extract_frame, gallery, h1_check, h2_check,
                       moment_match, sample_in_region, tightness_box)
    from cwkit.directions import FiniteSet
    from cwkit.moments import MixedMoments
    from cwkit.projections import AtomicMeasure, distance_trace
    from cwkit.rng import STREAM_REFERENCE, substream

    def tables_of(source, order):
        if isinstance(source, SampleSet):
            return MixedMoments.from_sample(source, order)
        if isinstance(source, AtomicMeasure):
            return MixedMoments.from_atomic(source, order)
        return gallery.mixed_moments_of(source, order)

    with tracer.span("verdict.run_verdict"):
        with tracer.span("directions.sample"):
            if isinstance(config.region, FiniteSet):
                directions = list(config.region.directions)
            else:
                directions = sample_in_region(config.region, config.n_directions,
                                              config.seed, config.max_draw_budget)
        with tracer.span("directions.frame"):
            frame = extract_frame(directions, config.frame_tau)
        reference = target
        if not isinstance(target, (SampleSet, AtomicMeasure)):
            with tracer.span("gallery.reference"):
                draw_seed = substream(config.seed, STREAM_REFERENCE).integers(2**63)
                reference = gallery.sample(target, config.reference_sample_size, draw_seed)
        with tracer.span("projections.trace"):
            traces = []
            for u in directions:
                with tracer.span("projections.distance_trace"):
                    traces.append(distance_trace(sequence, reference, u, config.metric))
        with tracer.span("verdict.h1_rule"):
            h1 = h1_check(traces, report.h1_tolerance, config.h1_rule)
        with tracer.span("verdict.h2_check"):
            carleman = h2_check(target, frame, config.carleman_order)
        with tracer.span("verdict.tightness"):
            box = tightness_box(sequence, frame, config.epsilon)
        with tracer.span(PROBE):
            with tracer.span("moments.table_target"):
                tables_of(target, config.moment_order)
            with tracer.span("moments.table_candidate"):
                cand = tables_of(sequence[-1], config.moment_order)
        with tracer.span("verdict.moment_match"):
            rows = moment_match(target, sequence[-1], config.moment_order,
                                config.moment_tolerances, config.moment_se_multiplier)
    with tracer.span("verdict.report"):
        text = report.to_json()

    problems = _differences([
        ("directions", [u.coords.tobytes() for u in directions],
         [r.direction.coords.tobytes() for r in report.h1_results]),
        ("frame rows", frame.matrix.tobytes(), report.frame.matrix.tobytes()),
        ("h1 distances", [t.distances.tobytes() for t in traces],
         [r.trace.distances.tobytes() for r in report.h1_results]),
        ("h1 results", [r.to_dict() for r in h1], [r.to_dict() for r in report.h1_results]),
        ("carleman reports", [r.to_dict() for r in carleman],
         [r.to_dict() for r in report.carleman_reports]),
        ("tightness box", box.to_dict(), report.tightness.to_dict()),
        ("moment rows", [r.to_dict() for r in rows],
         [r.to_dict() for r in report.moment_table]),
    ])
    return text, problems, {
        "gallery.reference_points": 0 if reference is target else reference.n,
        "projections.pairs": len(directions) * len(sequence),
        "projections.points": len(directions) * (sum(e.n for e in sequence) + reference.n),
        "verdict.h2_moment_orders": frame.dim * 2 * config.carleman_order,
        "moments.alphas": len(cand.table) - 1,
    }


def replay_cli_reads(tracer, p):
    """The CLI's ingestion of its element and target CSV files."""
    from cwkit import io

    with tracer.span("io.ingest"):
        sequence = []
        for path in p.paths:
            with tracer.span("io.ingest_samples"):
                sequence.append(io.ingest_samples(path))
        with tracer.span("io.ingest_samples"):
            target = io.ingest_samples(p.target_path)
    return sequence, target


def replay_cli_writes(tracer, report, text, out_dir):
    """The CLI's writes of verdict.json and traces.csv; returns bytes written."""
    from cwkit import io

    with tracer.span("io.write"):
        traces = io.traces_csv([r.trace for r in report.h1_results])
        for name, body in (("verdict.json", text), ("traces.csv", traces)):
            with tracer.span("io.atomic_write"):
                io.atomic_write(out_dir / name, body)
    return len(text.encode("utf-8")) + len(traces.encode("utf-8"))


def check_against_cli(p, replay_dir, cli_output):
    """Differences between the in-process replay's files and the CLI's."""
    def read(path):
        return path.read_text(encoding="utf-8")

    return _differences([
        ("verdict.json", read(replay_dir / "verdict.json"), cli_output.verdict_json),
        ("traces.csv", read(replay_dir / "traces.csv"), read(p.out_dir / "traces.csv")),
    ])


def layer_metrics(d, counts, verdict_wall, report_wall, cli=None):
    """Per-layer numbers of one traced request.

    d: span durations by name; verdict_wall and report_wall: the untraced
    run_verdict and to_json times measured beside the replay; cli: for the
    CLI workload, its process wall time and start-up time.
    """
    stages = sum(d.get(name, 0.0) for name in VERDICT_STAGES)
    trace_s = d["projections.trace"]
    ingest_s = d.get("io.ingest", 0.0)
    write_s = d.get("io.write", 0.0)
    untraced = verdict_wall + report_wall
    traced = d["verdict.run_verdict"] - d[PROBE] + d["verdict.report"]
    m = {
        "directions.sample_s": d["directions.sample"],
        "directions.frame_s": d["directions.frame"],
        "gallery.reference_s": d.get("gallery.reference", 0.0),
        "projections.trace_s": trace_s,
        "projections.points_per_s": counts["projections.points"] / trace_s,
        "verdict.h2_check_s": d["verdict.h2_check"],
        "verdict.moment_match_s": d["verdict.moment_match"],
        "verdict.moment_se_s": (d["verdict.moment_match"] - d["moments.table_target"]
                                - d["moments.table_candidate"]),
        "verdict.h1_rule_s": d["verdict.h1_rule"],
        "verdict.tightness_s": d["verdict.tightness"],
        "verdict.report_s": d["verdict.report"],
        "verdict.residual_s": verdict_wall - stages,
        "moments.table_target_s": d["moments.table_target"],
        "moments.table_candidate_s": d["moments.table_candidate"],
        "io.ingest_s": ingest_s,
        "io.rows_per_s": counts.get("io.rows", 0) / ingest_s if ingest_s else 0.0,
        "io.write_s": write_s,
        "cli.startup_s": 0.0,
        "cli.residual_s": 0.0,
        "trace.overhead_frac": (traced - untraced) / untraced,
        "replayed_verdict_s": traced,
    }
    if cli is not None:
        m["cli.startup_s"] = cli["startup_s"]
        m["cli.residual_s"] = (cli["wall_s"] - cli["startup_s"] - ingest_s - stages
                               - d["verdict.report"] - write_s)
        m["replayed_verdict_s"] = cli["wall_s"]
    m.update(counts)
    return m


def median_metrics(per_request):
    """Median of each metric over the traced requests; counts stay integers."""
    out = {}
    for key in per_request[0]:
        values = [r[key] for r in per_request]
        median = np.median(values)
        out[key] = int(median) if all(isinstance(v, int) for v in values) else float(median)
    return out
