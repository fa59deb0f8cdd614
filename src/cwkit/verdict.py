"""The convergence diagnostic as an executable procedure.

run_verdict checks, for a sequence of sample sets against a target law,
the two hypotheses of the sharp Cramer-Wold theorem, and only these decide
the verdict:

  h1: along every sampled direction, the projected sequence laws approach
      the projected target (the last element's distance lies below a
      tolerance);
  h2: along d extracted frame directions, the target's projections satisfy
      Carleman's condition, which the target law answers in closed form.

Two diagnostics ride along in the report: a frame-aligned tightness box
capturing all but epsilon of each element, and a mixed-moment match of the
target against the last element. Weak convergence does not imply
convergence of moments, so a moment gap only sets the flag
'moment_mismatch'.

The verdict can only fail to falsify convergence, never prove it; hence
'consistent_with_convergence' rather than 'converged'. Regions of surface
measure zero (finite direction sets) void the hypotheses: such runs are
flagged and come back 'inconclusive' whatever the directional data says,
which is the lesson of the switching counterexample. An unweighted sample
target cannot certify h2: its empirical law has compact support, so it
satisfies Carleman's condition whatever population it came from. Such runs
carry the flag 'carleman_unverifiable_from_sample' and are at best
'inconclusive'.
"""

import dataclasses
import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import gallery
from .directions import (DEFAULT_FRAME_TAU, FiniteSet, extract_frame, frame_constant,
                         region_directions)
from .errors import BudgetExhausted, DimensionMismatch, InsufficientRank
from .moments import _order_slice, jsonsafe, multi_indices
from .projections import METRICS, DistanceTrace, Empirical, _projection, distance_traces
from .rng import STREAM_REFERENCE, substream

# the one h1 rule; its name stays a config value so that recorded configs replay
H1_RULES = ("final_below",)


def _default_h1_tolerance(n_min):
    # DKW-scaled: the 95% one-sample KS band at the smallest sample size,
    # plus a fixed slack for the target's own sampling error
    return 1.36 / np.sqrt(n_min) + 0.01


@dataclass
class VerdictConfig:
    """Parameters of a full diagnostic run. seed is always explicit."""

    region: object
    n_directions: int = 50
    metric: str = "ks"
    h1_tolerance: float | None = None  # None: 1.36/sqrt(n_min) + 0.01
    h1_rule: str = "final_below"
    carleman_order: int = 12  # validated and echoed; no stage reads it
    moment_order: int = 4
    epsilon: float = 0.1
    seed: int = 0
    frame_tau: float = DEFAULT_FRAME_TAU
    moment_tolerances: tuple | None = None  # per order 1..moment_order
    moment_se_multiplier: float = 5.0
    reference_sample_size: int = 50_000
    max_draw_budget: int | None = None

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if self.h1_rule not in H1_RULES:
            raise ValueError(f"h1_rule must be one of {H1_RULES}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        # a NaN, zero or negative tolerance would decide every check by itself
        for name in ("h1_tolerance", "moment_se_multiplier"):
            x = getattr(self, name)
            if x is not None and not (np.isfinite(x) and x > 0.0):
                raise ValueError(f"{name} must be finite and > 0")
        # caught here, not later with another message while directions or the reference are drawn
        counts = (("n_directions", 1, False), ("carleman_order", 5, False),
                  ("moment_order", 1, False), ("reference_sample_size", 1, False),
                  ("max_draw_budget", 1, True))
        for name, least, optional in counts:
            x = getattr(self, name)
            if optional and x is None:
                continue
            if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < least:
                allowed = ("None or " if optional else "") + f"an integer >= {least}"
                raise ValueError(f"{name} must be {allowed}, got {x!r}")
        if self.moment_tolerances is not None:
            tols = tuple(float(t) for t in self.moment_tolerances)
            if len(tols) != self.moment_order:
                raise ValueError("need one moment tolerance per order 1..moment_order")
            if not all(np.isfinite(t) and t > 0.0 for t in tols):
                raise ValueError("moment tolerances must be finite and > 0")
            self.moment_tolerances = tols

    def echo(self):
        """Flat, JSON-ready dict of every field in declaration order, with the
        region as its spec string."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["region"] = self.region.describe()
        if self.moment_tolerances is not None:
            out["moment_tolerances"] = list(self.moment_tolerances)
        return out


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TightnessBox:
    """Box {x : |<u_j, x>| <= M_j for all j} in frame coordinates."""

    frame: object
    half_widths: np.ndarray
    epsilon: float
    achieved_coverage: tuple

    def coverage(self, element):
        """Fraction of an element's mass inside the box."""
        return _coverage(element, _abs_frame_coords(element, self.frame), self.half_widths)

    def to_dict(self):
        return {
            "half_widths": self.half_widths.tolist(),
            "epsilon": self.epsilon,
            "achieved_coverage": list(self.achieved_coverage),
        }


def _abs_frame_coords(element, frame):
    # |<u_j, x>| one frame direction at a time, for the quantiles and the coverage
    # alike: a matrix product rounds differently and can push tied rows out
    return np.abs(np.column_stack([_projection(element, u) for u in frame.directions]))


def _coverage(element, abs_coords, half_widths):
    return float(element.expect(np.all(abs_coords <= half_widths, axis=1)))


def _abs_quantile(element, v, q):
    if element.weights is not None:
        order = np.argsort(v, kind="stable")
        cum = np.cumsum(element.weights[order])
        idx = int(np.searchsorted(cum, q - 1e-12, side="left"))
        return float(v[order][min(idx, v.size - 1)])
    return float(np.quantile(v, q, method="higher"))


def tightness_box(sequence, frame, epsilon):
    """Empirical realization of the tightness step.

    M_j is the largest (1 - epsilon/d)-quantile of |<u_j, x>| over the
    sequence, so each element puts at most epsilon/d of its mass past M_j
    in each frame coordinate; the union bound leaves coverage >= 1 - epsilon
    on the data the box was built from.
    """
    if not sequence:
        raise ValueError("sequence must be nonempty")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    d = frame.dim
    q = 1.0 - epsilon / d
    coords = [_abs_frame_coords(elem, frame) for elem in sequence]
    half = np.array([
        max(_abs_quantile(elem, c[:, j], q) for elem, c in zip(sequence, coords))
        for j in range(d)
    ])
    cov = tuple(_coverage(elem, c, half) for elem, c in zip(sequence, coords))
    if min(cov) < 1.0 - epsilon - 1e-9:
        raise AssertionError("coverage fell below 1 - epsilon on the building data")
    return TightnessBox(frame=frame, half_widths=half, epsilon=epsilon, achieved_coverage=cov)


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class H1Result:
    direction: object
    passed: bool
    reason: str
    final_distance: float
    trace: DistanceTrace

    def to_dict(self):
        return {
            "direction": self.direction.coords.tolist(),
            "passed": self.passed,
            "reason": self.reason,
            "final_distance": self.final_distance,
        }


def h1_check(traces, tolerance, rule="final_below"):
    """Pass each direction whose last distance lies below tolerance.

    h1 is the limit pi_u(P_n) => pi_u(P), so only the last element's
    distance is read; the earlier ones stay in the trace as evidence.
    final_below is the one rule.
    """
    if not traces:
        raise ValueError("traces must be nonempty")
    if rule not in H1_RULES:
        raise ValueError(f"rule must be one of {H1_RULES}")
    results = []
    for tr in traces:
        final = float(tr.distances[-1])
        passed = bool(final < tolerance)
        results.append(H1Result(direction=tr.direction, passed=passed,
                                reason="ok" if passed else "final_distance_exceeds",
                                final_distance=final, trace=tr))
    return results


@dataclass(frozen=True)
class H2Result:
    verdict: str
    reason: str

    def to_dict(self):
        return {"verdict": self.verdict, "reason": self.reason}


def h2_check(target, frame, carleman_order):
    """Carleman's condition along each frame row, from the target law alone
    (``target.carleman()``), so every row reads the same. No moment is
    computed and carleman_order is not read: the M-term scan is evidence for
    ``cwkit carleman`` only.
    """
    verdict, reason = target.carleman()
    return [H2Result(verdict, reason) for _ in frame.directions]


# ---------------------------------------------------------------------------
# moment comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MomentMatchRow:
    order: int
    max_abs_discrepancy: float
    worst_alpha: tuple
    tolerance: float
    passed: bool

    def to_dict(self):
        return {
            "order": self.order,
            "max_abs_discrepancy": jsonsafe(self.max_abs_discrepancy),
            "worst_alpha": list(self.worst_alpha),
            "tolerance": jsonsafe(self.tolerance),
            "passed": self.passed,
        }


def moment_match(target, q_source, max_order, per_order_tolerances=None,
                 se_multiplier=5.0):
    """Compare mixed moments of the target and a candidate, order by order.

    With explicit per-order tolerances, order m passes when the largest
    |mu_alpha(P) - mu_alpha(Q)| over |alpha| = m stays below tolerance m.
    Otherwise each alpha is held to se_multiplier times the candidate's
    Monte-Carlo standard error for that monomial (floored at 1e-9), and the
    reported tolerance is the one at the worst alpha.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    p_mm = gallery.mixed_moments_of(target, max_order)
    q_mm = gallery.mixed_moments_of(q_source, max_order)
    if p_mm.dim != q_mm.dim:
        raise DimensionMismatch(f"target dim {p_mm.dim} != candidate dim {q_mm.dim}")
    q_se = np.zeros(q_mm.values.size) if q_mm.se is None else q_mm.se
    rows = []
    for m in range(1, max_order + 1):
        order = _order_slice(p_mm.dim, m)
        disc = np.abs(p_mm.values[order] - q_mm.values[order])
        if per_order_tolerances is not None:
            tols = np.full(disc.size, float(per_order_tolerances[m - 1]))
        else:
            tols = np.maximum(se_multiplier * q_se[order], 1e-9)
        worst = int(np.argmax(disc / tols))
        rows.append(MomentMatchRow(
            order=m,
            max_abs_discrepancy=float(disc.max()),
            worst_alpha=multi_indices(p_mm.dim, m)[worst],
            tolerance=float(tols[worst]),
            passed=bool(np.all(disc <= tols)),
        ))
    return rows


# ---------------------------------------------------------------------------
# full run
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VerdictReport:
    """Structured outcome of a full diagnostic run."""

    overall: str
    flags: tuple
    h1_results: tuple
    frame: object
    carleman_reports: tuple
    tightness: TightnessBox
    moment_table: tuple
    h1_tolerance: float
    provenance: dict

    def to_dict(self):
        return {
            "overall": self.overall,
            "flags": list(self.flags),
            "h1": {
                "tolerance": self.h1_tolerance,
                "results": [r.to_dict() for r in self.h1_results],
                "n_failed": sum(not r.passed for r in self.h1_results),
            },
            "frame": {
                "directions": [u.coords.tolist() for u in self.frame.directions],
                "min_singular_value": self.frame.min_singular_value,
                "frame_constant": frame_constant(self.frame),
            },
            "carleman": [r.to_dict() for r in self.carleman_reports],
            "tightness": self.tightness.to_dict(),
            "moment_match": [r.to_dict() for r in self.moment_table],
            "provenance": self.provenance,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"


def aggregate_overall(h1_results, carleman_verdicts, flags):
    """Fold the theorem's two hypotheses into one verdict.

    zero_measure_region voids everything: inconclusive. Otherwise a failed
    direction rule falsifies h1: inconsistent. Otherwise h2 must hold: an
    h2 answer that is not 'diverging', or a sample target whose answer is
    for its own law only (carleman_unverifiable_from_sample), leaves the
    projections unable to identify the law: inconclusive. All clear:
    consistent_with_convergence. Moments and tightness are not inputs.
    """
    if "zero_measure_region" in flags:
        return "inconclusive"
    if any(not r.passed for r in h1_results):
        return "inconsistent"
    if (any(v != "diverging" for v in carleman_verdicts)
            or "carleman_unverifiable_from_sample" in flags):
        return "inconclusive"
    return "consistent_with_convergence"


def run_verdict(sequence, target, config):
    """Execute the whole diagnostic. Deterministic given (inputs, seed).

    Directions come from the configured region (a finite, measure-zero
    region contributes its directions verbatim and taints the run); the
    frame is extracted from those same directions; the target law answers
    h2 along it; the last element faces the moment comparison.
    """
    if not sequence:
        raise ValueError("sequence must be nonempty")
    d = sequence[0].dim
    for elem in sequence:
        if elem.dim != d:
            raise DimensionMismatch("sequence elements have inconsistent dimensions")
    if target.dim != d:
        raise DimensionMismatch(f"target dim {target.dim} != sequence dim {d}")

    flags = []
    if isinstance(config.region, FiniteSet):
        flags.append("zero_measure_region")
    elif config.n_directions < d:
        raise ValueError(f"n_directions must be >= dimension {d}")
    try:
        directions = region_directions(config.region, config.n_directions,
                                       config.seed, config.max_draw_budget)
    except BudgetExhausted as err:
        raise BudgetExhausted(f"h1 direction sampling failed: {err}",
                              accepted=err.accepted, budget=err.budget) from None
    for u in directions:
        if u.dim != d:
            raise DimensionMismatch("region directions do not match the data dimension")

    try:
        frame = extract_frame(directions, config.frame_tau)
    except InsufficientRank as err:
        raise InsufficientRank(f"h2 frame extraction failed: {err}") from None

    if not isinstance(target, Empirical):
        h1_target = gallery.sample(target, config.reference_sample_size,
                                   substream(config.seed, STREAM_REFERENCE).integers(2**63))
        flags.append("analytic_target_sampled_for_h1")
    else:
        h1_target = target

    n_min = min(elem.n for elem in sequence)
    tol = config.h1_tolerance if config.h1_tolerance is not None else _default_h1_tolerance(n_min)

    traces = distance_traces(sequence, h1_target, directions, config.metric)
    # an analytic target's reference draw is the call's largest array: free it
    # before tightness and the moment tables reach the call's memory peak
    del h1_target
    h1 = h1_check(traces, tol, config.h1_rule)
    carleman = h2_check(target, frame, config.carleman_order)
    box = tightness_box(sequence, frame, config.epsilon)
    moments = moment_match(target, sequence[-1], config.moment_order,
                           config.moment_tolerances, config.moment_se_multiplier)

    if any(r.verdict == "converging" for r in carleman):
        flags.append("carleman_condition_failed")
    if isinstance(target, Empirical) and target.weights is None:
        flags.append("carleman_unverifiable_from_sample")
    if any(not r.passed for r in moments):
        flags.append("moment_mismatch")

    overall = aggregate_overall(h1, [r.verdict for r in carleman], flags)
    provenance = {
        "config": config.echo(),
        "resolved_h1_tolerance": float(tol),
        "sequence_digests": [e.digest() for e in sequence],
        "target_digest": target.digest(),
        "n_directions_used": len(directions),
    }
    return VerdictReport(
        overall=overall,
        flags=tuple(flags),
        h1_results=tuple(h1),
        frame=frame,
        carleman_reports=tuple(carleman),
        tightness=box,
        moment_table=tuple(moments),
        h1_tolerance=float(tol),
        provenance=provenance,
    )
