"""The convergence diagnostic as an executable procedure.

run_verdict checks, for a sequence of sample sets against a target law:

  h1: along every sampled direction, the projected sequence laws approach
      the projected target (finite-sample rule on a distance trace);
  h2: along d extracted frame directions, the target projections pass the
      Carleman divergence diagnostic;
  tightness: a frame-aligned box capturing all but epsilon of each element;
  moment match: mixed moments of the target against the last element.

The aggregate verdict can only fail to falsify convergence, never prove it;
hence 'consistent_with_convergence' rather than 'converged'. Regions of
surface measure zero (finite direction sets) void the hypotheses entirely:
such runs are flagged and come back 'inconclusive' no matter what the
directional data says, which is exactly the lesson of the switching
counterexample.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import gallery
from .directions import (DEFAULT_FRAME_TAU, FiniteSet, extract_frame, frame_constant,
                         sample_in_region)
from .errors import BudgetExhausted, DimensionMismatch, InsufficientRank
from .moments import carleman_partial_sums, jsonsafe, moment_sequence, multi_indices
from .projections import METRICS, DistanceTrace, Empirical, distance_traces
from .rng import STREAM_REFERENCE, substream

H1_RULES = ("final_below", "monotone_trend")
VERDICTS = ("consistent_with_convergence", "inconsistent", "inconclusive")


def _reliable_order_limit(n):
    # empirical moments beyond this order are noise-dominated
    return 2.0 * n**0.25


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
    carleman_order: int = 12
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
        if self.n_directions < 1:
            raise ValueError("n_directions must be >= 1")
        if self.moment_order < 1:
            raise ValueError("moment_order must be >= 1")
        if self.carleman_order < 5:
            raise ValueError("carleman_order must be >= 5")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        # a NaN, zero or negative tolerance would decide every check by itself
        for name in ("h1_tolerance", "moment_se_multiplier"):
            x = getattr(self, name)
            if x is not None and not (np.isfinite(x) and x > 0.0):
                raise ValueError(f"{name} must be finite and > 0")
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
    # |<u_j, x>| one frame row at a time, for the quantiles and the coverage
    # alike: a matrix product rounds differently and can push tied rows out
    return np.abs(np.column_stack([element.points @ u_row for u_row in frame.matrix]))


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
    kendall_tau: float
    trace: DistanceTrace

    def to_dict(self):
        return {
            "direction": self.direction.coords.tolist(),
            "passed": self.passed,
            "reason": self.reason,
            "final_distance": self.final_distance,
            "kendall_tau": None if np.isnan(self.kendall_tau) else self.kendall_tau,
        }


def _kendall_tau_b(x, y):
    # sum_{i<j} sign(dx) sign(dy) / sqrt(#dx != 0) / sqrt(#dy != 0), clipped
    # to [-1, 1]; the full sign matrices hold each pair twice
    sx = np.sign(np.subtract.outer(x, x))
    sy = np.sign(np.subtract.outer(y, y))
    tau = (np.sum(sx * sy) / 2 / np.sqrt(np.count_nonzero(sx) // 2)
           / np.sqrt(np.count_nonzero(sy) // 2))
    return float(np.clip(tau, -1.0, 1.0))


def h1_check(traces, tolerance, rule="final_below"):
    """Apply the per-direction convergence rule to each distance trace.

    final_below: last distance < tolerance. monotone_trend: additionally,
    Kendall's tau-b of (sample size, distance) <= -0.5; a constant trace
    has no trend and the final_below part alone decides.
    """
    if not traces:
        raise ValueError("traces must be nonempty")
    if rule not in H1_RULES:
        raise ValueError(f"rule must be one of {H1_RULES}")
    results = []
    for tr in traces:
        final = float(tr.distances[-1])
        tau = float("nan")
        if rule == "monotone_trend" and np.ptp(tr.distances) > 0 and np.ptp(tr.sizes) > 0:
            tau = _kendall_tau_b(tr.sizes, tr.distances)
        trend_ok = np.isnan(tau) or tau <= -0.5
        if final >= tolerance:
            passed, reason = False, "final_distance_exceeds"
        elif rule == "monotone_trend" and not trend_ok:
            passed, reason = False, "trend_not_decreasing"
        else:
            passed, reason = True, "ok"
        results.append(H1Result(direction=tr.direction, passed=passed, reason=reason,
                                final_distance=final, kendall_tau=tau, trace=tr))
    return results


def h2_check(target, frame, carleman_order):
    """Carleman diagnostic of the target's projection along each frame row.

    Analytic targets use exact moment oracles. Empirical targets use the
    moments of their projections: exact for a weighted measure; for a
    sample, with a note when the needed orders pass the reliability limit
    2 n^{1/4}.
    """
    note = ""
    if isinstance(target, Empirical) and target.weights is None:
        limit = _reliable_order_limit(target.n)
        if 2 * carleman_order > limit:
            note = (f"empirical moments beyond order {limit:.0f} are "
                    f"noise-dominated at n={target.n}")
    reports = []
    for u in frame.directions:
        rep = carleman_partial_sums(moment_sequence(target, u, 2 * carleman_order),
                                    carleman_order)
        if note:
            joined = f"{rep.note}; {note}" if rep.note else note
            rep = dataclasses.replace(rep, note=joined)
        reports.append(rep)
    return reports


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
    rows = []
    for m in range(1, max_order + 1):
        alphas = multi_indices(p_mm.dim, m)
        disc = np.array([abs(p_mm.table[a] - q_mm.table[a]) for a in alphas])
        if per_order_tolerances is not None:
            tols = np.full(len(alphas), float(per_order_tolerances[m - 1]))
        else:
            tols = np.array([max(se_multiplier * q_mm.se.get(a, 0.0), 1e-9)
                             for a in alphas])
        ratios = disc / tols
        worst = int(np.argmax(ratios))
        rows.append(MomentMatchRow(
            order=m,
            max_abs_discrepancy=float(disc.max()),
            worst_alpha=alphas[worst],
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


def aggregate_overall(h1_results, carleman_verdicts, moment_rows, flags):
    """Fold the pieces into one verdict.

    zero_measure_region voids everything: inconclusive. Otherwise a failed
    direction rule or moment mismatch falsifies: inconsistent. Otherwise a
    Carleman scan that is not 'diverging' blocks the conclusion, since without
    Carleman's condition along the frame the projections need not identify
    the law: inconclusive. All clear: consistent_with_convergence.
    """
    if "zero_measure_region" in flags:
        return "inconclusive"
    if any(not r.passed for r in h1_results) or any(not r.passed for r in moment_rows):
        return "inconsistent"
    if any(v != "diverging" for v in carleman_verdicts):
        return "inconclusive"
    return "consistent_with_convergence"


def _digest_of(obj):
    if isinstance(obj, Empirical):
        return obj.digest()
    h = hashlib.sha256()
    h.update(type(obj).__name__.encode())
    for arr in vars(obj).values():
        if isinstance(arr, np.ndarray):
            h.update(arr.tobytes())
    return h.hexdigest()


def run_verdict(sequence, target, config):
    """Execute the whole diagnostic. Deterministic given (inputs, seed).

    Directions come from the configured region (a finite, measure-zero
    region contributes its directions verbatim and taints the run); the
    frame is extracted from those same directions; the target's projections
    feed the Carleman check; the last element faces the moment comparison.
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
        directions = list(config.region.directions)
        flags.append("zero_measure_region")
    else:
        if config.n_directions < d:
            raise ValueError(f"n_directions must be >= dimension {d}")
        try:
            directions = sample_in_region(config.region, config.n_directions,
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
    h1 = h1_check(traces, tol, config.h1_rule)
    carleman = h2_check(target, frame, config.carleman_order)
    box = tightness_box(sequence, frame, config.epsilon)
    moments = moment_match(target, sequence[-1], config.moment_order,
                           config.moment_tolerances, config.moment_se_multiplier)

    if any(r.verdict == "converging" for r in carleman):
        flags.append("carleman_condition_failed")
    if any("noise-dominated" in r.note for r in carleman):
        flags.append("empirical_moments_unreliable")

    overall = aggregate_overall(h1, [r.verdict for r in carleman], moments, flags)
    provenance = {
        "config": config.echo(),
        "resolved_h1_tolerance": float(tol),
        "sequence_digests": [_digest_of(e) for e in sequence],
        "target_digest": _digest_of(target),
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
