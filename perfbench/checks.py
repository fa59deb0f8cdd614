"""Independent checks of one verdict's output; they feed `failed_frac`.

They run outside the timed region and recompute, with scipy and plain
numpy rather than cwkit's own code paths:

- h1: the KS (`scipy.stats.ks_2samp`) or W1 (`scipy.stats.wasserstein_distance`)
  distance of every element to the reference, along the first direction and
  along the direction with the worst final distance. The reference is
  rebuilt with run_verdict's documented draw,
  `gallery.sample(target, n, substream(seed, STREAM_REFERENCE).integers(2**63))`,
  or is the sample target itself. Agreement within 1e-9.
- moment match: every row's largest discrepancy, tolerance and outcome,
  from closed-form target moments (standard Gaussian: prod (a_i - 1)!! over
  even a_i, else 0; standard lognormal: prod exp(a_i^2 / 2)) or sample
  monomials, against monomials of the last element. Relative 1e-9.
"""

import itertools
import json
import math

import numpy as np
from scipy.stats import ks_2samp, wasserstein_distance

H1_ABS_TOL = 1e-9
MOMENT_REL_TOL = 1e-9
SE_FLOOR = 1e-9  # the floor moment_match puts under each SE tolerance


def perturbed(distances):
    """A deliberately wrong copy of the distances, for the negative control."""
    bad = [d.copy() for d in distances]
    bad[0][0] += 1e-6
    return bad


def reference_points(p):
    from cwkit import gallery
    from cwkit.rng import STREAM_REFERENCE, substream

    if p.workload.target == "sample":
        return p.target.points
    draw_seed = substream(p.config.seed, STREAM_REFERENCE).integers(2**63)
    return gallery.sample(p.target, p.config.reference_sample_size, draw_seed).points


def check_h1(p, doc, distances):
    results = doc["h1"]["results"]
    finals = [r["final_distance"] for r in results]
    problems = []
    if len(distances) != len(results):
        return [f"h1: {len(results)} results but {len(distances)} traces"]
    ref = reference_points(p)
    for j in sorted({0, int(np.argmax(finals))}):
        u = np.array(results[j]["direction"])
        ref_proj = ref @ u
        if distances[j][-1] != finals[j]:
            problems.append(f"h1 direction {j}: final_distance {finals[j]!r} is not the "
                            f"trace's last distance {distances[j][-1]!r}")
        for i, elem in enumerate(p.sequence):
            x = elem.points @ u
            if p.config.metric == "ks":
                expect = ks_2samp(x, ref_proj, method="asymp").statistic
            else:
                expect = wasserstein_distance(x, ref_proj)
            got = distances[j][i]
            if not abs(float(expect) - got) <= H1_ABS_TOL:
                problems.append(f"h1 direction {j} element {i}: reported {float(got)!r}, "
                                f"recomputed {float(expect)!r}")
    return problems


def _double_factorial_odd(a):
    # (a - 1)!! for even a
    return math.prod(range(a - 1, 0, -2))


def exact_moment(kind, alpha):
    if kind == "gaussian":
        if any(a % 2 for a in alpha):
            return 0.0
        return float(math.prod(_double_factorial_odd(a) for a in alpha))
    return math.exp(sum(a * a for a in alpha) / 2.0)


def _exponents(d, m):
    # every alpha with |alpha| = m, in no particular order
    for combo in itertools.combinations_with_replacement(range(d), m):
        alpha = [0] * d
        for j in combo:
            alpha[j] += 1
        yield tuple(alpha)


class _Monomials:
    """Monomials x^alpha of a point cloud, from a table of plain powers."""

    def __init__(self, points, max_order):
        self.n, self.d = points.shape
        self.powers = np.stack([points**k for k in range(max_order + 1)])
        self.cols = np.arange(self.d)

    def values(self, alpha):
        return np.prod(self.powers[np.asarray(alpha), :, self.cols], axis=0)


def _close(a, b):
    return abs(a - b) <= MOMENT_REL_TOL * max(abs(a), abs(b))


def check_moments(p, doc):
    cfg = p.config
    order = cfg.moment_order
    cand = _Monomials(p.sequence[-1].points, order)
    target = _Monomials(p.target.points, order) if p.workload.target == "sample" else None
    rows = doc["moment_match"]
    if [r["order"] for r in rows] != list(range(1, order + 1)):
        return [f"moment_match: unexpected orders {[r['order'] for r in rows]}"]
    problems = []
    for row in rows:
        m = row["order"]
        alphas = list(_exponents(cand.d, m))
        disc, tols = [], []
        for alpha in alphas:
            mono = cand.values(alpha)
            exact = (float(np.mean(target.values(alpha))) if target is not None
                     else exact_moment(p.workload.target, alpha))
            disc.append(abs(exact - float(np.mean(mono))))
            if cfg.moment_tolerances is not None:
                tols.append(cfg.moment_tolerances[m - 1])
            else:
                se = float(np.std(mono)) / math.sqrt(cand.n)
                tols.append(max(cfg.moment_se_multiplier * se, SE_FLOOR))
        disc, tols = np.array(disc), np.array(tols)
        ratios = disc / tols
        worst_alpha = tuple(row["worst_alpha"])
        worst = alphas.index(worst_alpha) if worst_alpha in alphas else None
        checks = {
            "max_abs_discrepancy": _close(float(disc.max()),
                                          float(row["max_abs_discrepancy"])),
            "tolerance": worst is not None and _close(float(tols[worst]),
                                                      float(row["tolerance"])),
            "worst_alpha": worst is not None and _close(float(ratios[worst]),
                                                        float(ratios.max())),
            "passed": bool(np.all(disc <= tols)) == row["passed"],
        }
        problems += [f"moment_match order {m}: {name} disagrees with the recomputation"
                     for name, ok in checks.items() if not ok]
    return problems


def verify(p, output, perturb=False):
    """Problems found in one call's output; an empty list means it passed."""
    doc = json.loads(output.verdict_json)
    distances = perturbed(output.distances) if perturb else output.distances
    return check_h1(p, doc, distances) + check_moments(p, doc)
