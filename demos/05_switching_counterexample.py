"""Why the direction region must have positive measure.

The switching construction produces two genuinely different atomic
measures whose projections along a prescribed finite direction set agree
exactly. Watching only those directions, the two laws are
indistinguishable; almost any other direction separates them immediately.
"""

import numpy as np

from cwkit import (Empirical, FiniteSet, VerdictConfig, ks_distance, moment_match,
                   project, run_verdict, sample_uniform, switching_pair)

p, q, certified = switching_pair([[1, 0], [0, 1]])
print("P atoms:", list(zip(p.points.tolist(), p.weights.tolist())))
print("Q atoms:", list(zip(q.points.tolist(), q.weights.tolist())))
print("certified directions:", [u.coords.tolist() for u in certified])

# --- equality along the certified directions is exact, not approximate -----
for u in certified:
    pp, pq = project(p, u), project(q, u)
    same = pp.values.tolist() == pq.values.tolist() and pp.weights.tolist() == pq.weights.tolist()
    print(f"projection along {np.round(u.coords, 3)}: identical atom lists -> {same}")

# --- yet the measures differ: disjoint supports, mixed moments differ ------
rows = moment_match(p, q, 2)
for r in rows:
    print(f"mixed-moment gap at order {r.order}: {r.max_abs_discrepancy:.3f} "
          f"(worst alpha {r.worst_alpha})")

# --- generic directions separate the pair at once ---------------------------
gaps = []
for seed in range(200):
    (u,) = sample_uniform(2, 1, seed=seed)
    gaps.append(ks_distance(project(p, u), project(q, u)))
print(f"\nKS along 200 uniform directions: min {min(gaps):.3f}, "
      f"median {np.median(gaps):.3f} (generic directions all see the difference)")

# --- the full verdict procedure refuses to be fooled ------------------------
# run the diagnostic with the finite certified set as the direction region:
# every per-direction check passes with distance exactly 0, yet the region
# has surface measure zero, so the run is flagged and returns inconclusive
q_as_sample = Empirical(q.points, label="q-atoms")
config = VerdictConfig(region=FiniteSet(tuple(certified)), seed=0,
                       moment_order=2, carleman_order=6)
report = run_verdict([q_as_sample, q_as_sample, q_as_sample], p, config)
print(f"\nverdict with the measure-zero region: {report.overall}, flags {report.flags}")
print("per-direction final distances:", [r.final_distance for r in report.h1_results])
# the moment table is a diagnostic: its order-2 gap sets the moment_mismatch
# flag but decides nothing, since weak convergence does not need moments
print("moment table records the order-2 mismatch:",
      [(r.order, round(r.max_abs_discrepancy, 3), r.passed) for r in report.moment_table])
