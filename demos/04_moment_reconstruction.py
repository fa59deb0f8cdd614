"""Mixed moments from directional moments, and the rank obstruction.

The degree-m directional moment along u is a homogeneous polynomial in u
whose coefficients are the mixed moments. Enough generic directions
determine the coefficients by least squares; directions on a small
algebraic set (or too few of them) cannot, and the solver says so.
"""

import numpy as np

from cwkit import (Cap, Direction, Gaussian, MixedMoments, RankDeficient,
                   homogeneous_dim, mixed_moments_of, mixed_to_directional,
                   multi_indices_upto, reconstruct_mixed, rm_residual, sample_in_region)

d, m = 3, 4
dim = homogeneous_dim(d, m)
print(f"degree {m} in {d} variables: {dim} mixed moments to recover")

# --- forward map, then invert ------------------------------------------------
rng = np.random.default_rng(1)
truth = rng.uniform(-1, 1, dim)  # the degree-m moments, in the order of multi_indices(d, m)
# a table is one array over every |alpha| <= m in graded order: mu_0 = 1
# first, lower orders zero here, and the degree-m moments last
values = np.zeros(len(multi_indices_upto(d, m)))
values[0] = 1.0
values[-dim:] = truth
mm = MixedMoments(dim=d, max_order=m, values=values)

cap = Cap(Direction(np.array([1.0, 0.0, 0.0])), np.pi / 3)
directions = sample_in_region(cap, dim + 5, seed=2)
observations = [(u, mixed_to_directional(mm, u, m)) for u in directions]

rec = reconstruct_mixed(observations, d, m)
err = np.max(np.abs(rec.coefficients - truth))  # rec.exponents are multi_indices(d, m)
print(f"recovered all {dim} coefficients from {len(observations)} cap directions; "
      f"max abs error {err:.2e}")
print(f"design condition number {rec.condition_number:.1f}, residual {rec.residual_norm:.1e}")

# --- too few distinct directions cannot separate the monomials ---------------
few = directions[: dim - 1]
try:
    reconstruct_mixed([(u, mixed_to_directional(mm, u, m)) for u in few], d, m)
except RankDeficient as exc:
    print(f"\nwith {dim - 1} directions: RankDeficient ({exc})")

# repeating one direction many times adds rows but no rank
u0 = directions[0]
try:
    reconstruct_mixed([(u0, mixed_to_directional(mm, u0, m))] * (dim + 10), d, m)
except RankDeficient as exc:
    print(f"one direction repeated {dim + 10} times: RankDeficient")

# --- rm_residual: the polynomial that separates two candidate laws -----------
g = Gaussian.standard(2)
shifted = Gaussian(np.array([0.3, 0.0]), np.eye(2))
p_mm = mixed_moments_of(g, 3)
q_mm = mixed_moments_of(shifted, 3)
u = Direction(np.array([1.0, 0.0]))
print("\ndirectional-moment gaps between N(0,I) and N((0.3,0), I) along e1:")
for order in (1, 2, 3):
    print(f"  order {order}: r_{order}(e1) = {rm_residual(p_mm, q_mm, u, order):+.4f}")
print("order 1 reads off the mean shift <u, (0.3, 0)> directly")
