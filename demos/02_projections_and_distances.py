"""Projected laws and exact 1-D distances.

A d-dimensional measure projects to a 1-D atomic law along a direction;
KS and W1 distances between such laws are computed exactly on the merged
atom grid. Distance traces record how projections of a sample sequence
approach a target.
"""

import numpy as np

from cwkit import (Direction, Empirical, Gaussian, distance_trace, ks_distance, project,
                   sample, wasserstein1)

u = Direction(np.array([np.sqrt(0.5), np.sqrt(0.5)]))

# --- projections of exact atomic measures are exact ------------------------
measure = Empirical(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
p = project(measure, u)
print("both atoms of (1,0)/(0,1) project to the same value along the diagonal:")
print("  atoms:", list(zip(p.values.tolist(), p.weights.tolist())))

# --- KS and W1 on small laws ------------------------------------------------
d0 = Empirical(np.array([[0.0, 0.0]]), np.array([1.0]))
d1 = Empirical(np.array([[1.0, 0.0]]), np.array([1.0]))
ex = Direction(np.array([1.0, 0.0]))
print("\npoint masses at 0 and 1 along e1:")
print("  ks =", ks_distance(project(d0, ex), project(d1, ex)))
print("  w1 =", wasserstein1(project(d0, ex), project(d1, ex)))

# --- empirical projections converge at the usual sqrt(n) rate ---------------
g = Gaussian.standard(2)
sequence = [sample(g, n, seed=i) for i, n in enumerate((100, 1_000, 10_000, 100_000))]
reference = sample(g, 500_000, seed=99)

trace = distance_trace(sequence, reference, u, metric="ks")
print("\nKS trace of Gaussian samples against a large Gaussian reference:")
for idx, n, dist in trace.entries:
    print(f"  element {idx}: n = {n:>6}, ks = {dist:.4f}, n^0.5 * ks = {np.sqrt(n) * dist:.2f}")
print("(the scaled column hovering around a constant is the DKW rate at work)")

# --- the same trace under W1 picks up first-moment information --------------
w1_trace = distance_trace(sequence, reference, u, metric="w1")
print("\nsame sequence under W1:", [round(d, 4) for d in w1_trace.distances.tolist()])

# --- a sequence that converges to the wrong target stalls -------------------
shifted = Empirical(reference.points + np.array([0.5, 0.0]), label="shifted")
stall = distance_trace(sequence, shifted, ex, metric="ks")
print("\nKS against a target shifted by 0.5 along e1:",
      [round(d, 4) for d in stall.distances.tolist()])
print("the floor near 2*Phi(0.25)-1 = 0.197 is the true KS distance between the laws")
