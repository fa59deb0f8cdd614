"""Projection of d-dimensional measures to 1-D laws, and exact distances.

Every d-dimensional input is an ``Empirical`` point cloud: without weights
an i.i.d. sample (mass 1/n per row, moments known up to Monte-Carlo error),
with weights an exact finite measure. ``SampleSet`` and ``AtomicMeasure``
are older names for the same type.

All 1-D laws are finite atomic measures. Values closer than MERGE_TOL are
considered the same atom; that tolerance is the single equality notion for
1-D laws package-wide. Distances are computed exactly on the merged atom
grid, with no binning.

Each projected law is sorted once, when it is built: a sample's projection
by one ``np.sort`` (its masses are all equal, so no permutation needs to
follow), a weighted measure's by a stable argsort that carries its weights.
KS and W1 then merge the two sorted laws by ``searchsorted`` without
sorting again, and skip the grouping step when no two pooled atoms lie
within MERGE_TOL. Every result is bit-identical to pooling both laws and
sorting them together, so verdict reports do not change.

The kernel stays one direction at a time. One GEMM over all directions was
measured against the per-direction matrix-vector products it would replace
(four sources of 161 000 points in d = 3, 100 directions, one BLAS thread on
a 2-vCPU Xeon): 0.043 s against 0.034 s, or 0.141 s with the contiguous
column copies that sorting needs. Its columns also differ from the
matrix-vector products in the last bit, which would change verdict bytes.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .directions import _freeze
from .errors import DimensionMismatch

MERGE_TOL = 1e-12
MASS_TOL = 1e-12

METRICS = ("ks", "w1")


@dataclass(frozen=True, eq=False)
class Empirical:
    """A finite point cloud in R^d: n x d points, optionally weighted.

    With ``weights=None`` it is an i.i.d. sample, the empirical measure with
    mass 1/n per row; duplicate rows are allowed and its moments carry
    Monte-Carlo error. With weights it is an exact finite measure: strictly
    positive weights summing to 1 on pairwise distinct atoms.
    """

    points: np.ndarray
    weights: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        rows = "n" if self.weights is None else "k"
        if p.ndim != 2 or p.shape[0] < 1:
            raise ValueError(f"points must be a nonempty {rows} x d array")
        if self.weights is None:
            if not np.all(np.isfinite(p)):
                raise ValueError("points must be finite")
        else:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (p.shape[0],):
                raise ValueError("need one weight per atom")
            if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w))):
                raise ValueError("atoms must be finite")
            if np.any(w <= 0.0):
                raise ValueError("weights must be strictly positive")
            if abs(w.sum() - 1.0) > MASS_TOL:
                raise ValueError(f"weights sum to {w.sum()!r}, not 1 within {MASS_TOL}")
            if np.unique(p, axis=0).shape[0] != p.shape[0]:
                raise ValueError("atoms must be pairwise distinct")
            object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "points", _freeze(p))

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def mass(self):
        """Mass of each point: the weights, or 1/n per row for a sample."""
        return np.full(self.n, 1.0 / self.n) if self.weights is None else self.weights

    def expect(self, values):
        """Integral of per-point values: the sample mean, or the weighted sum.

        Every integral over a point cloud goes through here. Both cases use
        numpy's pairwise summation, never a BLAS dot product: OpenBLAS splits
        a long dot across threads and rounds it differently at each thread
        count, so reports would depend on the machine's thread setting.
        """
        return np.mean(values) if self.weights is None else np.sum(self.weights * values)

    def digest(self):
        """SHA-256 of the points, then of the label (sample) or weights (measure)."""
        h = hashlib.sha256()
        h.update(str(self.points.shape).encode())
        h.update(self.points.tobytes())
        h.update(self.label.encode() if self.weights is None else self.weights.tobytes())
        return h.hexdigest()


SampleSet = Empirical
AtomicMeasure = Empirical


def _merge_sorted(values, weights):
    # group consecutive sorted values whose gap is <= MERGE_TOL; representative
    # is the weighted mean, so representatives stay strictly increasing
    apart = np.diff(values) > MERGE_TOL
    if apart.all():
        # every group holds one value: reduceat would be the identity, but
        # v * w / w is not always v, and the representative keeps that rounding
        return values * weights / weights, weights
    starts = np.flatnonzero(np.concatenate(([True], apart)))
    wsum = np.add.reduceat(weights, starts)
    vsum = np.add.reduceat(values * weights, starts)
    return vsum / wsum, wsum


@dataclass(frozen=True, eq=False)
class Projected1D:
    """A 1-D atomic law: strictly increasing values, positive weights, mass 1."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if v.ndim != 1 or v.shape != w.shape or v.size < 1:
            raise ValueError("values and weights must be matching 1-D arrays")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
            raise ValueError("atoms must be finite")
        if np.any(np.diff(v) <= 0.0):
            raise ValueError("values must be strictly increasing")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1 within {MASS_TOL}")
        object.__setattr__(self, "values", _freeze(v))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def n_atoms(self):
        return self.values.size

    @classmethod
    def from_raw(cls, values, weights):
        values = np.asarray(values, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        order = np.argsort(values, kind="stable")
        v, w = _merge_sorted(values[order], weights[order])
        return cls(v, w)


def project(source, u):
    """Push an Empirical forward under x -> <u, x>."""
    if source.dim != u.dim:
        raise DimensionMismatch(f"source dim {source.dim} != direction dim {u.dim}")
    if source.weights is not None:
        return Projected1D.from_raw(source.points @ u.coords, source.weights)
    # equal masses: the sorting permutation cannot change a bit, so no argsort
    return Projected1D(*_merge_sorted(np.sort(source.points @ u.coords), source.mass))


def _merged_cdfs(a, b):
    # pooled atom grid (merged within MERGE_TOL) with both cumulative masses.
    # Both laws are strictly increasing, so an atom's pooled position is its
    # own rank plus the number of the other law's atoms before it; an a-atom
    # goes before an equal b-atom, the order a stable sort of a ++ b gives.
    # Only the smaller law is searched: the other fills the free slots in order.
    n = a.n_atoms + b.n_atoms
    free = np.ones(n, dtype=bool)
    if a.n_atoms <= b.n_atoms:
        pos_a = np.arange(a.n_atoms) + np.searchsorted(b.values, a.values, "left")
        free[pos_a] = False
        pos_b = np.flatnonzero(free)
    else:
        pos_b = np.arange(b.n_atoms) + np.searchsorted(a.values, b.values, "right")
        free[pos_b] = False
        pos_a = np.flatnonzero(free)
    values = np.empty(n)
    values[pos_a] = a.values
    values[pos_b] = b.values
    wa = np.zeros(n)
    wa[pos_a] = a.weights
    wb = np.zeros(n)
    wb[pos_b] = b.weights
    apart = np.diff(values) > MERGE_TOL
    if apart.all():
        # one atom per group: reduceat and the division by 1 are identities
        return values, np.cumsum(wa), np.cumsum(wb)
    starts = np.flatnonzero(np.concatenate(([True], apart)))
    grid = np.add.reduceat(values, starts) / np.diff(np.append(starts, values.size))
    cum_a = np.cumsum(np.add.reduceat(wa, starts))
    cum_b = np.cumsum(np.add.reduceat(wb, starts))
    return grid, cum_a, cum_b


def ks_distance(a, b):
    """Exact sup distance between the two right-continuous CDFs; in [0, 1]."""
    _, cum_a, cum_b = _merged_cdfs(a, b)
    # cumulative weights may end at 1 +- a few ulp; the sup of a CDF gap
    # cannot exceed 1
    return float(min(1.0, np.max(np.abs(cum_a - cum_b))))


def wasserstein1(a, b):
    """Exact 1-Wasserstein distance: integral of |F_a - F_b| over the grid."""
    grid, cum_a, cum_b = _merged_cdfs(a, b)
    if grid.size == 1:
        return 0.0
    return float(np.sum(np.abs(cum_a[:-1] - cum_b[:-1]) * np.diff(grid)))


_METRIC_FNS = {"ks": ks_distance, "w1": wasserstein1}


@dataclass(frozen=True, eq=False)
class DistanceTrace:
    """Distances of projected sequence elements to a projected target, one
    entry per element; ``indices`` numbers the elements 1..len(sequence)."""

    direction: object
    metric: str
    sizes: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        sz = np.array(self.sizes, dtype=np.int64)  # a copy: _freeze would make it float
        sz.flags.writeable = False
        dist = np.asarray(self.distances, dtype=np.float64)
        if sz.shape != dist.shape or sz.ndim != 1 or sz.size < 1:
            raise ValueError("sizes and distances must be matching 1-D arrays")
        if np.any(dist < 0.0):
            raise ValueError("distances must be nonnegative")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        object.__setattr__(self, "sizes", sz)
        object.__setattr__(self, "distances", _freeze(dist))

    @property
    def indices(self):
        return np.arange(1, self.distances.size + 1)

    @property
    def entries(self):
        return list(zip(self.indices.tolist(), self.sizes.tolist(), self.distances.tolist()))


def distance_trace(sequence, target, u, metric="ks"):
    """Distance of each projected sequence element to the projected target."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    fn = _METRIC_FNS[metric]
    proj_target = project(target, u)
    sizes = []
    dists = []
    for elem in sequence:
        dists.append(fn(project(elem, u), proj_target))
        sizes.append(elem.n)
    return DistanceTrace(
        direction=u,
        metric=metric,
        sizes=np.asarray(sizes),
        distances=np.asarray(dists),
    )
