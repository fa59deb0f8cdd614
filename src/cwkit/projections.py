"""Projection of d-dimensional measures to 1-D laws, and exact distances.

Every d-dimensional input is an ``Empirical`` point cloud: without weights
an i.i.d. sample (mass 1/n per row, moments known up to Monte-Carlo error),
with weights an exact finite measure. ``SampleSet`` and ``AtomicMeasure``
are older names for the same type.

All 1-D laws are finite atomic measures. Sorted values at most MERGE_TOL
apart are one atom, the single equality notion for 1-D laws package-wide;
a merged atom sits at its group's first (smallest) value with the group's
summed mass. So every atom is a data value, atoms stay strictly increasing
at any offset, and distances are computed exactly on that grid, unbinned.

Each projected law is sorted once, when it is built: a sample's projection
in place (its masses are all equal, so no permutation needs to follow), a
weighted measure's by a stable argsort that carries its weights. The
arrays the kernel makes are frozen where they are, not copied again.

Both distances are symmetric, so each searches the law S of fewer atoms
into the other law L once. KS builds no pooled grid: F_S - F_L takes its
extremes at the ends of the runs that S's atoms form between L's, so it
reads each law's own cumulative mass there. W1 turns the same search into
pooled positions, because its sum runs in pooled order, and reads the same
cumulative masses. When two pooled atoms lie within MERGE_TOL, both take one
grouped fallback on the pooled grid. Every result is bit-identical to
pooling both laws and sorting them together, so verdict reports do not
change.

``distance_traces`` makes all of a run's h1 distances in one pass. Along each
direction it projects and accumulates the target once. A sample whose
projection merges no atoms has cumulative masses that depend on n alone;
the pass builds them once per n, drops them when it returns, and does not
re-check the laws it makes itself.

Directions still go one at a time. One GEMM over all directions was
measured against the per-direction matrix-vector products it would replace
(four sources of 161 000 points in d = 3, 100 directions, one BLAS thread on
a 2-vCPU Xeon): 0.043 s against 0.034 s, or 0.141 s with the contiguous
column copies that sorting needs. Its columns also differ from the
matrix-vector products in the last bit, which would change verdict bytes.
"""

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

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
    # group consecutive sorted values whose gap is <= MERGE_TOL; a group sits
    # at its first value with its summed mass, so atoms are data values more
    # than MERGE_TOL apart. Both callers pass fresh arrays, frozen in place.
    apart = np.diff(values) > MERGE_TOL
    if not apart.all():
        starts = np.flatnonzero(np.concatenate(([True], apart)))
        values = values[starts]
        weights = np.add.reduceat(weights, starts)
    values.flags.writeable = False
    weights.flags.writeable = False
    return values, weights


def _keep_frozen(a):
    # the kernel's fresh arrays arrive read-only and owning their memory, so
    # no view can write to them; anything else is copied and frozen
    if a.dtype == np.float64 and a.flags.owndata and not a.flags.writeable:
        return a
    return _freeze(a)


@dataclass(frozen=True, eq=False)
class Projected1D:
    """A 1-D atomic law: strictly increasing values, positive weights, mass 1.

    The law keeps read-only copies of its arrays. A float64 array that is
    already read-only and owns its memory, as ``project`` makes them, is kept
    without a copy: the law then relies on its owner never making it
    writable again.
    """

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = _keep_frozen(np.asarray(self.values, dtype=np.float64))
        w = _keep_frozen(np.asarray(self.weights, dtype=np.float64))
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
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self):
        return self.values.size

    @classmethod
    def from_raw(cls, values, weights):
        values = np.asarray(values, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        order = np.argsort(values, kind="stable")
        return cls(*_merge_sorted(values[order], weights[order]))


def _projection(source, u):
    # <u, x> for every row of source, in row order: a fresh array
    if source.dim != u.dim:
        raise DimensionMismatch(f"source dim {source.dim} != direction dim {u.dim}")
    return source.points @ u.coords


def project(source, u):
    """Push an Empirical forward under x -> <u, x>."""
    v = _projection(source, u)
    if source.weights is not None:
        return Projected1D.from_raw(v, source.weights)
    # equal masses: the sorting permutation cannot change a bit, so no argsort
    v.sort()
    return Projected1D(*_merge_sorted(v, source.mass))


def _cum0(weights):
    # 0.0, then the running sums of weights: the CDF just before each atom,
    # and after the last
    cum = np.empty(weights.size + 1)
    cum[0] = 0.0
    np.cumsum(weights, out=cum[1:])
    return cum


def _spaced(values):
    # whether sorted values lie more than MERGE_TOL apart, so none would merge
    return bool(np.all(np.diff(values) > MERGE_TOL))


class _Law(NamedTuple):
    """A 1-D law as the distance kernel reads it: strictly increasing values,
    their masses, and the cumulative masses ``_cum0`` gives. ``weights`` is
    None for n atoms of mass 1/n each."""

    values: np.ndarray
    weights: np.ndarray | None
    cum: np.ndarray

    @classmethod
    def of(cls, p):
        return cls(p.values, p.weights, _cum0(p.weights))

    def masses(self):
        # 1/n as one float is the value np.full(n, 1 / n) holds in every place
        return 1.0 / self.values.size if self.weights is None else self.weights


def _uniform_cum(n):
    # the cumulative masses of n atoms of 1/n each, after Projected1D's mass check
    w = np.full(n, 1.0 / n)
    if abs(w.sum() - 1.0) > MASS_TOL:
        raise ValueError(f"weights sum to {w.sum()!r}, not 1 within {MASS_TOL}")
    return _cum0(w)


def _law_along(source, u, uniform):
    """The law of source projected along u, as ``project`` makes it.

    A sample whose sorted projection merges no atoms skips ``Projected1D``:
    its ends show whether it is finite (NaN sorts last), no merge means
    strictly increasing values, and its cumulative masses depend on n alone,
    so they are taken from ``uniform`` (n -> masses), filled on first use.
    Every other law is a ``Projected1D`` with all its checks.
    """
    v = _projection(source, u)
    if source.weights is not None:
        return _Law.of(Projected1D.from_raw(v, source.weights))
    v.sort()
    if not (np.isfinite(v[0]) and np.isfinite(v[-1])):
        raise ValueError("atoms must be finite")
    if not _spaced(v):
        return _Law.of(Projected1D(*_merge_sorted(v, source.mass)))
    n = v.size
    if n not in uniform:
        uniform[n] = _uniform_cum(n)
    return _Law(v, None, uniform[n])


def _near_across(small, large, below):
    # whether an atom of small lies within MERGE_TOL of its nearest atom of
    # large on either side; below[i] counts the atoms of large below small[i]
    # and is nondecreasing
    first = np.searchsorted(below, 0, "right")  # from here on, one lies below
    last = np.searchsorted(below, large.size)  # up to here, one lies at or above
    return bool((large[below[:last]] - small[:last] <= MERGE_TOL).any()
                or (small[first:] - large[below[first:] - 1] <= MERGE_TOL).any())


def _search(a, b):
    # both distances are symmetric, since F_S - F_L is exactly -(F_L - F_S);
    # so the law S of fewer atoms is searched into the other, L, once:
    # below[i] counts the atoms of L below the i-th atom of S
    small, large = (a, b) if a.values.size <= b.values.size else (b, a)
    return small, large, np.searchsorted(large.values, small.values)


def _pool(small, large, below):
    """Pooled positions of both laws' atoms, and the pooled values.

    Both laws are strictly increasing, so an atom's pooled position is its
    own rank plus the number of the other law's atoms before it; an atom of
    S goes before an equal atom of L. Only S is searched: L fills the free
    slots in order.
    """
    # Index and gap arithmetic runs in place, here and in _w1: at these sizes
    # each temporary is fresh memory from the OS, whose page faults cost
    # about as much as the arithmetic itself.
    n = small.values.size + large.values.size
    pos_s = np.arange(small.values.size)
    pos_s += below
    free = np.ones(n, dtype=bool)
    free[pos_s] = False
    pos_l = np.flatnonzero(free)
    values = np.empty(n)
    values[pos_s] = small.values
    values[pos_l] = large.values
    return pos_s, pos_l, values


def _grouped(small, large, pos_s, pos_l, values):
    """Steps of the pooled grid and F_S - F_L just after each of its points,
    pooled atoms within MERGE_TOL grouped as within one law.

    This is the pooled reference itself: each group's masses are summed
    before the running sum, which can round apart from the run ends that
    the fast paths read, so every pair with a near pooled pair comes here.
    """
    ws = np.zeros(values.size)
    ws[pos_s] = small.masses()
    wl = np.zeros(values.size)
    wl[pos_l] = large.masses()
    starts = np.flatnonzero(np.concatenate(([True], np.diff(values) > MERGE_TOL)))
    gaps = np.cumsum(np.add.reduceat(ws, starts)) - np.cumsum(np.add.reduceat(wl, starts))
    return np.diff(values[starts]), gaps


def _ks(a, b, near=False):
    """KS distance; ``near`` says a law may hold atoms within MERGE_TOL.

    F_S - F_L is largest just after an atom of S and smallest just before
    one, or after the last atom: between two atoms of S, F_S stays and F_L
    grows. cumsum and subtraction are monotone in floating point too, so the
    ends of these runs hold the exact extremes over the pooled grid, and the
    one search of S into L finds them. Where a pooled pair lies within
    MERGE_TOL, the grouped grid answers.
    """
    small, large, below = _search(a, b)
    if near or _near_across(small.values, large.values, below):
        gaps = _grouped(small, large, *_pool(small, large, below))[1]
        top, bottom = gaps.max(), gaps.min()
    else:
        cum_large = large.cum[below]  # F_L just before each atom of S
        top = (small.cum[1:] - cum_large).max()
        bottom = min((small.cum[:-1] - cum_large).min(), small.cum[-1] - large.cum[-1])
    # max |gap| as max(max, -min), with no array of absolute values;
    # cumulative weights may end at 1 +- a few ulp, and the sup of a CDF gap
    # cannot exceed 1
    return float(min(1.0, max(top, -bottom)))


def _w1(a, b):
    """W1 distance: |F_S - F_L| times each step, summed in pooled order.

    When no two pooled atoms lie within MERGE_TOL no pooled mass is built:
    np.cumsum adds in sequence and adding 0.0 changes nothing, so each law's
    pooled cumulative mass is its own cumsum read at the number of its atoms
    so far.
    """
    small, large, below = _search(a, b)
    pos_s, pos_l, values = _pool(small, large, below)
    steps = np.diff(values)
    if (steps > MERGE_TOL).all():
        dist = values  # the pooled values are spent: F_S - F_L takes their memory
        gaps = large.cum[below]
        np.subtract(small.cum[1:], gaps, out=gaps)
        dist[pos_s] = gaps
        s_before_l = np.arange(large.values.size)
        np.subtract(pos_l, s_before_l, out=s_before_l)
        gaps = small.cum[s_before_l]
        gaps -= large.cum[1:]
        dist[pos_l] = gaps
    else:
        steps, dist = _grouped(small, large, pos_s, pos_l, values)
    np.abs(dist, out=dist)
    np.multiply(dist[:-1], steps, out=steps)
    return float(np.sum(steps))


def ks_distance(a, b):
    """Exact sup distance between the two right-continuous CDFs; in [0, 1]."""
    a, b = _Law.of(a), _Law.of(b)
    # a law built by hand may hold atoms within MERGE_TOL of each other
    return _ks(a, b, near=not (_spaced(a.values) and _spaced(b.values)))


def wasserstein1(a, b):
    """Exact 1-Wasserstein distance: integral of |F_a - F_b| over the grid."""
    return _w1(_Law.of(a), _Law.of(b))


_METRIC_FNS = {"ks": _ks, "w1": _w1}


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


def distance_traces(sequence, target, directions, metric="ks"):
    """The distance trace of the sequence to the target along each direction.

    One pass: along each direction the target is projected once, and the
    cumulative masses of unmerged samples are built once per size n for the
    whole pass, then dropped with it. Each distance equals ``ks_distance`` or
    ``wasserstein1`` of the ``project``-ed laws, bit for bit.
    """
    if not sequence:
        raise ValueError("sequence must be nonempty")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    fn = _METRIC_FNS[metric]
    uniform = {}
    sizes = np.asarray([elem.n for elem in sequence])
    traces = []
    for u in directions:
        proj_target = _law_along(target, u, uniform)
        dists = [fn(_law_along(elem, u, uniform), proj_target) for elem in sequence]
        traces.append(DistanceTrace(direction=u, metric=metric, sizes=sizes,
                                    distances=np.asarray(dists)))
    return traces


def distance_trace(sequence, target, u, metric="ks"):
    """Distance of each projected sequence element to the projected target."""
    return distance_traces(sequence, target, [u], metric)[0]
