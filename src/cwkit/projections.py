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

<u, x> is computed in one place, ``_projection``, for every stage, and a
1-D law is one record, ``Projected1D``: the kernel reads it, and one
builder, ``_law``, fills it for the h1 pass and the constructor alike. The
constructor builds from copies of its inputs; the h1 pass hands ``_law`` the
fresh projected column itself. ``project`` is the constructor on a
projected column. ``_law`` sorts the values once: a sample's column (mass
1/n per value, ``weights=None``) in place, as no permutation needs to
follow, every other column by an argsort that carries its masses, stable
only when values merge.

KS searches the atoms of the law S of fewer atoms in the other law, L, a large
S only in the blocks of atoms that can hold the sup, blocks of about
sqrt(n_S) / 6 atoms (``_block_size``), and reads each law's own cumulative
mass there, with no pooled grid; a pooled pair within MERGE_TOL
takes one grouped fallback on that grid. Every KS result is bit-identical to
pooling both laws and sorting them together (``ks_distance``).

W1 is the quantile integral, the integral over t in [0, 1] of
|F_a^-1(t) - F_b^-1(t)| (Bobkov and Ledoux, Mem. AMS 2019). Both quantile
functions are constant on each piece of [0, 1] between the two laws'
cumulative masses, so the pieces and each law's atom on them depend on the
masses alone: W1 ranks no values and builds no pooled grid. It is
1-Lipschitz in the atoms, so two atoms of the two laws within MERGE_TOL move
it by at most MERGE_TOL times their mass: it takes no grouped fallback and
agrees with the pooled x-space sum to that and rounding, not bit for bit.

``distance_traces`` makes all of a run's h1 distances in one pass. Along each
direction it projects and accumulates the target once. A sample whose
projection merges no atoms has cumulative masses that depend on n alone;
the pass builds them once per n, and W1's pieces for two such laws once per
pair of sizes, and drops both when it returns. An exact measure whose
masses all equal 1/n is the same law as the sample of its atoms, and the
pass reads it as one.

Directions still go one at a time. One GEMM over all directions was
measured against the per-direction matrix-vector products it would replace
(four sources of 161 000 points in d = 3, 100 directions, one BLAS thread on
a 2-vCPU Xeon): 0.043 s against 0.034 s, or 0.141 s with the contiguous
column copies that sorting needs. Its columns also differ from the
matrix-vector products in the last bit, which would change verdict bytes.
"""

import hashlib
from dataclasses import dataclass, field

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
    kind = "atomic"

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        rows = "n" if self.weights is None else "k"
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError(f"points must be a nonempty {rows} x d array, d >= 1")
        if self.weights is None:
            if not np.all(np.isfinite(p)):
                raise ValueError("points must be finite")
        else:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (p.shape[0],):
                raise ValueError("need one weight per atom")
            if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w))):
                raise ValueError("atoms must be finite")
            _unit_masses(w)
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

    def expect(self, values):
        """Integral of per-point values along the last axis: the sample mean,
        or the weighted sum. Each row of a 2-D block is integrated on its own,
        bit-equal to integrating it alone.

        Every integral over a point cloud goes through here. Both cases are
        one ``np.add.reduce``, numpy's pairwise summation, never a BLAS dot
        product: OpenBLAS splits a long dot across threads and rounds it
        differently at each thread count, so reports would depend on the
        machine's thread setting. The mean is that sum divided by n, the
        arithmetic of ``np.mean`` without its per-call wrapper, and so
        bit-equal to it; a boolean mask sums as an exact integer count.
        """
        if self.weights is None:
            return np.add.reduce(values, axis=-1) / self.n
        return np.add.reduce(self.weights * values, axis=-1)

    def draw(self, rng, n):
        """n rows of an exact measure by one ``rng.choice``; a sample is not a law to draw from."""
        if self.weights is None:
            raise TypeError("an unweighted sample is not a law to draw from: give weights")
        return self.points[rng.choice(self.n, size=n, p=self.weights)]

    def carleman(self):
        # the law of a point cloud has compact support, whatever population a sample came from
        if self.weights is not None:
            return "diverging", "exact finite measure: compact support"
        return "diverging", "sample: its own law has compact support, not its population's"

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
    # than MERGE_TOL apart; weights may hold one row of masses per law
    starts = np.flatnonzero(np.concatenate(([True], np.diff(values) > MERGE_TOL)))
    return values[starts], np.add.reduceat(weights, starts, axis=-1)


def _unit_masses(w):
    # strictly positive masses summing to 1 within MASS_TOL; returns w
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    if abs(w.sum() - 1.0) > MASS_TOL:
        raise ValueError(f"weights sum to {w.sum()!r}, not 1 within {MASS_TOL}")
    return w


@dataclass(frozen=True, eq=False)
class Projected1D:
    """A 1-D atomic law: strictly increasing values more than MERGE_TOL
    apart (``wide`` if all are more than 2 * MERGE_TOL apart), positive masses
    summing to 1, and ``cum``, the cumulative masses ``_cum0`` gives.
    ``weights=None`` means mass 1/n on each of n values, as for a sample;
    ``masses()`` reads either form.

    The constructor takes values in any order with their masses, checks
    them and builds the law from copies through ``_law``, the h1 pass's sort
    and merge: values at most MERGE_TOL apart become one atom at the
    smallest of them, carrying their summed mass. Every array is read-only.
    """

    values: np.ndarray
    weights: np.ndarray | None = None
    cum: np.ndarray = field(init=False, repr=False)
    wide: bool = field(init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)  # a copy: a sample's is sorted in place
        w = None if self.weights is None else np.asarray(self.weights, dtype=np.float64)
        if v.ndim != 1 or v.size < 1 or (w is not None and v.shape != w.shape):
            raise ValueError("values and weights must be matching 1-D arrays")
        if w is not None and not np.all(np.isfinite(w)):
            raise ValueError("atoms must be finite")
        law = _law(v, w, {})  # w needs no copy: _law's argsort makes new arrays
        for name in ("values", "weights", "cum", "wide"):
            object.__setattr__(self, name, getattr(law, name))

    def masses(self):
        """The weights, or with ``weights=None`` the float 1/n, the value that
        np.full(n, 1 / n) holds in every place."""
        return 1.0 / self.values.size if self.weights is None else self.weights


def _projection(source, u):
    # <u, x> for every row of source, in row order: a fresh array
    if source.dim != u.dim:
        raise DimensionMismatch(f"source dim {source.dim} != direction dim {u.dim}")
    return source.points @ u.coords


def project(source, u):
    """Push an Empirical forward under x -> <u, x>."""
    return Projected1D(_projection(source, u), source.weights)


def _cum0(weights):
    # 0.0, then the running sums of weights: the CDF just before each atom,
    # and after the last
    cum = np.empty(weights.size + 1)
    cum[0] = 0.0
    np.cumsum(weights, out=cum[1:])
    return cum


def _filled(values, weights, cum, gap):
    # the Projected1D of arrays _law made, as they are, read-only; gap: the
    # least step between values (inf for one value, NaN after a NaN)
    law = object.__new__(Projected1D)
    for name, arr in (("values", values), ("weights", weights), ("cum", cum)):
        if arr is not None:
            arr.flags.writeable = False
        object.__setattr__(law, name, arr)
    object.__setattr__(law, "wide", bool(gap > 2 * MERGE_TOL))
    return law


def _law(column, weights, uniform):
    """The ``Projected1D`` of values whose rows carry ``weights``, or mass 1/n
    each when ``weights`` is None (a sample's column, sorted in place).

    A sample's masses are all equal, so no permutation needs to follow its
    sort. Weighted values are sorted by numpy's default argsort, which
    carries their weights and leaves the inputs as they are. Sorted values
    whose least step is at most MERGE_TOL are sorted again by a stable
    argsort, because the order among ties decides a merged atom's summed
    mass; spaced values are distinct, so any sort gives the same permutation.
    The least step also shows whether the law is ``wide``. The sorted ends
    show whether the law is finite (NaN sorts last), then the weights pass
    the mass check. Values that merge become ``_merge_sorted``'s atoms.
    Otherwise no merge means strictly increasing values: weighted values keep
    their sorted weights, and a sample's cumulative masses depend on n alone,
    so they are taken from ``uniform`` (n -> masses), filled on first use.
    """
    if weights is None:
        column.sort()
        gap = np.diff(column).min(initial=np.inf)
    else:
        order = np.argsort(column)
        gap = np.diff(column[order]).min(initial=np.inf)
        if not gap > MERGE_TOL:
            order = np.argsort(column, kind="stable")
        column, weights = column[order], weights[order]
    if not (np.isfinite(column[0]) and np.isfinite(column[-1])):
        raise ValueError("atoms must be finite")
    if weights is not None:
        _unit_masses(weights)
    if not gap > MERGE_TOL:
        masses = np.full(column.size, 1.0 / column.size) if weights is None else weights
        values, masses = _merge_sorted(column, masses)
        return _filled(values, masses, _cum0(masses), np.diff(values).min(initial=np.inf))
    if weights is not None:
        return _filled(column, weights, _cum0(weights), gap)
    n = column.size
    if n not in uniform:
        uniform[n] = _cum0(_unit_masses(np.full(n, 1.0 / n)))
    return _filled(column, None, uniform[n], gap)


def _block_size(n):
    """Atoms per block of KS's blocked search of a law S of n atoms: the power
    of two nearest sqrt(n) / 6 on a log scale, at most 32, or 0 (no blocks)
    below 288 atoms, where the rule gives fewer than 4.

    The power of two nearest sqrt(n) / 6 is the largest B with 18 B^2 <= n,
    so the rule steps to 4, 8, 16 and 32 at 288, 1 152, 4 608 and 18 432
    atoms, in integers. Timed per pair at one core, the fastest block grows
    with S: larger blocks leave fewer first atoms to search, smaller ones
    fewer atoms in each block the bound keeps, and the two balance near
    sqrt(n) / 6. Blocks of 64 won no clear case against 32 up to 10^5 atoms.
    """
    block = min(32, 1 << max(0, (n // 18).bit_length() - 1) // 2)
    return block if block >= 4 else 0


def _near_across(small, large, below):
    # whether one of the given atoms of S lies within MERGE_TOL of its nearest
    # atom of L; below[i] counts L's atoms below small[i], clipped at L's ends
    right = np.abs(large.take(below, mode="clip") - small)
    left = np.abs(large.take(below - 1, mode="clip") - small)
    return bool(min(right.min(initial=np.inf), left.min(initial=np.inf)) <= MERGE_TOL)


def _grouped(small, large, below):
    """F_S - F_L just after each point of the pooled grid, pooled atoms
    within MERGE_TOL grouped as within one law: the pooled reference itself.

    A group's masses are summed before the running sum, which can round
    apart from the run ends the searches read, so a near pooled pair at a
    searched atom comes here. An atom of S sits at its own rank plus
    ``below``, before an equal atom of L; L fills the free slots in order.
    """
    n = small.values.size + large.values.size
    pos_s = np.arange(small.values.size)
    pos_s += below  # in place: a fresh temporary here costs page faults
    free = np.ones(n, dtype=bool)
    free[pos_s] = False
    values = np.empty(n)
    values[pos_s] = small.values
    values[free] = large.values
    w = np.zeros((2, n))
    w[0, pos_s] = small.masses()
    w[1, free] = large.masses()
    ws, wl = _merge_sorted(values, w)[1]
    return np.cumsum(ws) - np.cumsum(wl)


def _full(small, large):
    # F_S - F_L's extremes from a search of every atom of S (or the grouped grid)
    below = np.searchsorted(large.values, small.values)
    if _near_across(small.values, large.values, below):
        gaps = _grouped(small, large, below)
        return gaps.max(), gaps.min()
    cum_large = large.cum[below]  # F_L just before each atom of S
    top = (small.cum[1:] - cum_large).max()
    return top, min((small.cum[:-1] - cum_large).min(), small.cum[-1] - large.cum[-1])


def _blocked(small, large, block):
    # the same from the blocks of ``block`` atoms that can hold the sup (see
    # ks_distance), or None when an atom searched lies within MERGE_TOL of an
    # atom of L
    s, cs, cl = small.values, small.cum, large.cum
    firsts, before, after = s[::block], cs[:-1:block], cs[1::block]
    below = np.searchsorted(large.values, firsts)
    if _near_across(firsts, large.values, below):
        return None
    cum_large = cl[below]
    top = (after - cum_large).max()
    bottom = min((before - cum_large).min(), cs[-1] - cl[-1])
    # a block holds gaps up to F_S at the next block's first atom less F_L at
    # its own first atom, and down to F_S before its first atom less F_L at
    # the next block's; past the last block, F_S and F_L are all of S and L
    bound = np.empty(firsts.size)
    np.maximum(cs[block::block][:bound.size - 1] - cum_large[:-1],
               cum_large[1:] - before[:-1], out=bound[:-1])
    bound[-1] = max(cs[-1] - cum_large[-1], cl[-1] - before[-1])
    # every atom of the blocks whose bound beats the best gap at the first
    # atoms and the end; a short last block repeats its last atom, which
    # moves no extreme
    atoms = (np.flatnonzero(bound > max(top, -bottom))[:, None] * block + np.arange(block)).ravel()
    atoms = np.minimum(atoms, s.size - 1)
    below = np.searchsorted(large.values, s[atoms])
    if _near_across(s[atoms], large.values, below):
        return None
    cum_large = cl[below]
    return (cs[atoms + 1] - cum_large).max(initial=top), (cs[atoms] - cum_large).min(initial=bottom)


def ks_distance(a, b):
    """Exact sup distance between the two right-continuous CDFs; in [0, 1].

    KS is symmetric, so the law S of fewer atoms is ranked in the other, L.
    F_S - F_L is largest just after an atom of S and smallest just before
    one, or after the last: between two atoms of S, F_S stays and F_L grows.
    Both ``cum`` arrays, running sums of positive masses, are nondecreasing
    in floating point too, and subtraction is monotone, so these run ends
    hold the exact extremes over the pooled grid.

    With both laws ``wide`` and S of 288 atoms or more, S is cut into blocks
    of ``_block_size`` atoms, 4 to 32 as S grows. Block [i0, i1) of S holds
    gaps in [cs[i0] - cl[b1], cs[i1] - cl[b0]] only, b0 and b1 counting L's
    atoms below atoms i0 and i1 (all of L past the end). Only blocks whose
    bound beats the best |gap| at the blocks' first atoms and the end are
    searched: the same floats, so the same maximum, at any block length. A near
    pooled pair at a searched atom sends the pair to the full search and the
    grouped grid. One elsewhere cannot move the result: a pooled group of
    wide laws holds at most one atom of each, so grouped running sums equal
    each law's own ``cum``, and stay within the block's bound.
    """
    small, large = (a, b) if a.values.size <= b.values.size else (b, a)
    block = _block_size(small.values.size) if small.wide and large.wide else 0
    top, bottom = (block and _blocked(small, large, block)) or _full(small, large)
    # max |gap| as max(max, -min), with no array of absolute values; cumulative
    # weights may end at 1 +- a few ulp, and the sup of a CDF gap cannot exceed 1
    return float(min(1.0, max(top, -bottom)))


def _quantile_plan(cum_a, cum_b):
    # the pieces [t_r, t_r+1) between both laws' interior cumulative masses,
    # clipped into [0, 1] (masses sum to 1 only within MASS_TOL), and each law's
    # atom on each: (ia, ib, dt). A stable argsort merges the two sorted runs;
    # each t_r ends a run of equal masses, and the places up to it hold the 0,
    # ia of a's masses (as searchsorted(side="right") counts) and ib of b's
    grid = np.concatenate(([0.0], cum_a[1:-1], cum_b[1:-1], [1.0])).clip(0.0, 1.0)
    order = np.argsort(grid, kind="stable")
    grid = grid[order]
    ends = np.flatnonzero(np.not_equal(grid[1:], grid[:-1]))
    ia = np.cumsum(order <= cum_a.size - 2)[ends] - 1
    return ia, ends - ia, np.diff(np.append(grid[ends], grid[-1]))


def _w1(a, b, plans):
    # two laws of mass 1/n each have the cumulative masses of their sizes, so
    # their plan is kept in plans under (n_a, n_b); any other pair makes its own
    key = (a.values.size, b.values.size)
    if a.weights is not None or b.weights is not None:
        plans = {}
    if key not in plans:
        plans[key] = _quantile_plan(a.cum, b.cum)
    ia, ib, dt = plans[key]
    gaps = a.values[ia]
    gaps -= b.values[ib]
    np.abs(gaps, out=gaps)
    gaps *= dt
    return float(np.sum(gaps))


def wasserstein1(a, b):
    """Exact 1-Wasserstein distance, the quantile integral: |x_a - x_b| times
    the width of each piece of [0, 1] between the laws' cumulative masses, on
    which their quantile functions are x_a and x_b, summed in grid order.
    Swapping the laws changes no bit."""
    return _w1(a, b, {})


@dataclass(frozen=True, eq=False)
class DistanceTrace:
    """Distances of projected sequence elements to a projected target, one
    entry per element; ``entries`` numbers the elements 1..len(sequence)."""

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
    def entries(self):
        return list(zip(range(1, self.sizes.size + 1), self.sizes.tolist(),
                        self.distances.tolist()))


def distance_traces(sequence, target, directions, metric="ks"):
    """The distance trace of the sequence to the target along each direction.

    One pass: along each direction the target is projected once; unmerged
    samples' cumulative masses are built once per size n, and W1's plan of two
    such laws once per (n_a, n_b), for the whole pass, then dropped with it.
    An exact measure whose masses all equal 1/n takes the sample's path.
    Each distance equals ``ks_distance`` or ``wasserstein1`` of the
    ``project``-ed laws, bit for bit.
    """
    if not sequence:
        raise ValueError("sequence must be nonempty")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    uniform, plans = {}, {}
    fn = ks_distance if metric == "ks" else lambda a, b: _w1(a, b, plans)
    sizes = np.asarray([elem.n for elem in sequence])
    # masses all exactly 1/n: the sample of the same atoms, bit for bit
    weights = [None if w is not None and np.all(w == 1.0 / w.size) else w
               for w in [target.weights] + [elem.weights for elem in sequence]]
    traces = []
    for u in directions:
        proj_target = _law(_projection(target, u), weights[0], uniform)
        dists = [fn(_law(_projection(elem, u), w, uniform), proj_target)
                 for elem, w in zip(sequence, weights[1:])]
        traces.append(DistanceTrace(direction=u, metric=metric, sizes=sizes,
                                    distances=np.asarray(dists)))
    return traces


def distance_trace(sequence, target, u, metric="ks"):
    """Distance of each projected sequence element to the projected target."""
    return distance_traces(sequence, target, [u], metric)[0]
