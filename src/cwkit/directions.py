"""Unit-sphere geometry: direction sampling, regions, frames.

Directions are unit vectors in R^d (d >= 2). A Region is a subset of the
sphere from which directions are drawn; caps and unions of caps have
positive surface measure, finite sets have measure zero and exist only to
demonstrate what goes wrong without positive measure. A Frame is a set of
d directions whose stacked rows form an invertible matrix.

There is one direction sampler, ``sample_in_region``; uniform sampling on
the whole sphere is the region ``FullSphere(d)``. A Frame is given only its
directions and derives its matrix and conditioning from them.

Regions and directions print (``describe``) and parse (``parse_region``)
here at 17 significant digits, and ``Direction.from_vector`` leaves a unit
vector as it is, so a printed region parses back bit for bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExhausted, InsufficientRank
from .rng import STREAM_MEASURE, STREAM_SPHERE, substream

UNIT_NORM_TOL = 1e-12
DEFAULT_FRAME_TAU = 1e-6


def _freeze(a):
    # always copy: freezing a view of the caller's array would lock it too
    a = np.array(a, dtype=np.float64, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Direction:
    """A unit vector on S^{d-1}, d >= 2. Euclidean norm 1 within 1e-12."""

    coords: np.ndarray

    def __post_init__(self):
        c = _freeze(self.coords)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("a direction needs at least 2 coordinates")
        if not np.all(np.isfinite(c)):
            raise ValueError("direction coordinates must be finite")
        if abs(np.linalg.norm(c) - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"norm {np.linalg.norm(c)!r} is not 1 within {UNIT_NORM_TOL}")
        object.__setattr__(self, "coords", c)

    @property
    def dim(self):
        return self.coords.size

    @classmethod
    def from_vector(cls, v):
        """Normalize a nonzero vector into a Direction; a unit one is kept as is."""
        v = np.asarray(v, dtype=np.float64)
        n = np.linalg.norm(v)
        if n == 0.0 or not np.isfinite(n):
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(v if abs(n - 1.0) <= UNIT_NORM_TOL else v / n)

    def describe(self):
        return ",".join(f"{x:.17g}" for x in self.coords)

    def __repr__(self):
        return f"Direction({np.array2string(self.coords, separator=', ')})"


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FullSphere:
    """The whole sphere S^{d-1}; surface measure 1."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")

    def contains(self, points):
        points = np.asarray(points, dtype=np.float64)
        return np.ones(points.shape[0], dtype=bool)

    def describe(self):
        return f"full:{self.dim}"


@dataclass(frozen=True, eq=False)
class Cap:
    """Spherical cap {u : <axis, u> >= cos(half_angle)}, half_angle in (0, pi]."""

    axis: Direction
    half_angle: float

    def __post_init__(self):
        if not (0.0 < self.half_angle <= np.pi):
            raise ValueError("half_angle must lie in (0, pi]")

    @property
    def dim(self):
        return self.axis.dim

    def contains(self, points):
        if self.half_angle >= np.pi:
            # full sphere; avoid rejecting dot products that round below -1
            return np.ones(np.asarray(points).shape[0], dtype=bool)
        return np.asarray(points, dtype=np.float64) @ self.axis.coords >= np.cos(self.half_angle)

    def describe(self):
        return "cap:" + _cap_spec(self)


@dataclass(frozen=True, eq=False)
class UnionOfCaps:
    """Union of finitely many caps; positive measure."""

    caps: tuple

    def __post_init__(self):
        caps = tuple(self.caps)
        if not caps:
            raise ValueError("need at least one cap")
        dims = {c.dim for c in caps}
        if len(dims) != 1:
            raise ValueError("caps live in different dimensions")
        object.__setattr__(self, "caps", caps)

    @property
    def dim(self):
        return self.caps[0].dim

    def contains(self, points):
        points = np.asarray(points, dtype=np.float64)
        hit = np.zeros(points.shape[0], dtype=bool)
        for cap in self.caps:
            hit |= cap.contains(points)
        return hit

    def describe(self):
        return "union:" + ";".join(map(_cap_spec, self.caps))


@dataclass(frozen=True, eq=False)
class FiniteSet:
    """A finite direction set. Surface measure zero: counterexample fuel only."""

    directions: tuple

    def __post_init__(self):
        dirs = tuple(self.directions)
        if not dirs:
            raise ValueError("finite set must be nonempty")
        dims = {d.dim for d in dirs}
        if len(dims) != 1:
            raise ValueError("directions live in different dimensions")
        object.__setattr__(self, "directions", dirs)

    @property
    def dim(self):
        return self.directions[0].dim

    def describe(self):
        return "finite:" + ";".join(u.describe() for u in self.directions)


def _cap_spec(cap):
    return f"{cap.axis.describe()}:{cap.half_angle:.17g}"


def _parse_cap(spec):
    axis_s, _, angle_s = spec.rpartition(":")
    return Cap(axis=parse_direction(axis_s), half_angle=float(angle_s))


def parse_direction(spec):
    """A Direction from comma-separated coordinates (normalized unless unit)."""
    return Direction.from_vector([float(x) for x in spec.split(",")])


def parse_region(spec, dim_hint=None):
    """The region a spec names, the inverse of ``describe()``: 'full[:D]' (D from
    dim_hint if absent), 'cap:AXIS:ANGLE', 'union:AXIS:ANGLE;...', 'finite:V1;V2;...'."""
    kind, _, rest = spec.partition(":")
    if kind == "full":
        d = int(rest) if rest else dim_hint
        if d is None:
            raise ValueError("region 'full' needs a dimension (full:D) or data to infer it")
        return FullSphere(d)
    if kind == "cap":
        return _parse_cap(rest)
    if kind == "union":
        return UnionOfCaps(tuple(_parse_cap(part) for part in rest.split(";")))
    if kind == "finite":
        return FiniteSet(tuple(parse_direction(part) for part in rest.split(";")))
    raise ValueError(f"unknown region spec {spec!r}")


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Frame:
    """d unit directions in R^d stacked as the rows of an invertible matrix.

    ``matrix`` (row j is direction j, bit for bit) and its smallest singular
    value ``min_singular_value`` are derived from the directions once, at
    construction; they are not arguments. Raises ValueError unless there are
    exactly d directions in R^d, and InsufficientRank when they are
    numerically dependent (smallest singular value <= d * eps * largest).
    """

    directions: tuple
    matrix: np.ndarray = field(init=False)
    min_singular_value: float = field(init=False)

    def __post_init__(self):
        directions = tuple(self.directions)
        m = _freeze(np.vstack([u.coords for u in directions]))
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"a frame needs d directions in R^d, got {m.shape[0]} "
                             f"in R^{m.shape[1]}")
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] <= s[0] * m.shape[0] * np.finfo(np.float64).eps:
            raise InsufficientRank("directions are linearly dependent")
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "min_singular_value", float(s[-1]))

    @property
    def dim(self):
        return len(self.directions)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _draw_unit_rows(rng, n, d):
    # normalized standard normals are uniform on the sphere
    rows = rng.standard_normal((n, d))
    norms = np.linalg.norm(rows, axis=1)
    while np.any(norms < 1e-100):  # probability-zero guard: redraw degenerate rows
        bad = norms < 1e-100
        rows[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(rows, axis=1)
    return rows / norms[:, None]


def sample_uniform(d, count, seed):
    """Draw `count` directions uniformly on S^{d-1}, deterministically in seed:
    ``sample_in_region(FullSphere(d), count, seed)``."""
    return sample_in_region(FullSphere(d), count, seed)


def sample_in_region(region, count, seed, max_draw_budget=None):
    """Rejection-sample `count` directions from a positive-measure region.

    The package's only direction sampler. Proposals are normalized standard
    normals from the seed's sphere stream, drawn in chunks of max(count,
    1024); on FullSphere every proposal is accepted, so the result is the
    first `count` uniform draws. Raises BudgetExhausted when fewer than
    `count` draws are accepted within `max_draw_budget` proposals (default
    10_000 * count), and ValueError when that budget is below 1.
    """
    if isinstance(region, FiniteSet):
        raise ValueError("region has surface measure zero; cannot rejection-sample")
    if count < 1:
        raise ValueError("count must be >= 1")
    if max_draw_budget is not None and max_draw_budget < 1:
        raise ValueError(f"max_draw_budget must be >= 1, got {max_draw_budget!r}")
    budget = int(max_draw_budget) if max_draw_budget is not None else 10_000 * count
    rng = substream(seed, STREAM_SPHERE)
    d = region.dim
    chunk = max(count, 1024)
    accepted = []
    used = 0
    while len(accepted) < count and used < budget:
        take = min(chunk, budget - used)
        rows = _draw_unit_rows(rng, take, d)
        used += take
        hits = rows[region.contains(rows)]
        accepted.extend(hits[: count - len(accepted)])
    if len(accepted) < count:
        raise BudgetExhausted(
            f"accepted {len(accepted)}/{count} directions in {used} draws; "
            "the region is too small for rejection sampling at this budget",
            accepted=len(accepted),
            budget=budget,
        )
    return [Direction(r) for r in accepted]


def region_directions(region, count, seed, max_draw_budget=None):
    """A FiniteSet's directions as given; ``count`` sampled from any other region."""
    return (list(region.directions) if isinstance(region, FiniteSet)
            else sample_in_region(region, count, seed, max_draw_budget))


def region_measure_estimate(region, n, seed):
    """Monte-Carlo estimate of the region's normalized surface measure."""
    if isinstance(region, FiniteSet):
        raise ValueError("region has surface measure zero; cannot rejection-sample")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream(seed, STREAM_MEASURE)
    rows = _draw_unit_rows(rng, n, region.dim)
    return float(np.mean(region.contains(rows)))


def extract_frame(candidates, tau=DEFAULT_FRAME_TAU):
    """Greedily pick d directions whose stacked rows stay well-conditioned.

    Scans candidates in order and accepts one when the smallest singular
    value of the accepted rows remains >= tau. Raises InsufficientRank if
    fewer than d are accepted, i.e. the candidates are numerically contained
    near a proper subspace, and ValueError unless 0 < tau <= 1.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidates must be nonempty")
    # stacked unit rows have smallest singular value at most 1: no tau > 1 is met
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must lie in (0, 1], got {tau!r}")
    d = candidates[0].dim
    accepted = []
    for cand in candidates:
        trial = np.vstack([u.coords for u in accepted] + [cand.coords])
        if float(np.linalg.svd(trial, compute_uv=False)[-1]) >= tau:
            accepted.append(cand)
            if len(accepted) == d:
                return Frame(accepted)
    raise InsufficientRank(
        f"only {len(accepted)} of {d} directions accepted at tau={tau}; "
        "candidates look confined near a proper subspace"
    )


def frame_constant(frame):
    """Constant C with ||x||_2 <= C * sum_j |<u_j, x>| for all x.

    C is the spectral norm of T^{-1} where T stacks the frame rows: the l1
    norm of Tx dominates its l2 norm, and ||x|| <= ||T^{-1}||_op ||Tx||_2.
    """
    return 1.0 / frame.min_singular_value
