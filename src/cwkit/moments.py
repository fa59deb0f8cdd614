"""Moment machinery: Carleman partial sums, directional moments, and the
reconstruction of mixed moments from directional ones.

A 1-D law's moments come as one form, a ``MomentSequence`` of values with
the exact log|m_k| of every order, whether from a sample, an exact measure
or an analytic law. The Carleman scan reads the logs alone, so its answer
does not change when a moment overflows float64 at a large data scale.

The degree-m directional moment of a measure mu is a homogeneous polynomial
in the direction u,

    int <u, x>^m mu(dx) = sum_{|alpha| = m} C(m; alpha) u^alpha mu_alpha,

with multinomial coefficients C(m; alpha) and mixed moments
mu_alpha = int x^alpha mu(dx). Observing the left side along enough
directions therefore determines every mu_alpha by linear least squares;
directions confined to a low-dimensional algebraic set make the system
rank-deficient, which is reported as such rather than silently solved.

Multi-indices are plain int tuples, enumerated in graded lexicographic
order everywhere (grades ascending; within a grade, lexicographically
descending, e.g. d=2, m=2: (2,0), (1,1), (0,2)). A mixed-moment table is
one array in that order, from its build to the moment match; a point
cloud's rows are each an earlier row times one coordinate.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .directions import _freeze
from .errors import OrderExceeded, RankDeficient
from .projections import Empirical, project

#: absolute floor used when validating "nonnegative" empirical even moments
_EVEN_TOL = 1e-12

#: bytes of monomial rows that MixedMoments.from_sample reduces at once
_BLOCK_BYTES = 256 * 1024

CARLEMAN_SLOPE_TOL = 0.05
#: bound on t_M / t_1: each t_m scales by 1/c when the data scale by c, so the ratio has no units
CARLEMAN_CAUCHY_TOL = 1e-9


def jsonsafe(x):
    """Strict-JSON representation of a float: non-finite values as strings."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


# ---------------------------------------------------------------------------
# multi-index helpers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _multi_indices(d, m):
    # counting each draw turns lexicographically ascending draws of m
    # coordinates into lexicographically descending multi-indices
    return tuple(tuple(draw.count(j) for j in range(d))
                 for draw in itertools.combinations_with_replacement(range(d), m))


def multi_indices(d, m):
    """All multi-indices alpha with |alpha| = m, lexicographically descending.

    Each (d, m) is enumerated once and kept in a small cache; every call
    returns a fresh list, so callers may change it freely."""
    if d < 1 or m < 0:
        raise ValueError("need d >= 1 and m >= 0")
    return list(_multi_indices(d, m))


def multi_indices_upto(d, max_order):
    """Graded lexicographic enumeration of all |alpha| <= max_order."""
    return [alpha for m in range(max_order + 1) for alpha in multi_indices(d, m)]


#: parent code in a _factor_walk record: the row made just before
_PREV = -2


@functools.lru_cache(maxsize=64)
def _factor_walk(d, m):
    """Depth-first order of every |alpha| <= m in the tree where alpha != 0
    is a child of alpha - e_j, j its last nonzero coordinate.

    A tuple of one record per alpha, (parent, j, position, keep): the row
    that x_j multiplies (-1 for none, _PREV for the row made just before),
    alpha's position in ``multi_indices_upto(d, m)``, and the row that keeps
    alpha for its later children (-1 for none). Rows number the d coordinate
    rows, then m - 2 stack rows (none at d = 1). alpha = 0 (j = -1) is all
    ones and e_j is x_j, read as row j by its children. A first child,
    alpha + e_j, comes right after alpha; only a row of order 2 to m - 1
    with a later child, alpha + e_k for k > j, is kept, on the stack row of
    its order."""
    position = {alpha: i for i, alpha in enumerate(multi_indices_upto(d, m))}
    walk = [(-1, -1, 0, -1)]

    def visit(alpha, parent, total, first):
        for j in range(first, d):
            child = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:]
            row = _PREV if j == first and total > 1 else parent
            keep = d + total - 1 if 0 < total < m - 1 and j < d - 1 else -1
            walk.append((row, j, position[child], keep))
            if total + 1 < m:
                visit(child, j if total == 0 else keep, total + 1, j)

    if m > 0:
        visit((0,) * d, -1, 0, 0)
    return tuple(walk)


def _order_slice(d, m):
    # where the |alpha| = m entries sit in a graded table: after the
    # C(d + m - 1, d) entries of lower order
    return slice(math.comb(d + m - 1, d), math.comb(d + m, d))


def multinomial(m, alpha):
    """Exact integer multinomial coefficient m! / prod(alpha_i!)."""
    if sum(alpha) != m:
        raise ValueError("alpha must sum to m")
    c = 1
    rest = m
    for a in alpha:
        c *= math.comb(rest, a)
        rest -= a
    return c


def homogeneous_dim(d, m):
    """Number of degree-m monomials in d variables: binom(m+d-1, d-1)."""
    if d < 1 or m < 0:
        raise ValueError("need d >= 1 and m >= 0")
    return math.comb(m + d - 1, d - 1)


# ---------------------------------------------------------------------------
# 1-D moment sequences and the Carleman diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Raw moments m_0..m_K of a 1-D law with their exact logarithms.

    ``log_values[k]`` is log|m_k| at every order, -inf for a zero moment. The
    logs are the form the Carleman scan reads: ``values`` come out +-inf
    where a moment overflows float64 (a heavy-tailed law, or data of a large
    scale), the logs never do.
    """

    values: np.ndarray
    log_values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a nonempty 1-D array")
        if abs(v[0] - 1.0) > 1e-9:
            raise ValueError("m_0 must equal 1")
        ev = v[::2]
        if np.any(ev[np.isfinite(ev)] < -_EVEN_TOL):
            raise ValueError("even raw moments must be nonnegative")
        lv = np.asarray(self.log_values, dtype=np.float64)
        if lv.shape != v.shape:
            raise ValueError("log_values must match values in shape")
        if np.any(np.isnan(lv) | (lv == np.inf)):
            raise ValueError("log_values must be log|m_k|: neither nan nor +inf")
        object.__setattr__(self, "values", _freeze(v))
        object.__setattr__(self, "log_values", _freeze(lv))

    @property
    def max_order(self):
        return self.values.size - 1


def empirical_moments(proj, max_order):
    """Weighted raw moments m_k = sum_i w_i v_i^k of a 1-D law, with exact logs.

    The powers are taken of v / 2^e, with 2^e the power of two above max |v|
    (``np.frexp``), so none overflows; each scaled moment is one pairwise
    sum as in ``Empirical.expect``. Scaling by a power of two does not
    round, so m_k = 2^(k e) times that sum is bit-equal to the sum of the
    powers of v wherever that is finite, and +-inf where float64 overflows;
    log|m_k| = k e log 2 + log|sum| stays finite (-inf for a zero moment).
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    _, e = np.frexp(np.max(np.abs(proj.values)))
    scaled = np.ldexp(proj.values, -e)
    sums = np.empty(max_order + 1)
    sums[0] = 1.0
    power = np.ones_like(scaled)
    for k in range(1, max_order + 1):
        power = power * scaled
        sums[k] = float(np.sum(power * proj.masses()))
    orders = np.arange(max_order + 1)
    with np.errstate(over="ignore", divide="ignore"):
        return MomentSequence(values=np.ldexp(sums, orders * e),
                              log_values=orders * e * math.log(2.0) + np.log(np.abs(sums)))


@dataclass(frozen=True, eq=False)
class CarlemanReport:
    """Partial sums of the (m_{2m})^{-1/(2m)} series plus a finite-M verdict.

    verdict is one of 'diverging' (Carleman condition looks satisfied),
    'converging' (it looks violated), or 'inconclusive'.
    """

    terms: np.ndarray
    partial_sums: np.ndarray
    verdict: str
    slope_statistic: float
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "terms", _freeze(self.terms))
        object.__setattr__(self, "partial_sums", _freeze(self.partial_sums))

    def to_dict(self):
        return {
            "terms": [jsonsafe(t) for t in self.terms],
            "partial_sums": [jsonsafe(s) for s in self.partial_sums],
            "verdict": self.verdict,
            "slope_statistic": jsonsafe(self.slope_statistic),
            "note": self.note,
        }


def carleman_partial_sums(even_moments, M):
    """Evaluate M terms t_m = (m_{2m})^{-1/(2m)} from the exact logs of the
    even moments and classify the tail.

    The series diverges iff the law is moment-determinate by Carleman's
    criterion; any finite-M call can only apply a heuristic. The one used
    here: regress log t_m on log m over the tail half of 1..M. Since
    sum m^{-p} diverges iff p <= 1, a slope >= -1 (minus 0.05 tolerance)
    reads as 'diverging'; a steeper slope with a Cauchy tail (last term
    below 1e-9 times the first, a ratio that does not depend on the data's
    scale) reads as 'converging'; anything else is 'inconclusive'. Only
    ``log_values`` is read, so a moment that overflows float64 changes
    nothing.

    Convention: a zero even moment (log -inf) means a point mass at 0,
    hence compact support and 'diverging' outright.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if even_moments.max_order < 2 * M:
        raise OrderExceeded(f"need moments up to order {2 * M}, have {even_moments.max_order}")
    orders = 2 * np.arange(1, M + 1)
    log_t = -even_moments.log_values[orders] / orders
    terms = np.exp(log_t)
    sums = np.cumsum(terms)
    if np.any(np.isinf(log_t)):
        return CarlemanReport(terms, sums, "diverging", float("nan"),
                              note="zero even moment: compact support")

    tail = np.arange(M // 2 + 1, M + 1)
    if tail.size < 2:
        return CarlemanReport(terms, sums, "inconclusive", float("nan"),
                              note="tail too short for the slope fit")
    slope = float(np.polyfit(np.log(tail), log_t[tail - 1], 1)[0])
    if slope >= -1.0 - CARLEMAN_SLOPE_TOL:
        verdict = "diverging"
    elif log_t[-1] - log_t[0] < np.log(CARLEMAN_CAUCHY_TOL):
        # t_M / t_1 in logs, which neither overflow nor underflow
        verdict = "converging"
    else:
        verdict = "inconclusive"
    return CarlemanReport(terms, sums, verdict, slope)


# ---------------------------------------------------------------------------
# directional and mixed moments
# ---------------------------------------------------------------------------

def moment_sequence(source, u, max_order):
    """MomentSequence of <u, x> up to max_order: the moments of an Empirical's
    projected law, or an analytic law's own ``projected_even_moments``."""
    if isinstance(source, Empirical):
        return empirical_moments(project(source, u), max_order)
    return source.projected_even_moments(u, max_order)


def _monomial_moments(source, max_order):
    """Means of the monomials x^alpha, |alpha| <= max_order, of an Empirical
    in graded order, with a sample's standard errors std(x^alpha) / sqrt(n)
    from the same monomials (None for a weighted measure).

    The monomial rows are built in the order of ``_factor_walk``, each as
    one product: the row of alpha - e_j (the row before, a coordinate row
    or a stack row) times the coordinate row x_j, j alpha's last nonzero
    coordinate. That multiplies x^alpha up one factor at a time in
    coordinate order. Rows go into blocks of about _BLOCK_BYTES (one row
    when n is larger), and each block is reduced at once: one ``expect``
    over its rows puts their means in walk order, then, for a sample, the
    block is centred into a second block, so the next block's first row
    can still read this block's last, and one ``np.add.reduce`` of the
    squares puts their sums beside them. Coordinate rows, stack and blocks
    are one allocation. After the last block every standard error is
    finished at once, in np.std's order of operations (/ n, sqrt) and
    / sqrt(n), and both arrays are put in graded order once. Each step is
    elementwise or a row's own pairwise sum, so every value is bit-equal
    to building and reducing the rows one alpha at a time."""
    points, dim, n = source.points, source.dim, source.n
    sample = source.weights is None
    walk = _factor_walk(dim, max_order)
    count = len(walk)
    per_block = min(max(1, _BLOCK_BYTES // points.itemsize // n), count)
    stack = max(max_order - 2, 0) if dim > 1 else 0  # at d = 1 no row has a later child
    work = np.empty((dim + stack + per_block * (1 + sample), n))
    work[:dim] = points.T
    # coordinate rows, then stack rows, as a list of row views: a list index
    # costs less than an array's
    rows = list(work[:dim + stack])
    block = work[dim + stack:dim + stack + per_block]
    centred = work[dim + stack + per_block:]
    # both in walk order until the loop ends; errs holds the centred sums of squares
    means, errs = np.empty(count), np.empty(count)
    steps = iter(walk)
    row = squares = None
    for start in range(0, count, per_block):
        stop = min(start + per_block, count)
        monos = block[:stop - start]
        for out, (parent, factor, _, keep) in zip(monos, steps):
            if parent >= 0:
                np.multiply(rows[parent], rows[factor], out=out)
            elif parent == _PREV:
                np.multiply(row, rows[factor], out=out)
            elif factor >= 0:
                np.copyto(out, rows[factor])
            else:
                out.fill(1.0)
            if keep >= 0:
                np.copyto(rows[keep], out)
            row = out
        mean = means[start:stop]
        mean[:] = source.expect(monos)
        if sample:
            squares = centred[:stop - start]
            np.subtract(monos, mean[:, None], out=squares)
            np.multiply(squares, squares, out=squares)
            np.add.reduce(squares, axis=-1, out=errs[start:stop])
    # the workspace and every view of it are freed before the graded arrays
    # are made, so they do not raise the table's memory peak
    del work, rows, block, centred, squares, monos, out, row
    if sample:
        # np.std's finish, then / sqrt(n): one pass each over the whole table
        errs /= n
        np.sqrt(errs, out=errs)
        errs /= np.sqrt(n)
    positions = np.array([position for _, _, position, _ in walk])
    values, se = np.empty(count), np.empty(count)
    values[positions], se[positions] = means, errs
    return values, se if sample else None


@dataclass(frozen=True, eq=False)
class MixedMoments:
    """Complete table of mixed moments mu_alpha for all |alpha| <= max_order:
    ``values``, one read-only array in the order of
    ``multi_indices_upto(dim, max_order)``, and ``se``, the Monte-Carlo
    standard error of each mu_alpha estimated from a sample, in the same
    order (None for exact sources)."""

    dim: int
    max_order: int
    values: np.ndarray
    se: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        values = _freeze(self.values)
        size = len(multi_indices_upto(self.dim, self.max_order))  # C(dim + max_order, dim)
        if values.shape != (size,):
            raise ValueError(f"need the {size} moments of |alpha| <= max_order in graded order")
        if not abs(values[0] - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError("mu_0 must equal 1")
        object.__setattr__(self, "values", values)

    @property
    def table(self):
        """A read-only {alpha: mu_alpha} view of ``values``, built on each access."""
        alphas = multi_indices_upto(self.dim, self.max_order)
        return MappingProxyType(dict(zip(alphas, self.values.tolist())))

    def order_values(self, m):
        """Values at |alpha| = m, aligned with multi_indices(dim, m): a read-only slice."""
        if not 0 <= m <= self.max_order:
            raise OrderExceeded(f"order {m} is not in 0..max_order={self.max_order}")
        return self.values[_order_slice(self.dim, m)]

    @classmethod
    def from_sample(cls, source, max_order):
        """Mixed moments of an Empirical: empirical for a sample, exact for
        a weighted measure, with a sample's standard errors (see
        ``_monomial_moments``)."""
        values, se = _monomial_moments(source, max_order)
        mm = cls(source.dim, max_order, values)
        object.__setattr__(mm, "se", se if se is None else _freeze(se))
        return mm

    from_atomic = from_sample  # older name for weighted sources


def _design_rows(U, m):
    """The |alpha| = m multi-indices and one row C(m; alpha) u^alpha per row u of U."""
    alphas = multi_indices(U.shape[1], m)
    coeffs = np.array([multinomial(m, a) for a in alphas], dtype=np.float64)
    expo = np.array(alphas, dtype=np.float64)
    return alphas, coeffs[None, :] * np.prod(U[:, None, :] ** expo[None, :, :], axis=2)


def mixed_to_directional(mm, u, m):
    """Forward map: sum_{|alpha|=m} C(m; alpha) u^alpha mu_alpha."""
    _, rows = _design_rows(u.coords[None, :], m)
    return float(rows[0] @ mm.order_values(m))


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Least-squares recovery of the degree-m mixed moments."""

    exponents: tuple
    coefficients: np.ndarray  # aligned with exponents
    condition_number: float
    residual_norm: float


def reconstruct_mixed(observations, d, m):
    """Recover {mu_alpha : |alpha| = m} from directional moments.

    ``observations`` is a list of (Direction, value) pairs with value the
    degree-m directional moment along that direction. Solves the linear
    system with design entries C(m; alpha) u^alpha by least squares and
    reports the design's condition number and residual norm.

    Raises RankDeficient when the numerical rank of the design is below
    homogeneous_dim(d, m): the directions lie on (or too near) an algebraic
    set that cannot separate degree-m monomials. Supplying fewer
    observations than homogeneous_dim(d, m) is such a case.
    """
    if not observations:
        raise ValueError("observations must be nonempty")
    U = np.vstack([u.coords for u, _ in observations])
    if U.shape[1] != d:
        raise ValueError(f"directions have dim {U.shape[1]}, expected {d}")
    b = np.array([float(v) for _, v in observations])
    alphas, A = _design_rows(U, m)
    dim = len(alphas)

    s = np.linalg.svd(A, compute_uv=False)
    rank_tol = s[0] * max(A.shape) * np.finfo(np.float64).eps
    rank = int(np.sum(s > rank_tol))
    if rank < dim:
        raise RankDeficient(
            f"design rank {rank} < {dim} = homogeneous_dim({d}, {m}); "
            "the directions cannot separate all degree-m monomials"
        )
    sol, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.linalg.norm(A @ sol - b))
    cond = float(s[0] / s[-1])
    return ReconstructionResult(
        exponents=tuple(alphas),
        coefficients=sol,
        condition_number=cond,
        residual_norm=residual,
    )


def rm_residual(p_mm, q_mm, u, m):
    """Directional-moment gap int <u,x>^m dQ - int <u,x>^m dP at order m."""
    return mixed_to_directional(q_mm, u, m) - mixed_to_directional(p_mm, u, m)

