"""Generators with ground truth.

Two analytic families with exact moment oracles (Gaussian, product
lognormal), seeded draws from them and from weighted ``Empirical``
measures, plus the switching construction: a pair of distinct atomic
measures whose 1-D projections agree exactly along a prescribed finite set
of directions. Each analytic law builds its whole mixed-moment table in one
call, ``mixed_moment_table(max_order)``, of any order, as one array in the
order of ``multi_indices_upto`` (the form ``MixedMoments`` stores): the
Gaussian by the Isserlis recursion, the lognormal in closed form. The
moments of a 1-D projection come as (sign, log|m_k|) pairs, turned into a
``MomentSequence`` by one builder. The Gaussian has a moment generating
function near 0 and moment-determinate projections; the lognormal does
not, which is what makes it the canonical Carleman failure case.

A law answers for itself: a caller asks its class only whether it is a
point cloud (``Empirical``). An analytic law has ``dim``; ``kind``, the
label prefix of its draws; ``draw(rng, n)``, n x d rows; ``carleman()``,
(verdict, reason), 'diverging' where Carleman's condition holds along
every u and 'converging' where it fails; ``digest()``, SHA-256 of its
class and parameters; ``mixed_moment_table(max_order)``; and
``projected_even_moments(u, max_order)``. A weighted ``Empirical`` has the
first five.
"""

import functools
import hashlib
import math
from array import array
from dataclasses import dataclass, fields
from itertools import chain, combinations, product

import numpy as np

from .directions import Direction, _freeze
from .moments import MixedMoments, MomentSequence, _order_slice, multi_indices, multi_indices_upto
from .projections import Empirical
from .rng import STREAM_GALLERY, substream


def _from_signed_log(sign, log_abs):
    # sign * exp(log_abs), +-inf where that overflows float64; a zero
    # moment arrives as (0.0, -inf) and comes out as 0.0
    try:
        return sign * math.exp(log_abs)
    except OverflowError:
        return math.copysign(math.inf, sign)


@functools.lru_cache(maxsize=64)
def _isserlis_plan(d, m):
    """The Isserlis recursion over the graded |alpha| <= m as a tuple of one
    record per grade k = 1..m, (i, at, j, b, at_j): int arrays with one row
    per alpha of grade k, in graded order. i is alpha's first nonzero index
    and at the position of beta = alpha - e_i; column s of j, b and at_j
    holds the s-th nonzero beta_j in order of j, beta_j and the position of
    beta - e_j, and b = 0 past the last. Arrays, not a tuple per alpha: at
    d = 8, m = 6 tuples held about 0.8 MiB more for as long as the cache
    keeps the plan. Shared by every caller: read it only."""
    position = {alpha: k for k, alpha in enumerate(multi_indices_upto(d, m))}
    plan = []
    for grade in range(1, m + 1):
        width = min(d, grade - 1)  # the most nonzero parts of a beta of this grade
        rows = array("i")  # 2 + 3 * width entries per alpha, no object per entry
        for alpha in multi_indices(d, grade):
            i = next(k for k, a in enumerate(alpha) if a)
            beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            terms = [(j, b, position[beta[:j] + (b - 1,) + beta[j + 1:]])
                     for j, b in enumerate(beta) if b] + [(0, 0, 0)] * width
            rows.extend((i, position[beta], *chain.from_iterable(terms[:width])))
        rows = np.frombuffer(rows, dtype=np.intc).reshape(-1, 2 + 3 * width)
        plan.append((rows[:, 0], rows[:, 1], rows[:, 2::3], rows[:, 3::3], rows[:, 4::3]))
    return tuple(plan)


def _finite(**params):
    # a law's parameters are checked where they are given, not where drawn
    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")


class _AnalyticLaw:
    # what the analytic laws share; each subclass is a frozen dataclass of
    # parameter arrays with its own _signed_log_moments

    def digest(self):
        """SHA-256 of the class name, then of each parameter array in field order."""
        h = hashlib.sha256()
        h.update(type(self).__name__.encode())
        for f in fields(self):
            h.update(getattr(self, f.name).tobytes())
        return h.hexdigest()

    def projected_even_moments(self, u, max_order):
        """MomentSequence of the projection, with the exact log of every moment."""
        signed_logs = self._signed_log_moments(u, max_order)
        return MomentSequence(values=np.array([_from_signed_log(*pair) for pair in signed_logs]),
                              log_values=np.array([log_abs for _, log_abs in signed_logs]))


@dataclass(frozen=True, eq=False)
class Gaussian(_AnalyticLaw):
    """N(mean, cov) with symmetric positive definite covariance.

    Mixed moments of every order come from the Isserlis recursion over the
    graded index list, those of the projection N(<u,mean>, u'cov u) from its
    1-D case. cov is stored as (cov + cov') / 2: one law for every oracle.
    """

    mean: np.ndarray
    cov: np.ndarray
    kind = "gaussian"

    def __post_init__(self):
        mean = _freeze(self.mean)
        cov = _freeze(self.cov)
        d = mean.size
        if mean.ndim != 1 or d < 1:
            raise ValueError(f"mean must be a nonempty 1-D array, got shape {mean.shape}")
        if cov.shape != (d, d):
            raise ValueError("cov must be d x d")
        _finite(mean=mean, cov=cov)
        # both checks are relative to the covariance's own scale, so
        # N(0, c I) passes for every c > 0
        if not np.allclose(cov, cov.T, atol=1e-12 * np.max(np.abs(cov))):
            raise ValueError("cov must be symmetric")
        eig = np.linalg.eigvalsh(cov)
        if eig[0] <= d * np.finfo(np.float64).eps * eig[-1]:
            raise ValueError("cov must be positive definite "
                             "(min eigenvalue > d * eps * max eigenvalue)")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _freeze((cov + cov.T) / 2))

    @property
    def dim(self):
        return self.mean.size

    @classmethod
    def standard(cls, d):
        return cls(np.zeros(d), np.eye(d))

    def draw(self, rng, n):
        # z stays bound until the return: freed mid-expression, it changed glibc's
        # heap layout and left a process holding 1e5-row draws 1.6-2.3 MiB larger
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ np.linalg.cholesky(self.cov).T

    def carleman(self):
        return "diverging", "gaussian: m_2k = sigma_u^2k (2k-1)!!, so t_k decays like 1/sqrt(k)"

    def _signed_log_moments(self, u, max_order):
        # (sign, log|m_k|) for k = 0..max_order of the projection
        # N(a, s2), a = <u,mean>, s2 = u'cov u, by the 1-D Isserlis recursion
        # m_k = a m_{k-1} + (k-1) s2 m_{k-2}. Both terms have the sign of
        # a^k, so |m_k| is a sum of two nonnegative terms: nothing cancels.
        a = float(u.coords @ self.mean)
        log_s2 = math.log(float(u.coords @ self.cov @ u.coords))
        log_a = math.log(abs(a)) if a != 0.0 else -math.inf
        logs = [0.0, log_a]
        for k in range(2, max_order + 1):
            logs.append(float(np.logaddexp(log_a + logs[k - 1],
                                           math.log(k - 1) + log_s2 + logs[k - 2])))
        sign = math.copysign(1.0, a)
        return [(sign**k if a != 0.0 or k % 2 == 0 else 0.0, log_abs)
                for k, log_abs in enumerate(logs[:max_order + 1])]

    def mixed_moment_table(self, max_order):
        """E[x^alpha] for every |alpha| <= max_order, in graded order, by the
        Isserlis recursion mu(alpha) = m_i mu(beta) + sum_j cov_ij beta_j
        mu(beta - e_j), with i the first nonzero index of alpha and
        beta = alpha - e_i. Every entry on the right lies in a lower grade,
        so the recursion makes one grade at a time, each step one array
        operation over the grade's alphas, reading the entries by position
        from ``_isserlis_plan``. The terms are added in order of j, as the
        scalar recursion adds them, so every value is bit-equal to it."""
        values = np.ones(len(multi_indices_upto(self.dim, max_order)))  # mu(0) = 1
        for grade, (i, at, j, b, at_j) in enumerate(_isserlis_plan(self.dim, max_order), 1):
            total = self.mean[i] * values[at]
            for s in range(b.shape[1]):
                # a slot past the last term adds nothing, not even to a -0.0
                np.add(total, self.cov[i, j[:, s]] * b[:, s] * values[at_j[:, s]],
                       out=total, where=b[:, s] > 0)
            values[_order_slice(self.dim, grade)] = total
        return values


@dataclass(frozen=True, eq=False)
class ProductLognormal(_AnalyticLaw):
    """Independent coordinates X_i = exp(mu_i + sigma_i Z_i), sigma_i > 0.

    The directional oracle gives every order along a direction from one
    truncated generating-function product, in ``decimal`` with exact sums.
    """

    mu: np.ndarray
    sigma: np.ndarray
    kind = "lognormal"

    def __post_init__(self):
        mu = _freeze(self.mu)
        sigma = _freeze(self.sigma)
        if mu.shape != sigma.shape or mu.ndim != 1 or mu.size < 1:
            raise ValueError("mu and sigma must be matching nonempty 1-D arrays, "
                             f"got shapes {mu.shape} and {sigma.shape}")
        _finite(mu=mu, sigma=sigma)
        if np.any(sigma <= 0.0):
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self):
        return self.mu.size

    @classmethod
    def standard(cls, d):
        return cls(np.zeros(d), np.ones(d))

    def draw(self, rng, n):
        z = rng.standard_normal((n, self.dim))  # bound until the return, as in Gaussian.draw
        return np.exp(self.mu + self.sigma * z)

    def carleman(self):
        # Heyde, JRSS B 1963; Lin, J. Stat. Distrib. Appl. 2017
        return "converging", "product lognormal: t_k decays like exp(-k sigma_j^2) along every u"

    def mixed_moment_table(self, max_order):
        """E[x^alpha] for every |alpha| <= max_order, in graded order, in
        closed form prod_i exp(alpha_i mu_i + alpha_i^2 sigma_i^2 / 2)."""
        return np.array([np.exp(self._log_mixed_moment(a))
                         for a in multi_indices_upto(self.dim, max_order)])

    def _log_mixed_moment(self, alpha):
        alpha = np.asarray(alpha, dtype=np.float64)
        return float(np.sum(alpha * self.mu + 0.5 * alpha**2 * self.sigma**2))

    def _signed_log_moments(self, u, max_order):
        # (sign, log|E<u,X>^m|) for m = 0..max_order: E<u,X>^m = m! [t^m] prod_j sum_a (u_j t)^a
        # g^a h^(a^2) / a!, with g = e^mu_j and h = e^(sigma_j^2 / 2), so term a is term a - 1
        # times u_j g h^(2a - 1) / a. Each coefficient is the exact sum of its products, rounded
        # once, so exact cancellations come out as 0. digits is sized to the largest order-k
        # mixed moment: its log is convex in alpha, so it peaks at a vertex alpha = k e_j.
        from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext

        k = max_order
        peak = max(k * mu + 0.5 * k * k * sigma * sigma
                   for mu, sigma in zip(self.mu.tolist(), self.sigma.tolist()))
        digits = 30 + int((peak + k * math.log(self.dim + 1) + k) / math.log(10.0)) + k
        exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
        series = [Decimal(1)] + [Decimal(0)] * k
        with localcontext(Context(prec=max(30, digits), Emax=MAX_EMAX, Emin=MIN_EMIN)) as ctx:
            exp = functools.cache(Decimal.exp)  # Decimal.exp is slow at this precision
            for uj, mu, sigma in zip(u.coords.tolist(), self.mu.tolist(), self.sigma.tolist()):
                ug, h = Decimal(uj) * exp(Decimal(mu)), exp(Decimal(sigma) ** 2 / 2)
                step, h2, coord = ug * h, h * h, [Decimal(1)]  # step = u_j g h^(2a - 1)
                for a in range(1, k + 1):
                    coord.append(coord[-1] * step / a)
                    step *= h2
                series = [ctx.plus(functools.reduce(exact.add, map(exact.multiply, series[:m + 1],
                                                                   coord[m::-1])))
                          for m in range(k + 1)]
            ctx.prec = 40  # ample for a float; a zero compares as 0 and its log is -Infinity
            return [(float(coef.compare(0)), float((coef.copy_abs() * math.factorial(m)).ln()))
                    for m, coef in enumerate(series)]


def sample(dist, n, seed):
    """Draw n i.i.d. points from an analytic law or a weighted Empirical, seeded."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Empirical(dist.draw(substream(seed, STREAM_GALLERY), n),
                     label=f"{dist.kind}-n{n}-seed{seed}")


def mixed_moments_of(dist, max_order):
    """Complete MixedMoments table of an analytic law (exact) or an Empirical
    (see MixedMoments.from_sample)."""
    if isinstance(dist, Empirical):
        return MixedMoments.from_sample(dist, max_order)
    return MixedMoments(dist.dim, max_order, dist.mixed_moment_table(max_order))


def _orthogonal_unit(v):
    # deterministic unit vector exactly orthogonal to an integer vector
    v = np.asarray(v, dtype=np.float64)
    if v.size == 2:
        w = np.array([-v[1], v[0]]) + 0.0  # integer entries: dot is exactly 0
        return Direction(w / np.linalg.norm(w))
    i = int(np.argmin(np.abs(v)))
    e = np.zeros(v.size)
    e[i] = 1.0
    w = e - (v @ e) / (v @ v) * v
    return Direction.from_vector(w)


def _pairwise_parallel(v, w):
    # integer test: all 2x2 minors vanish
    return all(v[p] * w[q] == v[q] * w[p] for p, q in combinations(range(len(v)), 2))


def switching_pair(lattice_directions):
    """Two distinct atomic measures with identical projections along
    certified directions.

    Expands the signed convolution of kernels (delta_0 - delta_{v_j}) over
    the given nonzero, pairwise non-parallel integer vectors; the positive
    part normalizes to P, the negative part to Q. For each v_j, projecting
    along any direction orthogonal to v_j maps the pair S <-> S u {j} of
    subset-sum atoms to equal values with opposite parity, so the projected
    laws coincide exactly. Returns (P, Q, certified unit directions, one
    per kernel vector).

    P and Q have disjoint supports (each surviving atom has a definite net
    sign), hence total variation distance 1.
    """
    vs = [np.asarray(v, dtype=np.int64) for v in lattice_directions]
    if not vs:
        raise ValueError("need at least one lattice direction")
    if len(vs) > 20:
        raise ValueError("more than 20 kernel vectors: expansion too large")
    d = vs[0].size
    if d < 2:
        raise ValueError("lattice directions must have dim >= 2")
    for v in vs:
        if v.shape != (d,):
            raise ValueError("lattice directions must share one dimension")
        if not np.any(v):
            raise ValueError("lattice directions must be nonzero")
    for v, w in combinations(vs, 2):
        if _pairwise_parallel(v, w):
            raise ValueError(f"parallel kernel vectors {v.tolist()} and {w.tolist()}")

    net = {}
    for picks in product((0, 1), repeat=len(vs)):
        atom = np.zeros(d, dtype=np.int64)
        for p, v in zip(picks, vs):
            if p:
                atom = atom + v
        key = tuple(atom.tolist())
        net[key] = net.get(key, 0) + (1 if sum(picks) % 2 == 0 else -1)

    # net holds the coefficients of prod_j (1 - x^{v_j}), a nonzero Laurent
    # polynomial whose coefficients sum to prod_j (1 - 1) = 0: both signs occur
    pos = [(a, c) for a, c in net.items() if c > 0]
    neg = [(a, -c) for a, c in net.items() if c < 0]

    def build(atoms):
        pts = np.array([a for a, _ in atoms], dtype=np.float64)
        w = np.array([c for _, c in atoms], dtype=np.float64)
        return Empirical(pts, w / w.sum())

    p, q = build(pos), build(neg)
    certified = [_orthogonal_unit(v) for v in vs]
    return p, q, certified

