import math
import time
from contextlib import nullcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cwkit.directions import Direction, sample_uniform
from cwkit.gallery import (Gaussian, ProductLognormal, _from_signed_log, mixed_moments_of,
                           sample, switching_pair)
from cwkit.moments import (carleman_partial_sums, mixed_to_directional,
                           multi_indices, multi_indices_upto, multinomial)
from cwkit.projections import Empirical, ks_distance, project
from cwkit.rng import STREAM_GALLERY, substream


def table_of(law, max_order):
    # {alpha: value} of a law's graded mixed-moment array
    values = law.mixed_moment_table(max_order)
    return dict(zip(multi_indices_upto(law.dim, max_order), values.tolist(), strict=True))


def log_mixed_moment(ln, alpha):
    # log E[x^alpha] of a product lognormal, one alpha at a time
    alpha = np.asarray(alpha, dtype=np.float64)
    return float(np.sum(alpha * ln.mu + 0.5 * alpha**2 * ln.sigma**2))


def e1(d=2):
    v = np.zeros(d)
    v[0] = 1.0
    return Direction(v)


class TestSampling:
    def test_atomic_point_mass(self):
        v = np.array([[2.0, -1.0, 0.5]])
        dist = Empirical(v, np.array([1.0]))
        s = sample(dist, 50, seed=0)
        assert np.all(s.points == v)

    def test_gaussian_sample_covariance(self):
        s = sample(Gaussian.standard(3), 10**5, seed=1)
        cov = np.cov(s.points.T)
        assert np.max(np.abs(cov - np.eye(3))) < 0.05

    def test_gaussian_general_covariance(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        s = sample(Gaussian(np.array([1.0, -2.0]), cov), 10**5, seed=5)
        assert np.max(np.abs(np.cov(s.points.T) - cov)) < 0.05
        assert np.allclose(s.points.mean(axis=0), [1.0, -2.0], atol=0.05)

    def test_lognormal_median(self):
        s = sample(ProductLognormal.standard(2), 10**5, seed=2)
        med = np.median(s.points, axis=0)
        assert np.max(np.abs(med - 1.0)) < 0.05  # median of lognormal is e^mu

    def test_deterministic(self):
        a = sample(Gaussian.standard(2), 100, seed=42)
        b = sample(Gaussian.standard(2), 100, seed=42)
        assert a.points.tobytes() == b.points.tobytes()

    def test_weighted_draw_is_one_choice_call(self):
        m = Empirical(np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]]),
                      np.array([0.2, 0.3, 0.5]))
        s = sample(m, 400, seed=17)
        idx = substream(17, STREAM_GALLERY).choice(m.n, size=400, p=m.weights)
        assert s.points.tobytes() == m.points[idx].tobytes()
        assert s.label == "atomic-n400-seed17"
        assert s.weights is None

    @pytest.mark.parametrize("d", [1, 3])
    def test_gaussian_draw_is_one_normal_block(self, d):
        # perfbench/checks.py rebuilds the h1 reference through this stream
        cov = np.eye(d) + 0.4 * np.ones((d, d))
        g = Gaussian(np.arange(d, dtype=np.float64), cov)
        s = sample(g, 400, seed=17)
        z = substream(17, STREAM_GALLERY).standard_normal((400, d))
        assert s.points.tobytes() == (g.mean + z @ np.linalg.cholesky(g.cov).T).tobytes()
        assert s.label == "gaussian-n400-seed17"
        assert s.weights is None

    @pytest.mark.parametrize("d", [1, 3])
    def test_lognormal_draw_is_one_normal_block(self, d):
        ln = ProductLognormal(np.linspace(-0.5, 0.5, d), np.linspace(0.5, 1.5, d))
        s = sample(ln, 400, seed=23)
        z = substream(23, STREAM_GALLERY).standard_normal((400, d))
        assert s.points.tobytes() == np.exp(ln.mu + ln.sigma * z).tobytes()
        assert s.label == "lognormal-n400-seed23"
        assert s.weights is None

    def test_unweighted_sample_rejected(self):
        with pytest.raises(TypeError):
            sample(Empirical(np.zeros((5, 2))), 10, seed=0)

    def test_atomic_weight_frequencies(self):
        m = Empirical(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.25, 0.75]))
        s = sample(m, 10**5, seed=3)
        frac = np.mean(s.points[:, 0] == 1.0)
        assert frac == pytest.approx(0.75, abs=0.01)


def pairing_sum(mean, cov, idx):
    # E[prod_k x_{idx_k}] as a sum over partial pairings (Isserlis with a
    # mean): the first index either stands alone (a mean factor) or pairs
    # with one of the rest (a covariance factor)
    if not idx:
        return Fraction(1)
    i, rest = idx[0], idx[1:]
    total = mean[i] * pairing_sum(mean, cov, rest)
    for pos, j in enumerate(rest):
        total += cov[i][j] * pairing_sum(mean, cov, rest[:pos] + rest[pos + 1:])
    return total


def random_gaussian(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    cov = a @ a.T + 0.5 * np.eye(d)
    return Gaussian(rng.standard_normal(d), (cov + cov.T) / 2)  # exactly symmetric


class TestGaussianOracle:
    def test_isserlis_base_cases(self):
        t = table_of(Gaussian.standard(2), 4)
        assert t[(2, 0)] == pytest.approx(1.0, abs=1e-14)
        assert t[(1, 1)] == pytest.approx(0.0, abs=1e-14)
        assert t[(4, 0)] == pytest.approx(3.0, abs=1e-12)

    def test_pair_count_double_factorial(self):
        t = table_of(Gaussian.standard(2), 8)
        for m in (1, 2, 3, 4):
            assert t[(2 * m, 0)] == pytest.approx(float(mpmath.fac2(2 * m - 1)), rel=1e-12)

    def test_against_monte_carlo(self):
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        g = Gaussian(np.array([0.2, -0.1]), cov)
        t = table_of(g, 4)
        s = sample(g, 10**6, seed=9)
        for alpha in [(1, 0), (1, 1), (2, 0), (2, 2), (3, 1), (4, 0)]:
            mono = s.points[:, 0] ** alpha[0] * s.points[:, 1] ** alpha[1]
            se = mono.std() / math.sqrt(mono.size)
            assert t[alpha] == pytest.approx(mono.mean(), abs=5 * se)

    def test_standard_table_bit_equal_to_double_factorials(self):
        # E[x^alpha] = prod (alpha_i - 1)!! for the standard law, 0 when some
        # alpha_i is odd; past the old pairing sum's order cap of 8
        start = time.process_time()
        values = Gaussian.standard(8).mixed_moment_table(12)
        print(f"d = 8, order 12: {len(values)} entries in {time.process_time() - start:.3f} s CPU")
        alphas = multi_indices_upto(8, 12)
        assert values.shape == (len(alphas),)
        expected = [0.0 if any(a % 2 for a in alpha)
                    else float(math.prod(math.prod(range(a - 1, 0, -2)) for a in alpha))
                    for alpha in alphas]
        assert values.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_random_law_matches_pairing_sum(self, seed):
        # every |alpha| <= 8 within 1e-14 of the moment of |mean|, |cov|
        g = random_gaussian(seed, 3)
        mean = [Fraction(x) for x in g.mean.tolist()]
        cov = [[Fraction(x) for x in row] for row in g.cov.tolist()]
        abs_mean = [abs(x) for x in mean]
        abs_cov = [[abs(x) for x in row] for row in cov]
        table = table_of(g, 8)
        for alpha in multi_indices_upto(3, 8):
            idx = tuple(i for i, a in enumerate(alpha) for _ in range(a))
            exact = pairing_sum(mean, cov, idx)
            scale = pairing_sum(abs_mean, abs_cov, idx)
            assert abs(Fraction(table[alpha]) - exact) <= Fraction(1e-14) * scale

    @staticmethod
    def dict_reference(g, max_order):
        # the recursion over graded tuples, each right-hand entry looked up by key
        mean, cov = g.mean.tolist(), g.cov.tolist()
        alphas = multi_indices_upto(g.dim, max_order)
        table = {alphas[0]: 1.0}
        for alpha in alphas[1:]:
            beta = list(alpha)
            i = next(k for k, a in enumerate(alpha) if a)
            beta[i] -= 1
            total = mean[i] * table[tuple(beta)]
            for j, b in enumerate(beta):
                if b:
                    beta[j] -= 1
                    total += cov[i][j] * b * table[tuple(beta)]
                    beta[j] += 1
            table[alpha] = total
        return table

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d, order", [(3, 8), (8, 6), (1, 7), (2, 1), (4, 0)])
    def test_random_law_bit_equal_to_dict_recursion(self, seed, d, order):
        g = random_gaussian(seed, d)
        table = table_of(g, order)
        expected = self.dict_reference(g, order)
        assert list(table) == list(expected)
        assert np.array(list(table.values())).tobytes() == np.array(list(expected.values())).tobytes()

    def test_signed_zeros_bit_equal_to_dict_recursion(self):
        # zero and -0.0 means with uncorrelated coordinates give -0.0 entries,
        # which the grade-at-a-time recursion must keep as the scalar one does
        cov = np.array([[1.0, 0.0, -0.3], [0.0, 2.0, 0.0], [-0.3, 0.0, 0.5]])
        g = Gaussian(np.array([-0.0, 0.0, -0.5]), cov)
        table = table_of(g, 7)
        expected = self.dict_reference(g, 7)
        assert any(math.copysign(1.0, v) < 0 for v in expected.values() if v == 0.0)
        assert np.array(list(table.values())).tobytes() == np.array(list(expected.values())).tobytes()

    def test_table_and_closed_form_directional_moments_agree(self):
        # two independent oracles, compared past the old order cap of 8
        g = random_gaussian(7, 3)
        mm = mixed_moments_of(g, 10)
        for u in sample_uniform(3, 4, seed=5):
            for m in range(11):
                assert mixed_to_directional(mm, u, m) == pytest.approx(
                    g.projected_even_moments(u, m).values[m], rel=1e-12)

    def test_directional_moment_quadrature_oracle(self):
        # projection of N(mean, cov) along u is N(<u,mean>, u'cov u); check the
        # closed form against numeric integration
        cov = np.array([[1.5, -0.4], [-0.4, 0.8]])
        g = Gaussian(np.array([0.7, 0.2]), cov)
        u = Direction.from_vector([2.0, -1.0])
        a = float(u.coords @ g.mean)
        s = math.sqrt(float(u.coords @ cov @ u.coords))
        for m in (1, 2, 3, 5, 8):
            oracle = float(mpmath.quad(
                lambda t: t**m * mpmath.npdf(t, a, s), [-mpmath.inf, mpmath.inf]))
            assert g.projected_even_moments(u, m).values[m] == pytest.approx(oracle, rel=1e-10)

    def test_projected_even_moment_logs_exact(self):
        g = Gaussian(np.array([0.5, 0.0]), np.eye(2))
        seq = g.projected_even_moments(e1(), 12)
        assert np.allclose(np.exp(seq.log_values[2::2]), seq.values[2::2], rtol=1e-12)

    def test_carleman_diverging(self):
        seq = Gaussian.standard(2).projected_even_moments(e1(), 60)
        assert carleman_partial_sums(seq, 30).verdict == "diverging"

    @pytest.mark.parametrize("shift", [1.3, -0.8, 0.0])
    def test_signed_logs_match_exact_recursion(self, shift):
        # m_k = a m_{k-1} + (k-1) s2 m_{k-2} in 80 digits from the same float
        # a and s2; every log to a few ulps, every sign exact
        rng = np.random.default_rng(11)
        a_mat = rng.standard_normal((3, 3))
        u = Direction.from_vector([1.0, -2.0, 0.5])
        mean = shift * u.coords  # <u, mean> = shift
        g = Gaussian(mean, a_mat @ a_mat.T + 0.5 * np.eye(3))
        a = float(u.coords @ g.mean)
        assert (a > 0, a < 0, a == 0) == (shift > 0, shift < 0, shift == 0)
        s2 = float(u.coords @ g.cov @ u.coords)
        signed = g._signed_log_moments(u, 60)
        seq = g.projected_even_moments(u, 60)
        with mpmath.workdps(80):
            exact = [mpmath.mpf(1), mpmath.mpf(a)]
            for k in range(2, 61):
                exact.append(a * exact[k - 1] + (k - 1) * mpmath.mpf(s2) * exact[k - 2])
            for k, (sign, log_abs) in enumerate(signed):
                if a == 0.0 and k % 2:
                    assert (sign, log_abs) == (0.0, -math.inf)
                    assert seq.values[k] == 0.0
                    assert seq.log_values[k] == -math.inf
                    continue
                assert sign == ((-1.0) ** k if a < 0 else 1.0)
                want = float(mpmath.log(abs(exact[k])))
                assert abs(log_abs - want) <= 4 * np.finfo(float).eps * max(1.0, abs(want))
                assert seq.log_values[k] == log_abs
                assert seq.values[k] == _from_signed_log(sign, log_abs)

    def test_asymmetric_cov_stored_symmetric(self):
        # allclose lets a tiny asymmetry through; every oracle and the
        # sampler must then see the one symmetrised law
        g = Gaussian(np.zeros(2), np.array([[1.0, 0.3], [0.300001, 1.0]]))
        assert g.cov.tobytes() == g.cov.T.tobytes()
        assert table_of(g, 2)[(1, 1)] == g.cov[0, 1]
        chol = np.linalg.cholesky(g.cov)
        assert (chol @ chol.T)[0, 1] == pytest.approx(g.cov[0, 1], rel=1e-15)
        sym = np.array([[2.0, 0.6], [0.6, 1.0]])
        assert Gaussian(np.zeros(2), sym).cov.tobytes() == sym.tobytes()

    @pytest.mark.parametrize("c", [1e-11, 1.0, 1e12])
    def test_covariance_checks_relative_to_scale(self, c):
        # N(0, c I) is N(0, I) rescaled, so each check reads cov / c
        g = Gaussian(np.zeros(3), c * np.eye(3))
        u = Direction.from_vector([1.0, 2.0, 2.0])
        assert g.projected_even_moments(u, 2).values[2] == pytest.approx(c, rel=1e-14)
        with pytest.raises(ValueError, match="positive definite"):
            Gaussian(np.zeros(3), c * np.ones((3, 3)))
        with pytest.raises(ValueError, match="symmetric"):
            Gaussian(np.zeros(2), c * np.array([[1.0, 0.0], [0.01, 1.0]]))


class TestLawParameters:
    @pytest.mark.parametrize("law, expected", [
        (Gaussian.standard(3), "2eaba8e10222ce69d2400aa992227c034ec53417762fd18e06dde38170163795"),
        (ProductLognormal.standard(3),
         "0ab44f0c8f565c61a91929b05abbd8abbb13b12fc9d5f086bbf25dd19807ffe8"),
    ], ids=["gaussian", "lognormal"])
    def test_digest_pinned(self, law, expected):
        # recorded target_digests stay valid: class name, then each parameter array
        assert law.digest() == expected

    def test_gaussian_mean_must_be_1d(self):
        with pytest.raises(ValueError, match="mean must be a nonempty 1-D array"):
            Gaussian(np.zeros((1, 2)), np.eye(2))

    def test_gaussian_dimension_zero_rejected(self):
        with pytest.raises(ValueError, match="mean must be a nonempty 1-D array"):
            Gaussian.standard(0)

    def test_lognormal_dimension_zero_rejected(self):
        with pytest.raises(ValueError, match="nonempty 1-D arrays"):
            ProductLognormal.standard(0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gaussian_mean_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^mean must be finite$"):
            Gaussian(np.array([bad, 0.0]), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gaussian_cov_must_be_finite(self, bad):
        cov = np.eye(2)
        cov[1, 1] = bad
        with pytest.raises(ValueError, match="^cov must be finite$"):
            Gaussian(np.zeros(2), cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_lognormal_mu_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^mu must be finite$"):
            ProductLognormal(np.array([bad, 0.0]), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lognormal_sigma_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^sigma must be finite$"):
            ProductLognormal(np.zeros(2), np.array([1.0, bad]))


class TestLognormalOracle:
    def test_single_coordinate_closed_form(self):
        t = table_of(ProductLognormal.standard(3), 2)
        assert t[(2, 0, 0)] == pytest.approx(math.e**2, rel=1e-12)
        assert t[(1, 1, 0)] == pytest.approx(math.e, rel=1e-12)

    @pytest.mark.parametrize("d, order, sigma", [(3, 4, 0.8), (8, 6, 1.1), (2, 30, 1.5)])
    def test_table_bit_equal_to_per_alpha_loop(self, d, order, sigma):
        # one exp over the graded exponent rows gives the bytes of one
        # scalar exp per alpha; at (2, 30) both overflow at the top orders and warn
        rng = np.random.default_rng(d + order)
        ln = ProductLognormal(rng.uniform(-0.5, 0.5, d), sigma * rng.uniform(0.9, 1.0, d))
        overflow = pytest.warns(RuntimeWarning, match="overflow") if order == 30 else nullcontext()
        with overflow:
            loop = np.array([np.exp(log_mixed_moment(ln, a)) for a in multi_indices_upto(d, order)])
        with overflow:
            values = ln.mixed_moment_table(order)
        assert values.tobytes() == loop.tobytes()
        assert np.isinf(values[-1]) == (order == 30)

    def test_directional_moment_vs_float_expansion(self):
        # independent float evaluation at orders where nothing overflows
        ln = ProductLognormal(np.array([0.1, -0.2]), np.array([0.5, 0.3]))
        u = Direction.from_vector([1.0, 2.0])
        table = table_of(ln, 4)
        for m in (1, 2, 3, 4):
            brute = 0.0
            for alpha in multi_indices(2, m):
                brute += (multinomial(m, alpha)
                          * np.prod(u.coords ** np.array(alpha))
                          * table[alpha])
            assert ln.projected_even_moments(u, m).values[m] == pytest.approx(brute, rel=1e-12)

    def test_even_moment_logs_survive_overflow(self):
        seq = ProductLognormal.standard(2).projected_even_moments(e1(), 60)
        assert not np.all(np.isfinite(seq.values))  # e^{k^2/2} passes float64 at k=38
        assert np.all(np.isfinite(seq.log_values[0::2]))
        assert seq.log_values[60] == pytest.approx(1800.0, rel=1e-12)

    def test_carleman_converging(self):
        seq = ProductLognormal.standard(2).projected_even_moments(e1(), 60)
        rep = carleman_partial_sums(seq, 30)
        assert rep.verdict == "converging"
        assert rep.partial_sums[-1] == pytest.approx(1 / (math.e - 1), abs=1e-5)

    def test_mixed_direction_positive_and_negative_weights(self):
        # signed expansion: for u ~ (1,-1) the projection of an iid product
        # law is symmetric, so odd moments vanish exactly; the float path
        # through MixedMoments only reaches cancellation noise there
        ln = ProductLognormal.standard(2)
        u = Direction.from_vector([1.0, -1.0])
        mm = mixed_moments_of(ln, 6)
        for m in (1, 3, 5):
            assert ln.projected_even_moments(u, m).values[m] == pytest.approx(0.0, abs=1e-20)
        for m in (2, 4, 6):
            assert ln.projected_even_moments(u, m).values[m] == pytest.approx(
                mixed_to_directional(mm, u, m), rel=1e-8)


def ref_signed_log(ln, u, m):
    # the former oracle: the multinomial sum over coordinate moments, one
    # order at a time, with each log mixed moment rounded to float first
    if m == 0:
        return 1.0, 0.0
    alphas = multi_indices(ln.dim, m)
    peak = max(log_mixed_moment(ln, a) for a in alphas)
    digits = 30 + int((peak + m * math.log(ln.dim + 1) + m) / math.log(10.0)) + m
    with mpmath.workdps(max(30, digits)):
        total = mpmath.mpf(0)
        for a in alphas:
            term = mpmath.mpf(multinomial(m, a)) * mpmath.exp(mpmath.mpf(log_mixed_moment(ln, a)))
            for uj, aj in zip(u.coords, a):
                if aj:
                    term *= mpmath.mpf(uj) ** aj
            total += term
        if total == 0:
            return 0.0, -math.inf
        return (1.0 if total > 0 else -1.0), float(mpmath.log(abs(total)))


def exact_signed_log(ln, u, m, dps=600):
    # the multinomial sum with every coordinate moment in dps digits from
    # the float parameters, rounded to float only at the end
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for a in multi_indices(ln.dim, m):
            term = mpmath.mpf(multinomial(m, a))
            for uj, mu, sigma, aj in zip(u.coords, ln.mu, ln.sigma, a):
                term *= (mpmath.mpf(uj) ** aj
                         * mpmath.exp(aj * mpmath.mpf(mu) + aj * aj * mpmath.mpf(sigma) ** 2 / 2))
            total += term
        return (1.0 if total > 0 else -1.0), float(mpmath.log(abs(total)))


def oracle_cases():
    # the reference enumerates C(m+d-1, d-1) terms per order, so d = 4 stops
    # at order 24 and takes one random and one axis direction
    rng = np.random.default_rng(20)
    for d, order, n_random, axes in ((2, 32, 2, (0, 1)), (3, 32, 2, (0, 1, 2)), (4, 24, 1, (3,))):
        dirs = [Direction.from_vector(rng.standard_normal(d)) for _ in range(n_random)]
        for u in dirs + [Direction(np.eye(d)[i]) for i in axes]:
            yield d, u, order
    yield 2, e1(), 60


class TestLognormalGeneratingFunction:
    @pytest.mark.parametrize("d,u,order", list(oracle_cases()))
    def test_standard_law_bit_equal_to_reference(self, d, u, order):
        ln = ProductLognormal.standard(d)
        ref = [ref_signed_log(ln, u, m) for m in range(order + 1)]
        assert ln._signed_log_moments(u, order) == ref
        seq = ln.projected_even_moments(u, order)
        for m, (sign, log_abs) in enumerate(ref):
            assert seq.values[m] == _from_signed_log(sign, log_abs)
            assert seq.log_values[m] == log_abs

    def test_nonstandard_law_correctly_rounded(self):
        ln = ProductLognormal(np.array([0.1, -0.2, 0.3]), np.array([0.5, 0.3, 0.7]))
        u = Direction.from_vector([1.0, -2.0, 0.5])
        exact = [exact_signed_log(ln, u, m) for m in range(33)]
        assert ln._signed_log_moments(u, 32) == exact
        seq = ln.projected_even_moments(u, 32)
        for m, (sign, log_abs) in enumerate(exact):
            assert seq.values[m] == _from_signed_log(sign, log_abs)
            assert seq.log_values[m] == log_abs

    def test_directional_moment_is_entry_of_sequence(self):
        ln = ProductLognormal(np.array([0.2, 0.0, -0.1]), np.array([0.4, 1.0, 0.8]))
        u = Direction.from_vector([0.3, -1.0, 0.7])
        seq = ln.projected_even_moments(u, 24)
        for m in range(25):
            assert ln.projected_even_moments(u, m).values[m] == seq.values[m]

    def test_odd_moments_along_antidiagonal_exactly_zero(self):
        ln = ProductLognormal.standard(2)
        u = Direction.from_vector([1.0, -1.0])
        seq = ln.projected_even_moments(u, 31)
        for m in range(1, 32, 2):
            assert seq.values[m] == 0.0
            assert ln.projected_even_moments(u, m).values[m] == 0.0
        assert np.all(seq.values[0::2] > 0.0)

    def test_from_signed_log_overflows_only_past_float_range(self):
        assert _from_signed_log(1.0, 709.5) == math.exp(709.5)
        assert math.isfinite(_from_signed_log(-1.0, 709.5))
        assert _from_signed_log(1.0, 709.79) == math.inf
        assert _from_signed_log(-1.0, 709.79) == -math.inf
        assert _from_signed_log(0.0, -math.inf) == 0.0

    def test_first_nonfinite_order_near_float_limit(self):
        # along e1, E[X] = e^{709.5} is finite in float64; E[X^2] = e^{1420} is not
        ln = ProductLognormal(np.array([709.0, 0.0]), np.array([1.0, 1.0]))
        seq = ln.projected_even_moments(e1(), 2)
        assert seq.values[1] == math.exp(709.5)
        assert seq.values[2] == math.inf
        assert np.flatnonzero(~np.isfinite(seq.values))[0] == 2


class TestSwitchingPair:
    def test_two_axis_kernels_exact_atoms(self):
        p, q, certified = switching_pair([[1, 0], [0, 1]])
        assert sorted(map(tuple, p.points.tolist())) == [(0.0, 0.0), (1.0, 1.0)]
        assert sorted(map(tuple, q.points.tolist())) == [(0.0, 1.0), (1.0, 0.0)]
        assert p.weights.tolist() == [0.5, 0.5]
        assert q.weights.tolist() == [0.5, 0.5]
        # both project to (1/2)(delta_0 + delta_1) along each axis
        for axis in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            pp = project(p, Direction(axis))
            pq = project(q, Direction(axis))
            assert pp.values.tolist() == pq.values.tolist() == [0.0, 1.0]
            assert pp.weights.tolist() == pq.weights.tolist() == [0.5, 0.5]

    def test_single_kernel(self):
        p, q, certified = switching_pair([[1, 0]])
        assert p.points.tolist() == [[0.0, 0.0]]
        assert q.points.tolist() == [[1.0, 0.0]]
        (u,) = certified
        assert float(u.coords @ np.array([1.0, 0.0])) == 0.0
        assert ks_distance(project(p, u), project(q, u)) == 0.0

    def test_certified_directions_exact_equality(self):
        p, q, certified = switching_pair([[1, 0], [0, 1], [1, 1]])
        for u in certified:
            pp, pq = project(p, u), project(q, u)
            assert pp.values.tolist() == pq.values.tolist()
            assert pp.weights.tolist() == pq.weights.tolist()

    def test_disjoint_supports_equal_mass(self):
        p, q, _ = switching_pair([[1, 0], [0, 1], [2, 1]])
        p_set = set(map(tuple, p.points.tolist()))
        q_set = set(map(tuple, q.points.tolist()))
        assert not (p_set & q_set)  # total variation distance 1
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_collision_cancellation(self):
        # v1 = v2 + v3: subset {1} and subset {2,3} hit the same atom with
        # opposite parity and cancel
        p, q, _ = switching_pair([[1, 1], [1, 0], [0, 1]])
        atoms = set(map(tuple, p.points.tolist())) | set(map(tuple, q.points.tolist()))
        assert (1.0, 1.0) not in atoms

    def test_random_direction_separates(self):
        p, q, _ = switching_pair([[1, 0], [0, 1]])
        hits = 0
        for seed in range(100):
            (u,) = sample_uniform(2, 1, seed=seed)
            if ks_distance(project(p, u), project(q, u)) > 0.2:
                hits += 1
        assert hits >= 95

    def test_parallel_kernels_rejected(self):
        with pytest.raises(ValueError):
            switching_pair([[1, 0], [2, 0]])

    def test_zero_kernel_rejected(self):
        with pytest.raises(ValueError):
            switching_pair([[0, 0]])

    @pytest.mark.parametrize("seed", range(12))
    def test_random_kernels_give_two_probability_measures(self, seed):
        # net holds the coefficients of prod_j (1 - x^{v_j}): a nonzero
        # Laurent polynomial whose coefficients sum to 0, so both signs occur
        rng = np.random.default_rng(seed)
        d, k = int(rng.integers(2, 5)), int(rng.integers(1, 7))
        vs = []
        while len(vs) < k:
            v = rng.integers(-3, 4, size=d)
            if np.any(v) and not any(np.linalg.matrix_rank(np.array([v, w])) < 2 for w in vs):
                vs.append(v.tolist())
        p, q, certified = switching_pair(vs)
        assert len(certified) == len(vs)
        for m in (p, q):
            assert m.n >= 1
            assert float(m.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_three_dim_certified(self):
        p, q, certified = switching_pair([[1, 0, 0], [0, 1, 1]])
        for u in certified:
            pp, pq = project(p, u), project(q, u)
            assert pp.values.tolist() == pytest.approx(pq.values.tolist(), abs=1e-12)
            assert pp.weights.tolist() == pytest.approx(pq.weights.tolist(), abs=1e-12)

