import math
import tracemalloc
from itertools import product as cartesian

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkit.directions import Direction, Frame, extract_frame, frame_constant, sample_uniform
from cwkit.errors import OrderExceeded, RankDeficient
from cwkit.moments import (_BLOCK_BYTES, MixedMoments, MomentSequence, carleman_partial_sums,
                           empirical_moments, homogeneous_dim, mixed_to_directional,
                           moment_sequence, multi_indices, multi_indices_upto, multinomial,
                           reconstruct_mixed, rm_residual)
from cwkit.gallery import Gaussian, ProductLognormal, mixed_moments_of
from cwkit.projections import Empirical, Projected1D, project
from cwkit.directions import Cap, FullSphere, sample_in_region


def law(values, weights):
    return Projected1D(np.asarray(values, float), np.asarray(weights, float))


def random_atomic(rng, d, k):
    pts = rng.uniform(-1.5, 1.5, size=(k, d))
    w = rng.uniform(0.2, 1.0, size=k)
    return Empirical(pts, w / w.sum())


# ---------------------------------------------------------------------------
# multi-index layer
# ---------------------------------------------------------------------------

class TestMultiIndices:
    def test_graded_lex_layout_frozen(self):
        assert multi_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]
        assert multi_indices_upto(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_brute_force_count(self):
        # stars and bars, by exhaustive enumeration
        for d, m in [(2, 3), (3, 4), (4, 2)]:
            brute = [a for a in cartesian(range(m + 1), repeat=d) if sum(a) == m]
            assert len(multi_indices(d, m)) == len(brute) == homogeneous_dim(d, m)
            assert set(multi_indices(d, m)) == set(brute)

    def test_returned_lists_are_fresh(self):
        # enumerations are cached; a caller's changes must not reach the cache
        first = multi_indices(3, 2)
        first[0] = (9, 9, 9)
        first.append((0, 0, 0))
        assert multi_indices(3, 2) == [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                                       (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        upto = multi_indices_upto(2, 1)
        upto.clear()
        assert multi_indices_upto(2, 1) == [(0, 0), (1, 0), (0, 1)]

    def test_homogeneous_dim_values(self):
        assert homogeneous_dim(2, 3) == 4
        assert homogeneous_dim(7, 0) == 1
        assert homogeneous_dim(3, 4) == 15

    def test_multinomial_matches_factorials(self):
        for alpha in multi_indices(3, 5):
            expect = math.factorial(5) // np.prod([math.factorial(a) for a in alpha])
            assert multinomial(5, alpha) == expect


# ---------------------------------------------------------------------------
# empirical moments
# ---------------------------------------------------------------------------

class TestEmpiricalMoments:
    def test_point_mass_at_zero(self):
        ms = empirical_moments(law([0.0], [1.0]), 6)
        assert ms.values.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert ms.log_values.tolist() == [0.0] + [-np.inf] * 6

    def test_rademacher(self):
        ms = empirical_moments(law([-1.0, 1.0], [0.5, 0.5]), 7)
        assert ms.values.tolist() == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]

    def test_gaussian_fourth_moment(self):
        # m_4 = 3 for N(0,1); MC s.e. is sqrt((m_8 - m_4^2)/n) ~ 0.0098 at n=1e6
        rng = np.random.default_rng(7)
        v = rng.standard_normal(10**6)
        ms = empirical_moments(law(v, np.full(v.size, 1e-6)), 4)
        assert ms.values[4] == pytest.approx(3.0, abs=0.05)

    def test_overflow_reported_not_raised(self):
        ms = empirical_moments(law([1e200, -1e200], [0.5, 0.5]), 4)
        assert np.flatnonzero(~np.isfinite(ms.values))[0] == 2
        # the logs stay exact: log m_2k = 2k log 1e200, and m_1 = 0 exactly
        assert ms.log_values[1] == -np.inf
        assert ms.log_values[2::2] == pytest.approx([400 * np.log(10.0), 800 * np.log(10.0)],
                                                    rel=1e-14)

    @pytest.mark.parametrize("values, weights", [
        (np.random.default_rng(3).standard_normal(1001), None),
        (np.random.default_rng(4).uniform(-3.0, 5.0, 64),
         np.random.default_rng(5).uniform(0.1, 1.0, 64)),
        (np.array([-4.0, -0.75, 0.5, 1.25, 3.0]), np.array([0.1, 0.2, 0.3, 0.15, 0.25])),
    ], ids=["sample", "weighted", "max-power-of-two"])
    def test_finite_values_bit_equal_to_power_loop(self, values, weights):
        # scaling by a power of two does not round: every finite moment equals
        # the pairwise sum of the unscaled powers bit for bit
        points = np.column_stack([values, np.zeros(values.size)])
        source = Empirical(points, None if weights is None else weights / weights.sum())
        proj = project(source, Direction(np.array([1.0, 0.0])))
        ms = empirical_moments(proj, 40)
        power = np.ones_like(proj.values)
        for k in range(1, 41):
            power = power * proj.values
            assert ms.values[k] == float(np.sum(power * proj.masses())), k
            assert ms.log_values[k] == pytest.approx(np.log(abs(ms.values[k])),
                                                     rel=1e-14, abs=1e-14)


# ---------------------------------------------------------------------------
# Carleman
# ---------------------------------------------------------------------------

def gaussian_even_moments(M):
    """m_{2m} = (2m-1)!! as floats, exact logs alongside."""
    vals = np.ones(2 * M + 1)
    logs = np.zeros(2 * M + 1)
    for k in range(1, 2 * M + 1):
        if k % 2 == 0:
            vals[k] = float(mpmath.fac2(k - 1))
            logs[k] = float(mpmath.log(mpmath.fac2(k - 1)))
        else:
            vals[k], logs[k] = 0.0, -np.inf
    return MomentSequence(values=vals, log_values=logs)


def lognormal_even_moments(M, scale=1.0):
    """m_k = scale^k e^{k^2/2}: overflows float64 from k = 38 on at scale 1,
    logs stay exact."""
    ks = np.arange(2 * M + 1)
    logs = ks**2 / 2.0 + ks * np.log(scale)
    with np.errstate(over="ignore"):
        vals = np.exp(logs)
    return MomentSequence(values=vals, log_values=logs)


class TestCarleman:
    def test_gaussian_partial_sum_and_verdict(self):
        # oracle: arbitrary-precision sum of ((2m-1)!!)^{-1/(2m)}
        M = 100
        with mpmath.workdps(50):
            oracle = float(sum(mpmath.fac2(2 * m - 1) ** (mpmath.mpf(-1) / (2 * m))
                               for m in range(1, M + 1)))
        rep = carleman_partial_sums(gaussian_even_moments(M), M)
        assert rep.verdict == "diverging"
        assert 20.0 <= rep.partial_sums[-1] <= 24.0
        assert rep.partial_sums[-1] == pytest.approx(oracle, rel=1e-12)
        # terms behave like sqrt(e/(2m)) for large m
        assert rep.terms[-1] == pytest.approx(np.sqrt(np.e / 200), rel=0.01)

    def test_lognormal_limit(self):
        rep = carleman_partial_sums(lognormal_even_moments(30), 30)
        assert rep.verdict == "converging"
        assert rep.partial_sums[-1] == pytest.approx(1 / (np.e - 1), abs=1e-5)
        assert rep.terms.tolist() == pytest.approx(np.exp(-np.arange(1, 31)).tolist())
        # the tail ratio t_30 / t_1 = e^{-29} does not depend on the scale
        for scale in (1e-3, 1e4, 1e10):
            assert carleman_partial_sums(lognormal_even_moments(30, scale), 30).verdict == "converging"

    def test_point_mass_compact_support_convention(self):
        ms = empirical_moments(law([0.0], [1.0]), 12)
        rep = carleman_partial_sums(ms, 6)
        assert rep.verdict == "diverging"
        assert rep.note == "zero even moment: compact support"

    def test_sequence_without_exact_logs_refused(self):
        vals = np.ones(11)
        with pytest.raises(TypeError):
            MomentSequence(vals)
        for bad in (np.nan, np.inf):
            logs = np.zeros(11)
            logs[5] = bad
            with pytest.raises(ValueError, match="log_values"):
                MomentSequence(vals, logs)
        # an overflowed value is fine: its log carries it
        vals[10] = np.inf
        logs = np.zeros(11)
        logs[10] = 800.0
        assert carleman_partial_sums(MomentSequence(vals, logs), 5).terms[-1] == np.exp(-80.0)

    def test_partial_sums_nondecreasing(self):
        rep = carleman_partial_sums(gaussian_even_moments(40), 40)
        assert np.all(np.diff(rep.partial_sums) >= 0.0)

    def test_order_shortage_raises(self):
        with pytest.raises(OrderExceeded):
            carleman_partial_sums(gaussian_even_moments(5), 20)

    @pytest.mark.parametrize("law, M, want", [
        ("lognormal", 12, "inconclusive"), ("lognormal", 16, "inconclusive"),
        ("atomic", 12, None), ("atomic", 16, "diverging"), ("atomic", 30, "diverging")])
    def test_scan_verdicts_do_not_depend_on_scale(self, law, M, want):
        # every t_m scales by 1/c when the data scale by c, so no verdict may
        # change with c. A lognormal scaled by c is lognormal with mu = log c;
        # the exact measure is 1 000 N(0, I_3) draws plus one atom of mass 1e-9
        # at 1e3 (at 1e10 after scaling by 1e7). An absolute Cauchy cut-off
        # read both as converging once scaled up. From c = 1e3 on (M = 30) and
        # c = 1e7 (M = 16) the measure's top moment overflows float64, so the
        # scan must read it through its exact log
        dirs = sample_in_region(FullSphere(3), 6, seed=0)
        points = np.vstack([np.random.default_rng(0).standard_normal((1000, 3)),
                            [[1e3, 0.0, 0.0]]])
        weights = np.append(np.full(1000, (1 - 1e-9) / 1000), 1e-9)

        def verdicts(c):
            p = (ProductLognormal(np.full(3, np.log(c)), np.ones(3)) if law == "lognormal"
                 else Empirical(c * points, weights))
            return [carleman_partial_sums(moment_sequence(p, u, 2 * M), M).verdict
                    for u in dirs]

        at_one = verdicts(1.0)
        if want is not None:
            # the lognormal's tail ratio t_M / t_1 is e^{1-M}; the exact
            # measure's terms level off near 1 / (1e3 |u_1|)
            assert at_one == [want] * 6
        for c in (1e-3, 1e3, 1e4, 1e7, 2.0**30):
            assert verdicts(c) == at_one, c


# ---------------------------------------------------------------------------
# directional and mixed moments
# ---------------------------------------------------------------------------

class TestDirectionalMoment:
    def test_order_zero_is_one(self):
        rng = np.random.default_rng(0)
        m = random_atomic(rng, 3, 4)
        u = Direction.from_vector(rng.standard_normal(3))
        assert moment_sequence(m, u, 1).values[0] == 1.0

    def test_point_mass_mean(self):
        m = Empirical(np.array([[1.0, 2.0]]), np.array([1.0]))
        assert moment_sequence(m, Direction(np.array([0.0, 1.0])), 1).values[1] == 2.0

    def test_standard_gaussian_second_moment(self):
        g = Gaussian.standard(2)
        for u in sample_uniform(2, 5, seed=3):
            assert moment_sequence(g, u, 2).values[2] == pytest.approx(1.0, abs=1e-12)

    def test_sample_set_average(self):
        s = Empirical(np.array([[1.0, 0.0], [3.0, 0.0]]))
        assert moment_sequence(s, Direction(np.array([1.0, 0.0])), 2).values[2] == 5.0


class TestMixedToDirectional:
    def test_first_order_is_mean_inner_product(self):
        rng = np.random.default_rng(5)
        meas = random_atomic(rng, 3, 6)
        mm = MixedMoments.from_sample(meas, 1)
        mean = meas.weights @ meas.points
        for u in sample_uniform(3, 4, seed=9):
            assert mixed_to_directional(mm, u, 1) == pytest.approx(float(mean @ u.coords), abs=1e-14)

    def test_isotropic_second_order(self):
        table = {(0, 0): 1.0, (1, 0): 0.0, (0, 1): 0.0, (2, 0): 1.0, (1, 1): 0.0, (0, 2): 1.0}
        assert list(table) == multi_indices_upto(2, 2)
        mm = MixedMoments(dim=2, max_order=2, values=list(table.values()))
        for u in sample_uniform(2, 6, seed=1):
            assert mixed_to_directional(mm, u, 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", range(7))
    def test_agrees_with_direct_path(self, m):
        # two independent evaluation routes must agree to 1e-12
        rng = np.random.default_rng(m)
        meas = random_atomic(rng, 3, 5)
        mm = MixedMoments.from_sample(meas, 6)
        for u in sample_uniform(3, 3, seed=m):
            direct = meas.expect((meas.points @ u.coords) ** m)
            via_mm = mixed_to_directional(mm, u, m)
            assert via_mm == pytest.approx(direct, abs=1e-12)

    def test_order_exceeded(self):
        mm = MixedMoments(dim=2, max_order=1, values=[1.0, 0.0, 0.0])
        with pytest.raises(OrderExceeded):
            mixed_to_directional(mm, Direction(np.array([1.0, 0.0])), 2)


class TestStandardErrors:
    def test_sample_se_matches_power_monomials(self):
        # the table multiplies one coordinate factor at a time, the reference
        # takes each coordinate's power with **: from exponent 3 on, or with
        # two coordinates, the two round differently in the last bits
        pts = np.random.default_rng(8).standard_normal((2000, 4))
        mm = MixedMoments.from_sample(Empirical(pts), 6)
        alphas = multi_indices_upto(4, 6)
        assert mm.se.shape == (len(alphas),)
        for alpha, se in zip(alphas, mm.se.tolist()):
            mono = np.ones(pts.shape[0])
            for j, a in enumerate(alpha):
                if a:
                    mono = mono * pts[:, j] ** a
            expected = np.std(mono) / np.sqrt(pts.shape[0])
            assert abs(se - expected) <= 1e-12 * expected

    @staticmethod
    def loop_reference(source, max_order):
        # a power table of shape (n, order + 1, d) and a fresh monomial array
        # per alpha, multiplied up one power at a time, reduced by numpy alone
        points, dim, n = source.points, source.dim, source.n
        pows = np.ones((n, max_order + 1, dim))
        for k in range(1, max_order + 1):
            pows[:, k, :] = pows[:, k - 1, :] * points
        table, se = {}, {}
        for alpha in multi_indices_upto(dim, max_order):
            mono = np.ones(n)
            for j, a in enumerate(alpha):
                if a:
                    mono = mono * pows[:, a, j]
            if source.weights is None:
                table[alpha] = float(np.mean(mono))
                se[alpha] = float(np.std(mono) / np.sqrt(n))
            else:
                table[alpha] = float(np.sum(source.weights * mono))
        return table, se

    @staticmethod
    def factor_reference(source, max_order):
        # a fresh monomial array per alpha, multiplied by x_j one factor at a
        # time in coordinate order, reduced by numpy alone; also E|x^alpha|
        points, dim, n = source.points, source.dim, source.n
        weights = np.full(n, 1.0 / n) if source.weights is None else source.weights
        table, se, size = {}, {}, {}
        for alpha in multi_indices_upto(dim, max_order):
            mono = np.ones(n)
            for j, a in enumerate(alpha):
                for _ in range(a):
                    mono = mono * points[:, j]
            if source.weights is None:
                table[alpha] = float(np.mean(mono))
                se[alpha] = float(np.std(mono) / np.sqrt(n))
            else:
                table[alpha] = float(np.sum(source.weights * mono))
            size[alpha] = float(weights @ np.abs(mono))
        return table, se, size

    @staticmethod
    def heavy_source(d, order, n, weighted):
        rng = np.random.default_rng(100 * d + order)
        # heavy tails, signed zeros and exact integers next to Gaussian draws
        pts = rng.standard_normal((n, d)) * np.exp(rng.standard_normal((n, d)))
        pts[::7, 0] = -0.0
        pts[1::5, -1] = np.round(pts[1::5, -1])
        if weighted:
            w = rng.uniform(0.05, 1.0, n)
            return Empirical(pts, w / w.sum())
        return Empirical(pts)

    @pytest.mark.parametrize("d, order, n, weighted", [
        (1, 0, 1, False), (1, 9, 300, False), (3, 7, 500, True),
        (4, 6, 2000, False), (8, 6, 400, False), (8, 4, 300, True),
        # no monomial beyond alpha = 0, and none beyond the coordinates
        (3, 0, 50, False), (3, 0, 50, True), (4, 1, 60, False), (4, 1, 60, True),
        # two orders: no stack row; one coordinate: chains of first children only
        (5, 2, 70, False), (1, 6, 40_000, False),
        # n above one 256 KiB block, so one row per block
        (2, 4, 40_000, False), (3, 4, 40_000, True),
        # 56 alphas in blocks of 3 rows, the last block short
        (3, 5, 10_000, False),
        # chains five factors deep, one row per block
        (5, 5, 30_000, False),
        # fewer orders than coordinates, weighted
        (8, 3, 200, True),
    ])
    def test_table_bit_equal_to_loop(self, d, order, n, weighted):
        source = self.heavy_source(d, order, n, weighted)
        mm = MixedMoments.from_sample(source, order)
        table, se, _ = self.factor_reference(source, order)
        mm_se = ({} if mm.se is None
                 else dict(zip(multi_indices_upto(d, order), mm.se.tolist(), strict=True)))
        assert list(mm.table) == list(table) and list(mm_se) == list(se)
        assert np.array(list(mm.table.values())).tobytes() == np.array(list(table.values())).tobytes()
        assert mm.values.tobytes() == np.array(list(table.values())).tobytes()
        assert np.array(list(mm_se.values())).tobytes() == np.array(list(se.values())).tobytes()

    @pytest.mark.parametrize("d, order, n, weighted", [
        (1, 9, 300, False), (3, 7, 500, True), (4, 6, 2000, False),
        (8, 6, 400, False), (8, 4, 300, True), (3, 5, 10_000, False),
    ])
    def test_table_near_power_loop(self, d, order, n, weighted):
        # the table and a product of whole powers differ in rounding alone
        source = self.heavy_source(d, order, n, weighted)
        mm = MixedMoments.from_sample(source, order)
        table, se = self.loop_reference(source, order)
        _, _, size = self.factor_reference(source, order)
        values, sizes = np.array(list(table.values())), np.array(list(size.values()))
        assert np.all(np.abs(mm.values - values) <= 1e-13 * sizes)
        if not weighted:
            errs = np.array(list(se.values()))
            assert np.all(np.abs(mm.se - errs) <= 1e-13 * errs)

    @pytest.mark.parametrize("d, order, n, weighted", [
        (3, 4, 100_000, False), (3, 4, 100_000, True),
        (8, 6, 10_000, False), (8, 6, 10_000, True),
    ])
    def test_working_set(self, d, order, n, weighted):
        # the coordinate rows, the stack and the block (twice: a sample
        # centres it into a second block, a measure's expect multiplies it
        # by the weights) bound the table's memory peak
        rng = np.random.default_rng(d)
        pts = rng.standard_normal((n, d))
        w = rng.uniform(0.05, 1.0, n)
        source = Empirical(pts, w / w.sum()) if weighted else Empirical(pts)
        MixedMoments.from_sample(Empirical(pts[:2]), order)  # the walk, cached
        per_block = max(1, _BLOCK_BYTES // 8 // n)
        tracemalloc.start()
        try:
            MixedMoments.from_sample(source, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (d + order - 1 + 2 * per_block) * n * 8 + 64 * 1024

    def test_exact_sources_have_none(self):
        rng = np.random.default_rng(3)
        assert MixedMoments.from_sample(random_atomic(rng, 3, 5), 4).se is None
        assert mixed_moments_of(Gaussian.standard(2), 4).se is None
        values = [1.0, 0.0, 0.0]
        assert MixedMoments(dim=2, max_order=1, values=values).se is None
        with pytest.raises(TypeError):
            MixedMoments(dim=2, max_order=1, values=values, se=None)


class TestReconstruct:
    def cap_directions(self, d, count, seed):
        return sample_in_region(Cap(Direction(np.eye(d)[0]), np.pi / 3), count, seed)

    @pytest.mark.parametrize("d,m", [(2, 3), (3, 4), (4, 6)])
    def test_round_trip(self, d, m):
        rng = np.random.default_rng(10 * d + m)
        dim = homogeneous_dim(d, m)
        table = dict(zip(multi_indices(d, m), rng.uniform(-1, 1, dim)))
        full = {a: 0.0 for a in multi_indices_upto(d, m)}
        full[(0,) * d] = 1.0
        full.update(table)
        mm = MixedMoments(dim=d, max_order=m, values=list(full.values()))
        dirs = self.cap_directions(d, dim + 5, seed=100 * d + m)
        obs = [(u, mixed_to_directional(mm, u, m)) for u in dirs]
        rec = reconstruct_mixed(obs, d, m)
        truth = np.array([table[a] for a in rec.exponents])
        err = np.max(np.abs(rec.coefficients - truth)) / np.max(np.abs(truth))
        assert err <= 1e-8
        assert rec.residual_norm <= 1e-8
        assert rec.condition_number < 1e8

    def test_repeated_direction_rank_deficient(self):
        u = Direction(np.array([1.0, 0.0]))
        obs = [(u, 1.0)] * 5
        with pytest.raises(RankDeficient):
            reconstruct_mixed(obs, 2, 2)

    def test_too_few_observations_rank_deficient(self):
        dirs = self.cap_directions(2, 2, seed=0)
        obs = [(u, 0.0) for u in dirs]
        with pytest.raises(RankDeficient):
            reconstruct_mixed(obs, 2, 2)

    def test_zero_observations_give_zero_polynomial(self):
        dirs = self.cap_directions(2, 9, seed=4)
        rec = reconstruct_mixed([(u, 0.0) for u in dirs], 2, 3)
        assert np.allclose(rec.coefficients, 0.0, atol=1e-14)


class TestRmResidual:
    def test_equal_tables_vanish(self):
        rng = np.random.default_rng(2)
        meas = random_atomic(rng, 2, 4)
        mm = MixedMoments.from_sample(meas, 5)
        for u in sample_uniform(2, 5, seed=5):
            for m in range(1, 6):
                assert rm_residual(mm, mm, u, m) == 0.0

    def test_switching_pair_brute_force(self):
        from cwkit.gallery import switching_pair

        p, q, _ = switching_pair([[1, 0], [0, 1]])
        p_mm = MixedMoments.from_sample(p, 6)
        q_mm = MixedMoments.from_sample(q, 6)
        for u in sample_uniform(2, 10, seed=8):
            for m in range(7):
                brute = (float(q.weights @ (q.points @ u.coords) ** m)
                         - float(p.weights @ (p.points @ u.coords) ** m))
                assert rm_residual(p_mm, q_mm, u, m) == pytest.approx(brute, abs=1e-12)

    def test_translation_first_order(self):
        rng = np.random.default_rng(9)
        meas = random_atomic(rng, 3, 5)
        shift = np.array([0.3, -1.2, 0.7])
        translated = Empirical(meas.points + shift, meas.weights)
        p_mm = MixedMoments.from_sample(meas, 1)
        q_mm = MixedMoments.from_sample(translated, 1)
        for u in sample_uniform(3, 5, seed=11):
            assert rm_residual(p_mm, q_mm, u, 1) == pytest.approx(float(shift @ u.coords), abs=1e-12)


def frame_bound_sides(x, frame, m):
    """Pointwise ||x||^m and C^m d^(m-1) sum_j |<u_j, x>|^m, C the frame constant."""
    d = frame.dim
    lhs = np.linalg.norm(x, axis=1) ** m
    proj = np.abs(x @ frame.matrix.T) ** m
    rhs = frame_constant(frame)**m * d ** (m - 1) * np.sum(proj, axis=1)
    return lhs, rhs


class TestAbsoluteMomentBound:
    def test_orthonormal_first_order(self):
        rng = np.random.default_rng(1)
        frame = Frame([Direction(np.eye(3)[i]) for i in range(3)])
        lhs, rhs = frame_bound_sides(rng.standard_normal((500, 3)), frame, 1)
        assert np.all(lhs <= rhs)

    def test_single_point_on_frame_direction(self):
        frame = Frame([Direction(np.eye(2)[i]) for i in range(2)])
        lhs, rhs = frame_bound_sides(np.array([[1.0, 0.0]]), frame, 2)
        assert lhs[0] == 1.0
        assert lhs[0] <= rhs[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_pointwise_inequality_random_frames(self, seed):
        d = 2 + seed % 3
        frame = extract_frame(sample_uniform(d, 20 * d, seed=seed))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((10**4, d))
        for m in range(1, 9):
            lhs, rhs = frame_bound_sides(x, frame, m)
            assert np.all(lhs <= rhs * (1 + 1e-12))


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 8), m=st.integers(0, 6))
def test_multi_indices_partition_property(d, m):
    idx = multi_indices(d, m)
    assert len(idx) == homogeneous_dim(d, m)
    assert len(set(idx)) == len(idx)
    assert all(sum(a) == m for a in idx)
    assert idx == sorted(idx, reverse=True)
