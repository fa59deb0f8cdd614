import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkit.directions import (Cap, Direction, FiniteSet, Frame, FullSphere,
                              extract_frame, parse_region, sample_in_region, sample_uniform)
from cwkit.errors import DimensionMismatch, InsufficientRank
from cwkit.gallery import Gaussian, ProductLognormal, sample, switching_pair
from cwkit.projections import AtomicMeasure, DistanceTrace, SampleSet, ks_distance, project
from cwkit.verdict import (VerdictConfig, _kendall_tau_b, aggregate_overall, h1_check,
                           h2_check, moment_match, run_verdict, tightness_box)

from test_projections import ref_ks


def ident_frame(d):
    return Frame([Direction(np.eye(d)[i]) for i in range(d)])


def trace_of(distances, sizes=None):
    distances = np.asarray(distances, float)
    n = distances.size
    sizes = np.asarray(sizes) if sizes is not None else np.full(n, 100)
    return DistanceTrace(direction=Direction(np.array([1.0, 0.0])), metric="ks",
                         sizes=sizes, distances=distances)


class TestTightnessBox:
    def test_point_mass_zero_box(self):
        seq = [SampleSet(np.zeros((10, 2))), SampleSet(np.zeros((5, 2)))]
        box = tightness_box(seq, ident_frame(2), 0.1)
        assert box.half_widths.tolist() == [0.0, 0.0]
        assert box.achieved_coverage == (1.0, 1.0)

    def test_gaussian_quantile(self):
        # 1 - eps/d = 0.95 on |N(0,1)|: the 0.975 two-sided quantile, 1.96
        seq = [sample(Gaussian.standard(2), 10**4, seed=3)]
        box = tightness_box(seq, ident_frame(2), 0.1)
        assert np.all(np.abs(box.half_widths - 1.95996) < 0.1)

    def test_coverage_at_least_building_guarantee(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            d = int(rng.integers(2, 5))
            eps = float(rng.uniform(0.02, 0.5))
            seq = [SampleSet(rng.standard_normal((int(rng.integers(3, 400)), d)))
                   for _ in range(int(rng.integers(1, 4)))]
            frame = extract_frame(sample_uniform(d, 10 * d, seed=trial))
            box = tightness_box(seq, frame, eps)
            assert min(box.achieved_coverage) >= 1 - eps - 1e-9

    def test_holdout_coverage(self):
        build = [sample(Gaussian.standard(2), 10**4, seed=21)]
        box = tightness_box(build, ident_frame(2), 0.1)
        holdout = sample(Gaussian.standard(2), 10**4, seed=22)
        assert box.coverage(holdout) >= 0.8  # 1 - 2 eps

    def test_tied_rows_keep_building_guarantee(self):
        # draws from a 3-atom measure put hundreds of tied rows at each
        # quantile: the box and its coverage must see the same projected bits
        meas = AtomicMeasure(np.array([[1.0, 0.5, -0.3], [-0.5, 1.5, 0.7], [0.25, -1.0, 2.0]]),
                             np.array([0.5, 0.25, 0.25]))
        seq = [sample(meas, n, seed=i) for i, n in enumerate((1000, 2000, 3000), start=1)]
        q = 1.0 - 0.1 / 3
        for seed in range(20):
            frame = extract_frame(sample_in_region(FullSphere(3), 20, seed))
            box = tightness_box(seq, frame, 0.1)
            assert min(box.achieved_coverage) >= 0.9 - 1e-9
            for j, u_row in enumerate(frame.matrix):
                assert box.half_widths[j] == max(
                    np.quantile(np.abs(e.points @ u_row), q, method="higher") for e in seq)

    def test_atomic_weighted_quantile(self):
        m = AtomicMeasure(np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([0.96, 0.04]))
        box = tightness_box([m], ident_frame(2), 0.1)
        # 95th percentile of |x1| under weights (0.96, 0.04) is 0
        assert box.half_widths[0] == 0.0
        assert box.coverage(m) >= 0.9


class TestH1Check:
    def test_constant_zero_passes_both_rules(self):
        tr = trace_of([0.0, 0.0, 0.0])
        for rule in ("final_below", "monotone_trend"):
            (res,) = h1_check([tr], tolerance=0.05, rule=rule)
            assert res.passed
            assert res.reason == "ok"

    def test_shrinking_trace_passes(self):
        tr = trace_of([1.0, 0.5, 0.25, 0.01], sizes=[10, 100, 1000, 10000])
        (res,) = h1_check([tr], tolerance=0.05, rule="final_below")
        assert res.passed
        (res,) = h1_check([tr], tolerance=0.05, rule="monotone_trend")
        assert res.passed
        assert res.kendall_tau == -1.0

    def test_flat_trace_fails_with_reason(self):
        tr = trace_of([0.3, 0.3, 0.3])
        (res,) = h1_check([tr], tolerance=0.05, rule="final_below")
        assert not res.passed
        assert res.reason == "final_distance_exceeds"

    def test_trend_failure_reason(self):
        tr = trace_of([0.01, 0.02, 0.04, 0.049], sizes=[10, 100, 1000, 10000])
        (res,) = h1_check([tr], tolerance=0.05, rule="monotone_trend")
        assert not res.passed
        assert res.reason == "trend_not_decreasing"


@pytest.mark.parametrize("seed", range(4))
def test_kendall_tau_b_bit_equal_to_scipy(seed):
    # pins the pair count to the reference implementation on short traces
    # with ties in both coordinates, as h1_check calls it
    kendalltau = pytest.importorskip("scipy.stats").kendalltau
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        sizes = np.sort(rng.integers(1, 6, n)) * 100
        distances = rng.integers(0, int(rng.integers(1, 7)), n) / 7.0
        if np.ptp(sizes) == 0 or np.ptp(distances) == 0:
            continue
        want = float(kendalltau(sizes, distances).statistic)
        assert np.float64(_kendall_tau_b(sizes, distances)).tobytes() == np.float64(want).tobytes()
        checked += 1
    assert checked > 300


class TestH2Check:
    def test_gaussian_all_diverging(self):
        reports = h2_check(Gaussian.standard(3), ident_frame(3), 20)
        assert [r.verdict for r in reports] == ["diverging"] * 3

    def test_lognormal_axis_frame_converging(self):
        # t_m = e^{-m}: the tail is Cauchy (< 1e-9) from m = 21 on, so the
        # heuristic needs M = 30 to call it
        reports = h2_check(ProductLognormal.standard(2), ident_frame(2), 30)
        assert [r.verdict for r in reports] == ["converging"] * 2

    def test_bounded_atomic_diverging(self):
        m = AtomicMeasure(np.array([[1.0, 0.0], [-1.0, 2.0]]), np.array([0.5, 0.5]))
        reports = h2_check(m, ident_frame(2), 10)
        assert all(r.verdict == "diverging" for r in reports)

    def test_sample_target_reliability_note(self):
        target = sample(Gaussian.standard(2), 100, seed=5)
        reports = h2_check(target, ident_frame(2), 12)
        # order 24 > 2 * 100^{1/4} ~ 6.3: flagged
        assert all("noise-dominated" in r.note for r in reports)


class TestMomentMatch:
    def test_gaussian_sample_within_se(self):
        g = Gaussian.standard(2)
        q = sample(g, 10**5, seed=31)
        rows = moment_match(g, q, 4)
        assert all(r.passed for r in rows)
        assert [r.order for r in rows] == [1, 2, 3, 4]

    def test_atomic_exact_zero(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(6, 2))
        w = rng.uniform(0.5, 1.0, 6)
        m = AtomicMeasure(pts, w / w.sum())
        rows = moment_match(m, m, 3)
        assert all(r.max_abs_discrepancy == 0.0 and r.passed for r in rows)

    def test_switching_pair_order_two_gap(self):
        p, q, _ = switching_pair([[1, 0], [0, 1]])
        rows = moment_match(p, q, 2)
        gap = {r.order: r.max_abs_discrepancy for r in rows}
        assert gap[1] == 0.0  # same means
        assert gap[2] > 0.1  # mu_11 differs by 1/2
        assert rows[1].worst_alpha == (1, 1)

    def test_explicit_tolerances(self):
        p, q, _ = switching_pair([[1, 0], [0, 1]])
        rows = moment_match(p, q, 2, per_order_tolerances=(0.01, 0.6))
        assert rows[0].passed and rows[1].passed
        rows = moment_match(p, q, 2, per_order_tolerances=(0.01, 0.4))
        assert not rows[1].passed


class TestAggregation:
    class Stub:
        def __init__(self, passed):
            self.passed = passed

    def agg(self, h1, carleman, moments, flags=()):
        return aggregate_overall([self.Stub(p) for p in h1], carleman,
                                 [self.Stub(p) for p in moments], flags)

    def test_all_pass(self):
        assert self.agg([True, True], ["diverging"], [True]) == "consistent_with_convergence"

    def test_h1_failure_inconsistent(self):
        assert self.agg([True, False], ["diverging"], [True]) == "inconsistent"

    def test_moment_failure_inconsistent(self):
        assert self.agg([True], ["diverging"], [False]) == "inconsistent"

    def test_carleman_inconclusive(self):
        assert self.agg([True], ["diverging", "inconclusive"], [True]) == "inconclusive"

    def test_carleman_converging_blocks(self):
        assert self.agg([True], ["diverging", "converging"], [True]) == "inconclusive"

    def test_zero_measure_region_wins(self):
        assert self.agg([True], ["diverging"], [False],
                        flags=("zero_measure_region",)) == "inconclusive"

    @settings(max_examples=100, deadline=None)
    @given(h1=st.lists(st.booleans(), min_size=1, max_size=5),
           carleman=st.lists(st.sampled_from(["diverging", "converging", "inconclusive"]),
                             min_size=1, max_size=4),
           moments=st.lists(st.booleans(), min_size=1, max_size=4))
    def test_invariant_positive_measure(self, h1, carleman, moments):
        out = self.agg(h1, carleman, moments)
        failed = (not all(h1)) or (not all(moments))
        if failed:
            assert out == "inconsistent"
        elif set(carleman) == {"diverging"}:
            assert out == "consistent_with_convergence"
        else:
            assert out == "inconclusive"


@pytest.mark.parametrize("field, value", [
    ("metric", "l2"),
    ("h1_rule", "median"),
    ("n_directions", 0),
    ("moment_order", 0),
    ("carleman_order", 4),
    ("epsilon", 0.0),
    ("epsilon", 1.0),
    ("epsilon", float("nan")),
    ("moment_tolerances", (0.1,)),
    ("h1_tolerance", float("nan")),
    ("h1_tolerance", float("inf")),
    ("h1_tolerance", 0.0),
    ("h1_tolerance", -1.0),
    ("moment_tolerances", (0.1, 0.0)),
    ("moment_tolerances", (float("nan"), 0.1)),
    ("moment_tolerances", (0.1, -1.0)),
    ("moment_se_multiplier", float("nan")),
    ("moment_se_multiplier", 0.0),
    ("moment_se_multiplier", -5.0),
])
def test_config_rejects(field, value):
    # moment_order 2 with two tolerances is valid; each case breaks one field
    base = dict(region=FullSphere(2), moment_order=2, moment_tolerances=(0.1, 0.2))
    VerdictConfig(**base)
    with pytest.raises(ValueError):
        VerdictConfig(**{**base, field: value})


def test_config_echo_lists_every_field_once():
    cfg = VerdictConfig(region=Cap(Direction(np.array([1.0, 0.0])), 0.5), moment_order=2,
                        moment_tolerances=[0.1, 0.2])
    assert cfg.echo() == {
        "region": "cap:1,0:0.5", "n_directions": 50, "metric": "ks", "h1_tolerance": None,
        "h1_rule": "final_below", "carleman_order": 12, "moment_order": 2, "epsilon": 0.1,
        "seed": 0, "frame_tau": 1e-6, "moment_tolerances": [0.1, 0.2],
        "moment_se_multiplier": 5.0, "reference_sample_size": 50_000, "max_draw_budget": None,
    }
    assert list(cfg.echo()) == [f.name for f in dataclasses.fields(VerdictConfig)]
    assert VerdictConfig(region=FullSphere(2)).echo()["moment_tolerances"] is None


def gaussian_sequence(d=2, base_seed=100):
    g = Gaussian.standard(d)
    return g, [sample(g, n, seed=base_seed + i) for i, n in enumerate((100, 1000, 10000))]


class TestRunVerdict:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_h1_distances_equal_pooled_reference(self, weighted):
        # the one trace pass over all directions, pair by pair against the
        # pooled reference kernel; rows on a coarse lattice tie across laws
        rng = np.random.default_rng(11)
        seq = [SampleSet(np.round(rng.standard_normal((n, 2)), 1)) for n in (40, 200, 800)]
        pts = np.round(rng.standard_normal((300, 2)), 1)
        if weighted:
            pts = np.unique(pts, axis=0)
            w = rng.uniform(0.05, 1.0, len(pts))
            target = AtomicMeasure(pts, w / w.sum())
        else:
            target = SampleSet(pts)
        config = VerdictConfig(region=Cap(Direction(np.array([1.0, 0.0])), 0.6), n_directions=6,
                               moment_order=2, carleman_order=6, seed=2)
        report = run_verdict(seq, target, config)
        assert len(report.h1_results) == 6
        for r in report.h1_results:
            u = r.trace.direction
            want = [ref_ks(project(elem, u), project(target, u)) for elem in seq]
            assert r.trace.distances.tobytes() == np.asarray(want).tobytes()

    def test_gaussian_consistent(self):
        g, seq = gaussian_sequence()
        report = run_verdict(seq, g, VerdictConfig(region=FullSphere(2), seed=7))
        assert report.overall == "consistent_with_convergence"
        assert all(r.passed for r in report.h1_results)
        assert all(r.verdict == "diverging" for r in report.carleman_reports)

    def test_shifted_target_inconsistent(self):
        _, seq = gaussian_sequence()
        shifted = Gaussian(np.array([1.0, 0.0]), np.eye(2))
        report = run_verdict(seq, shifted, VerdictConfig(region=FullSphere(2), seed=7))
        assert report.overall == "inconsistent"
        # KS between N(0,1) and N(u1,1) is 2 Phi(|u1|/2) - 1 ~ 0.38 at u1 = 1
        assert sum(not r.passed for r in report.h1_results) > 25

    def test_switching_finite_region_inconclusive(self):
        p, q, certified = switching_pair([[1, 0], [0, 1]])
        q_exact = SampleSet(q.points, label="q")
        config = VerdictConfig(region=FiniteSet(tuple(certified)), seed=1,
                               moment_order=2, carleman_order=6)
        report = run_verdict([q_exact, q_exact, q_exact], p, config)
        assert report.overall == "inconclusive"
        assert "zero_measure_region" in report.flags
        assert all(r.final_distance == 0.0 for r in report.h1_results)
        assert any(not r.passed for r in report.moment_table)

    def test_huge_scale_target_does_not_overflow(self):
        # variance 1e20: order-32 moments pass float64, their logs do not
        g = Gaussian(np.zeros(3), 1e20 * np.eye(3))
        seq = [sample(g, n, seed=i) for i, n in enumerate((200, 2000))]
        config = VerdictConfig(region=FullSphere(3), n_directions=5, carleman_order=16,
                               reference_sample_size=2000, seed=1)
        report = run_verdict(seq, g, config)
        assert [r.verdict for r in report.carleman_reports] == ["diverging"] * 3
        for u in report.frame.directions:
            seq32 = g.projected_even_moments(u, 32)
            assert seq32.values[32] == np.inf
            assert np.all(np.isfinite(seq32.log_values[0::2]))

    def test_deterministic_bytes(self):
        g, seq = gaussian_sequence()
        config = VerdictConfig(region=Cap(Direction(np.array([1.0, 0.0])), 2.0), seed=3)
        a = run_verdict(seq, g, config).to_json()
        b = run_verdict(seq, g, config).to_json()
        assert a == b

    # every axis and vector is typed off the sphere and renormalized on the way in
    @pytest.mark.parametrize("spec", ["cap:1,2:0.9", "union:2,1:0.5;-1,2:0.7",
                                      "finite:1,2;3,-1;1,1"])
    def test_recorded_config_replays_byte_identical(self, spec):
        g, seq = gaussian_sequence()
        config = VerdictConfig(region=parse_region(spec), n_directions=20, seed=3)
        text = run_verdict(seq, g, config).to_json()
        recorded = json.loads(text)["provenance"]["config"]
        replay = VerdictConfig(**{**recorded, "region": parse_region(recorded["region"])})
        assert run_verdict(seq, g, replay).to_json() == text

    def test_lognormal_target_flagged(self):
        ln = ProductLognormal.standard(2)
        seq = [sample(ln, n, seed=50 + n) for n in (200, 2000)]
        config = VerdictConfig(region=FullSphere(2), seed=5, carleman_order=30,
                               moment_order=2, reference_sample_size=10**4)
        report = run_verdict(seq, ln, config)
        assert "carleman_condition_failed" in report.flags

    def test_converging_carleman_blocks_overall(self):
        # the lognormal's projections fail Carleman's condition: every frame
        # direction comes back converging, which must not give a confident verdict
        ln = ProductLognormal.standard(3)
        seq = [sample(ln, n, seed=i) for i, n in enumerate((10**3, 10**4))]
        config = VerdictConfig(region=FullSphere(3), n_directions=12, carleman_order=24,
                               moment_order=1, reference_sample_size=10**4)
        report = run_verdict(seq, ln, config)
        assert [r.verdict for r in report.carleman_reports] == ["converging"] * 3
        assert "carleman_condition_failed" in report.flags
        assert report.overall == "inconclusive"

    def test_dimension_mismatch(self):
        g, seq = gaussian_sequence()
        with pytest.raises(DimensionMismatch):
            run_verdict(seq, Gaussian.standard(3), VerdictConfig(region=FullSphere(2)))

    def test_insufficient_rank_from_finite_region(self):
        u = Direction(np.array([1.0, 0.0]))
        g, seq = gaussian_sequence()
        config = VerdictConfig(region=FiniteSet((u, u)), seed=0)
        with pytest.raises(InsufficientRank):
            run_verdict(seq, g, config)

    def test_switching_pair_separated_by_random_directions(self):
        # directions distinguishing the pair are generic: with 50 uniform
        # draws, at least one shows KS > 0.2, checked over 100 seeds
        p, q, _ = switching_pair([[1, 0], [0, 1]])
        for seed in range(100):
            dirs = sample_in_region(FullSphere(2), 50, seed=seed)
            best = max(ks_distance(project(q, u), project(p, u)) for u in dirs)
            assert best > 0.2

    def test_aggregation_invariant_on_whole_runs(self):
        # fuzz full runs over random configs; the report invariant must hold
        rng = np.random.default_rng(555)
        g = Gaussian.standard(2)
        seq = [sample(g, 300, seed=61), sample(g, 900, seed=62)]
        targets = [g, Gaussian(np.array([0.8, 0.0]), np.eye(2)),
                   sample(g, 2000, seed=63)]
        for trial in range(12):
            config = VerdictConfig(
                region=FullSphere(2) if trial % 2 else Cap(Direction(np.array([0.0, 1.0])), 2.5),
                n_directions=int(rng.integers(2, 12)),
                metric=("ks", "w1")[trial % 2],
                h1_rule=("final_below", "monotone_trend")[(trial // 2) % 2],
                h1_tolerance=float(rng.uniform(0.01, 0.4)),
                carleman_order=int(rng.integers(5, 12)),
                moment_order=int(rng.integers(1, 4)),
                epsilon=float(rng.uniform(0.05, 0.4)),
                seed=int(rng.integers(0, 10**6)),
                reference_sample_size=4000,
            )
            report = run_verdict(seq, targets[trial % 3], config)
            h1_failed = any(not r.passed for r in report.h1_results)
            mm_failed = any(not r.passed for r in report.moment_table)
            carleman = [r.verdict for r in report.carleman_reports]
            if h1_failed or mm_failed:
                assert report.overall == "inconsistent"
            elif set(carleman) == {"diverging"}:
                assert report.overall == "consistent_with_convergence"
            else:
                assert report.overall == "inconclusive"


class TestSampleVersusMeasure:
    """One point cloud read as an i.i.d. sample and as an exact measure.

    The two readings must stay apart: a sample's quantiles, moment
    tolerances, Carleman notes and digest follow its Monte-Carlo nature,
    while uniform weights 1/n make an exact measure of the same points.
    """

    N = 1000

    @pytest.fixture
    def pair(self):
        pts = np.random.default_rng(2024).standard_normal((self.N, 2))
        assert np.unique(pts, axis=0).shape[0] == self.N
        return (SampleSet(pts, label="cloud"),
                AtomicMeasure(pts, np.full(self.N, 1.0 / self.N)))

    def test_tightness_quantiles_differ(self, pair):
        sample_set, measure = pair
        eps = 0.1
        q = 1.0 - eps / 2
        s_box = tightness_box([sample_set], ident_frame(2), eps)
        m_box = tightness_box([measure], ident_frame(2), eps)
        for j in range(2):
            v = np.abs(sample_set.points[:, j])
            assert s_box.half_widths[j] == np.quantile(v, q, method="higher")
            order = np.argsort(v, kind="stable")
            cum = np.cumsum(measure.weights[order])
            idx = int(np.searchsorted(cum, q - 1e-12, side="left"))
            assert m_box.half_widths[j] == v[order][idx]
        assert not np.array_equal(s_box.half_widths, m_box.half_widths)

    def test_moment_tolerances_differ(self, pair):
        sample_set, measure = pair
        target = Gaussian.standard(2)
        s_rows = moment_match(target, sample_set, 3)
        m_rows = moment_match(target, measure, 3)
        for row in s_rows:
            mono = np.prod(sample_set.points ** np.array(row.worst_alpha), axis=1)
            se = np.std(mono) / np.sqrt(self.N)
            assert row.tolerance == pytest.approx(max(5.0 * se, 1e-9), rel=1e-12)
            assert row.tolerance > 1e-6
        assert all(row.tolerance == 1e-9 for row in m_rows)
        for s_row, m_row in zip(s_rows, m_rows):
            assert s_row.max_abs_discrepancy == pytest.approx(m_row.max_abs_discrepancy,
                                                              rel=1e-9, abs=1e-15)

    def test_noise_note_only_for_sample(self, pair):
        sample_set, measure = pair
        s_reports = h2_check(sample_set, ident_frame(2), 12)
        m_reports = h2_check(measure, ident_frame(2), 12)
        assert all("noise-dominated at n=1000" in r.note for r in s_reports)
        assert not any("noise-dominated" in r.note for r in m_reports)
        for s_rep, m_rep in zip(s_reports, m_reports):
            assert s_rep.verdict == m_rep.verdict
            assert np.allclose(s_rep.terms, m_rep.terms, rtol=1e-12)

    def test_digest_label_only_for_sample(self, pair):
        sample_set, measure = pair
        relabelled = SampleSet(sample_set.points, label="other")
        assert sample_set.digest() != relabelled.digest()

        def sha(*parts):
            h = hashlib.sha256()
            for part in parts:
                h.update(part)
            return h.hexdigest()

        shape = str(measure.points.shape).encode()
        assert sample_set.digest() == sha(shape, sample_set.points.tobytes(), b"cloud")
        assert measure.digest() == sha(shape, measure.points.tobytes(),
                                       measure.weights.tobytes())
