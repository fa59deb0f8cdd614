import dataclasses
import hashlib
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkit.directions import (Cap, Direction, FiniteSet, Frame, FullSphere,
                              extract_frame, parse_region, sample_in_region, sample_uniform)
from cwkit.errors import DimensionMismatch, InsufficientRank
from cwkit.gallery import Gaussian, ProductLognormal, mixed_moments_of, sample, switching_pair
from cwkit.moments import MixedMoments, multi_indices, multi_indices_upto
from cwkit.projections import DistanceTrace, Empirical, ks_distance, project
from cwkit.verdict import (VerdictConfig, aggregate_overall, h1_check, h2_check, moment_match,
                           run_verdict, tightness_box)

from test_projections import EDGE_ATOMS, EDGE_WEIGHTS, ref_ks


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
        seq = [Empirical(np.zeros((10, 2))), Empirical(np.zeros((5, 2)))]
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
            seq = [Empirical(rng.standard_normal((int(rng.integers(3, 400)), d)))
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
        meas = Empirical(np.array([[1.0, 0.5, -0.3], [-0.5, 1.5, 0.7], [0.25, -1.0, 2.0]]),
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
        m = Empirical(np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([0.96, 0.04]))
        box = tightness_box([m], ident_frame(2), 0.1)
        # 95th percentile of |x1| under weights (0.96, 0.04) is 0
        assert box.half_widths[0] == 0.0
        assert box.coverage(m) >= 0.9


class TestH1Check:
    def test_constant_zero_passes(self):
        (res,) = h1_check([trace_of([0.0, 0.0, 0.0])], tolerance=0.05)
        assert res.passed
        assert res.reason == "ok"

    def test_shrinking_trace_passes(self):
        tr = trace_of([1.0, 0.5, 0.25, 0.01], sizes=[10, 100, 1000, 10000])
        (res,) = h1_check([tr], tolerance=0.05, rule="final_below")
        assert res.passed

    def test_only_the_last_distance_decides(self):
        # h1 is a limit: rising or flat distances pass while the last one is
        # below the band, and a shrinking trace fails while it is not
        sizes = [1000, 2000, 4000]
        for distances, passed in (([0.01, 0.02, 0.04], True), ([0.03, 0.03, 0.03], True),
                                  ([0.9, 0.5, 0.05], False), ([0.01, 0.01, 0.06], False)):
            (res,) = h1_check([trace_of(distances, sizes)], tolerance=0.05)
            assert res.passed is passed
            assert res.final_distance == distances[-1]
            assert res.reason == ("ok" if passed else "final_distance_exceeds")
            assert set(res.to_dict()) == {"direction", "passed", "reason", "final_distance"}

    def test_flat_trace_fails_with_reason(self):
        tr = trace_of([0.3, 0.3, 0.3])
        (res,) = h1_check([tr], tolerance=0.05, rule="final_below")
        assert not res.passed
        assert res.reason == "final_distance_exceeds"

    @pytest.mark.parametrize("rule", ["monotone_trend", "median"])
    def test_other_rules_rejected(self, rule):
        with pytest.raises(ValueError, match="rule must be one of"):
            h1_check([trace_of([0.0, 0.0])], tolerance=0.05, rule=rule)


class TestH2Check:
    def test_gaussian_all_diverging(self):
        reports = h2_check(Gaussian.standard(3), ident_frame(3), 20)
        assert [r.verdict for r in reports] == ["diverging"] * 3

    def test_lognormal_axis_frame_converging(self):
        reports = h2_check(ProductLognormal.standard(2), ident_frame(2), 30)
        assert [r.verdict for r in reports] == ["converging"] * 2

    @pytest.mark.parametrize("order", [6, 12, 16])
    def test_lognormal_converging_at_any_order(self, order):
        # the M-term scan does not read converging at these orders; the
        # law's answer does not depend on M
        frame = extract_frame(sample_in_region(FullSphere(3), 6, seed=0))
        reports = h2_check(ProductLognormal.standard(3), frame, order)
        assert [r.verdict for r in reports] == ["converging"] * 3
        assert reports[0].reason.startswith("product lognormal")

    def test_unknown_target_type_raises(self):
        # a law answers for itself; an object that is no law has no answer
        with pytest.raises(AttributeError, match="carleman"):
            h2_check(np.zeros((3, 2)), ident_frame(2), 6)

    def test_bounded_atomic_diverging(self):
        m = Empirical(np.array([[1.0, 0.0], [-1.0, 2.0]]), np.array([0.5, 0.5]))
        reports = h2_check(m, ident_frame(2), 10)
        assert all(r.verdict == "diverging" for r in reports)

    def test_sample_target_answers_for_the_sample(self):
        # a lognormal sample has compact support, so it reads diverging where
        # the lognormal itself reads converging: it certifies nothing
        ln = ProductLognormal.standard(2)
        assert [r.verdict for r in h2_check(ln, ident_frame(2), 12)] == ["converging"] * 2
        reports = h2_check(sample(ln, 2000, seed=5), ident_frame(2), 12)
        assert [r.verdict for r in reports] == ["diverging"] * 2


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
        m = Empirical(pts, w / w.sum())
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


def dict_moment_match(target, q_source, max_order, per_order_tolerances=None,
                      se_multiplier=5.0):
    # the comparison over {alpha: value} tables, one lookup per alpha, with
    # the candidate's standard errors keyed alike (none for an exact source)
    p_mm = mixed_moments_of(target, max_order)
    q_mm = mixed_moments_of(q_source, max_order)
    p_table, q_table = dict(p_mm.table), dict(q_mm.table)
    alphas = multi_indices_upto(q_mm.dim, max_order)
    q_se = {} if q_mm.se is None else dict(zip(alphas, q_mm.se.tolist(), strict=True))
    rows = []
    for m in range(1, max_order + 1):
        order = multi_indices(p_mm.dim, m)
        disc = np.array([abs(p_table[a] - q_table[a]) for a in order])
        if per_order_tolerances is not None:
            tols = np.full(len(order), float(per_order_tolerances[m - 1]))
        else:
            tols = np.array([max(se_multiplier * q_se.get(a, 0.0), 1e-9) for a in order])
        worst = int(np.argmax(disc / tols))
        rows.append((m, float(disc.max()).hex(), order[worst], float(tols[worst]).hex(),
                     bool(np.all(disc <= tols))))
    return rows


def _moment_match_sources(case):
    # (target, candidate, max_order) for each kind of target and candidate
    rng = np.random.default_rng(41)
    g8 = Gaussian(rng.normal(0.0, 0.3, 8), np.eye(8) + 0.2)
    g3 = Gaussian(np.array([0.5, -0.2, 0.1]), np.array([[1.0, 0.3, 0.0],
                                                         [0.3, 0.8, -0.2],
                                                         [0.0, -0.2, 1.5]]))
    ln = ProductLognormal(np.array([0.1, -0.2, 0.0]), np.array([0.4, 0.3, 0.5]))
    w = rng.uniform(0.2, 1.0, 400)
    weighted = Empirical(rng.standard_normal((400, 3)), w / w.sum())
    if case == "gaussian-d8":
        return g8, sample(g8, 2000, seed=3), 6
    if case == "gaussian":
        return g3, sample(g3, 5000, seed=4), 5
    if case == "lognormal":
        return ln, sample(ln, 5000, seed=5), 4
    if case == "sample":
        return sample(g3, 3000, seed=6), sample(g3, 4000, seed=7), 4
    if case == "weighted-target":
        return weighted, sample(g3, 4000, seed=8), 4
    return g3, weighted, 4  # an exact candidate: no standard errors


class TestMomentMatchArrays:
    @pytest.mark.parametrize("case", ["gaussian-d8", "gaussian", "lognormal", "sample",
                                      "weighted-target", "weighted-candidate"])
    @pytest.mark.parametrize("tolerances", ["se", "se-x0.5", "explicit"])
    def test_rows_bit_equal_to_dict_reference(self, case, tolerances):
        target, candidate, order = _moment_match_sources(case)
        kwargs = {"se": {}, "se-x0.5": {"se_multiplier": 0.5},
                  "explicit": {"per_order_tolerances": [0.05 * m for m in range(1, order + 1)]}}
        got = [(r.order, r.max_abs_discrepancy.hex(), r.worst_alpha, r.tolerance.hex(), r.passed)
               for r in moment_match(target, candidate, order, **kwargs[tolerances])]
        assert got == dict_moment_match(target, candidate, order, **kwargs[tolerances])
        assert len(got) == order

    def test_table_is_a_read_only_view_of_the_values(self):
        mm = mixed_moments_of(sample(Gaussian.standard(3), 500, seed=2), 4)
        alphas = multi_indices_upto(3, 4)
        assert list(mm.table) == alphas
        assert list(mm.table.values()) == mm.values.tolist()
        with pytest.raises(TypeError):
            mm.table[alphas[0]] = 2.0
        with pytest.raises(ValueError):
            mm.values[0] = 2.0
        for m in range(5):
            assert mm.order_values(m).tolist() == [mm.table[a] for a in multi_indices(3, m)]
            assert np.shares_memory(mm.order_values(m), mm.values)

    @pytest.mark.parametrize("values, match", [
        ([1.0, 0.0], "need the 3 moments"),
        ([1.0, 0.0, 0.0, 0.0], "need the 3 moments"),
        ([[1.0, 0.0, 0.0]], "need the 3 moments"),
        ([0.5, 0.0, 0.0], "mu_0 must equal 1"),
        ([float("nan"), 0.0, 0.0], "mu_0 must equal 1"),
    ])
    def test_values_checked(self, values, match):
        with pytest.raises(ValueError, match=match):
            MixedMoments(dim=2, max_order=1, values=values)


class TestAggregation:
    class Stub:
        def __init__(self, passed):
            self.passed = passed

    def agg(self, h1, carleman, flags=()):
        return aggregate_overall([self.Stub(p) for p in h1], carleman, flags)

    def test_all_pass(self):
        assert self.agg([True, True], ["diverging"]) == "consistent_with_convergence"

    def test_h1_failure_inconsistent(self):
        assert self.agg([True, False], ["diverging"]) == "inconsistent"

    def test_carleman_inconclusive(self):
        assert self.agg([True], ["diverging", "inconclusive"]) == "inconclusive"

    def test_carleman_converging_blocks(self):
        assert self.agg([True], ["diverging", "converging"]) == "inconclusive"

    def test_zero_measure_region_wins(self):
        assert self.agg([False], ["diverging"],
                        flags=("zero_measure_region",)) == "inconclusive"

    # every flag run_verdict can set on a positive-measure region; the moment
    # rows reach the verdict only as moment_mismatch, which must not count
    @settings(max_examples=100, deadline=None)
    @given(h1=st.lists(st.booleans(), min_size=1, max_size=5),
           carleman=st.lists(st.sampled_from(["diverging", "converging", "inconclusive"]),
                             min_size=1, max_size=4),
           flags=st.sets(st.sampled_from(["analytic_target_sampled_for_h1",
                                          "carleman_condition_failed",
                                          "carleman_unverifiable_from_sample",
                                          "moment_mismatch"])))
    def test_invariant_positive_measure(self, h1, carleman, flags):
        out = self.agg(h1, carleman, tuple(flags))
        if not all(h1):
            assert out == "inconsistent"
        elif (set(carleman) == {"diverging"}
              and "carleman_unverifiable_from_sample" not in flags):
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
    ("h1_rule", "monotone_trend"),
])
def test_config_rejects(field, value):
    # moment_order 2 with two tolerances is valid; each case breaks one field
    base = dict(region=FullSphere(2), moment_order=2, moment_tolerances=(0.1, 0.2))
    VerdictConfig(**base)
    with pytest.raises(ValueError):
        VerdictConfig(**{**base, field: value})


@pytest.mark.parametrize("field, value", [
    ("reference_sample_size", 0), ("reference_sample_size", 1.5),
    ("reference_sample_size", True), ("max_draw_budget", 0),
    ("max_draw_budget", -3), ("max_draw_budget", 2.5),
    ("n_directions", 10.5), ("n_directions", True), ("carleman_order", 12.5),
    ("carleman_order", float("nan")), ("carleman_order", True), ("moment_order", 2.5),
    ("moment_order", True),
])
def test_config_names_bad_count(field, value):
    # caught when the config is built, not after the directions are drawn
    least = 5 if field == "carleman_order" else 1
    with pytest.raises(ValueError,
                       match=f"{field} must be .*integer >= {least}, got {re.escape(repr(value))}$"):
        VerdictConfig(region=FullSphere(2), **{field: value})


def test_config_accepts_counts():
    cfg = VerdictConfig(region=FullSphere(2), reference_sample_size=1, max_draw_budget=1)
    assert (cfg.reference_sample_size, cfg.max_draw_budget) == (1, 1)
    assert VerdictConfig(region=FullSphere(2), max_draw_budget=np.int64(7)).max_draw_budget == 7


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
        seq = [Empirical(np.round(rng.standard_normal((n, 2)), 1)) for n in (40, 200, 800)]
        pts = np.round(rng.standard_normal((300, 2)), 1)
        if weighted:
            pts = np.unique(pts, axis=0)
            w = rng.uniform(0.05, 1.0, len(pts))
            target = Empirical(pts, w / w.sum())
        else:
            target = Empirical(pts)
        config = VerdictConfig(region=Cap(Direction(np.array([1.0, 0.0])), 0.6), n_directions=6,
                               moment_order=2, carleman_order=6, seed=2)
        report = run_verdict(seq, target, config)
        assert len(report.h1_results) == 6
        for r in report.h1_results:
            u = r.trace.direction
            want = [ref_ks(project(elem, u), project(target, u)) for elem in seq]
            assert r.trace.distances.tobytes() == np.asarray(want).tobytes()

    def test_reference_draw_freed_before_the_moment_tables(self, monkeypatch):
        # the analytic target's reference draw is dead once the h1 pass is done
        from cwkit import gallery, verdict
        drawn = []

        def sample_and_watch(*args, **kwargs):
            reference = gallery_sample(*args, **kwargs)
            drawn.append(weakref.ref(reference.points))
            return reference

        def moment_match_after_h1(*args, **kwargs):
            assert len(drawn) == 1 and drawn[0]() is None
            return match(*args, **kwargs)

        gallery_sample, match = gallery.sample, verdict.moment_match
        monkeypatch.setattr(gallery, "sample", sample_and_watch)
        monkeypatch.setattr(verdict, "moment_match", moment_match_after_h1)
        g, seq = gaussian_sequence()
        report = run_verdict(seq, g, VerdictConfig(region=FullSphere(2), n_directions=6,
                                                   reference_sample_size=2000, seed=7))
        assert "analytic_target_sampled_for_h1" in report.flags and len(drawn) == 1

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
        q_exact = Empirical(q.points, label="q")
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

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("far", [1e3, 1e6])
    def test_far_atom_measure_consistent(self, far, seed):
        # an exact measure has compact support however far its atoms lie,
        # which an M-term scan of its moments misreads as inconclusive
        rng = np.random.default_rng(seed)
        atoms = np.vstack([rng.standard_normal((1000, 2)), [[far, far]]])
        target = Empirical(atoms, np.append(np.full(1000, (1 - 1e-9) / 1000), 1e-9))
        seq = [sample(target, n, seed=10 * seed + i) for i, n in enumerate((10**3, 10**4))]
        report = run_verdict(seq, target, VerdictConfig(region=FullSphere(2), n_directions=20,
                                                        seed=seed))
        assert report.overall == "consistent_with_convergence"

    def test_measure_checked_once_runs(self):
        # weights whose sum in some projected orders misses 1 by more than MASS_TOL
        m = Empirical(EDGE_ATOMS, EDGE_WEIGHTS)
        seq = [sample(m, 300, seed=1), sample(m, 3000, seed=2)]
        report = run_verdict(seq, m, VerdictConfig(region=FullSphere(2), n_directions=20,
                                                   seed=0))
        assert report.overall == "consistent_with_convergence"

    def test_carleman_order_moves_no_verdict_byte(self):
        ln = ProductLognormal.standard(2)
        seq = [sample(ln, n, seed=70 + i) for i, n in enumerate((200, 2000))]
        texts = [run_verdict(seq, ln, VerdictConfig(region=FullSphere(2), n_directions=8,
                                                    carleman_order=order, moment_order=2,
                                                    reference_sample_size=2000)).to_json()
                 for order in (6, 30)]
        assert texts[0] != texts[1]
        assert texts[0].replace('"carleman_order": 6,', '"carleman_order": 30,') == texts[1]

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
            assert ("moment_mismatch" in report.flags) == mm_failed
            from_sample = "carleman_unverifiable_from_sample" in report.flags
            assert from_sample == (trial % 3 == 2)
            carleman = [r.verdict for r in report.carleman_reports]
            if h1_failed:
                assert report.overall == "inconsistent"
            elif set(carleman) == {"diverging"} and not from_sample:
                assert report.overall == "consistent_with_convergence"
            else:
                assert report.overall == "inconclusive"

    @pytest.mark.parametrize("seed", range(3))
    def test_vanishing_outliers_consistent(self, seed):
        # 100 points of each element sit at first coordinate sqrt(n): their
        # mass 100/n goes to 0, so P_n => N(0, I), while the second-moment gap
        # stays 100. Weak convergence does not need moments to converge.
        rng = np.random.default_rng(seed)
        seq = []
        for n in (1_000, 10_000):
            pts = rng.standard_normal((n, 3))
            pts[:100, 0] = np.sqrt(n)
            seq.append(Empirical(pts))
        config = VerdictConfig(region=FullSphere(3), n_directions=30, seed=seed,
                               reference_sample_size=10_000)
        report = run_verdict(seq, Gaussian.standard(3), config)
        assert all(r.passed for r in report.h1_results)
        assert not any(r.passed for r in report.moment_table)
        assert "moment_mismatch" in report.flags
        assert report.overall == "consistent_with_convergence"


class TestSampleVersusMeasure:
    """One point cloud read as an i.i.d. sample and as an exact measure.

    The two readings must stay apart: a sample's quantiles, moment
    tolerances, Carleman flag and digest follow its Monte-Carlo nature,
    while uniform weights 1/n make an exact measure of the same points.
    """

    N = 1000

    @pytest.fixture
    def pair(self):
        pts = np.random.default_rng(2024).standard_normal((self.N, 2))
        assert np.unique(pts, axis=0).shape[0] == self.N
        return (Empirical(pts, label="cloud"),
                Empirical(pts, np.full(self.N, 1.0 / self.N)))

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

    def test_carleman_flag_only_for_sample(self, pair):
        sample_set, measure = pair
        s_reports = h2_check(sample_set, ident_frame(2), 12)
        m_reports = h2_check(measure, ident_frame(2), 12)
        for s_rep, m_rep in zip(s_reports, m_reports):
            assert s_rep.verdict == m_rep.verdict
        # the same answer certifies h2 only when the cloud is declared the law
        config = VerdictConfig(region=FullSphere(2), n_directions=10, seed=4)
        s_report = run_verdict([sample_set], sample_set, config)
        m_report = run_verdict([sample_set], measure, config)
        assert "carleman_unverifiable_from_sample" in s_report.flags
        assert s_report.overall == "inconclusive"
        assert "carleman_unverifiable_from_sample" not in m_report.flags
        assert m_report.overall == "consistent_with_convergence"

    def test_digest_label_only_for_sample(self, pair):
        sample_set, measure = pair
        relabelled = Empirical(sample_set.points, label="other")
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


def _scaled_run(k, exact):
    # data and target scaled by 2^k: every projection, quantile and draw of
    # the target scales exactly, so nothing but the units may change
    rng = np.random.default_rng(8)
    if exact:
        w = rng.uniform(0.1, 1.0, 400)
        target = Empirical(np.ldexp(rng.standard_normal((400, 2)), k), w / w.sum())
        seq = [sample(target, n, seed=i) for i, n in enumerate((300, 2000))]
    else:
        target = Gaussian(np.ldexp([0.1, 0.0], k), np.ldexp([[1.0, 0.3], [0.3, 1.0]], 2 * k))
        seq = [Empirical(np.ldexp(rng.standard_normal((n, 2)), k)) for n in (300, 2000)]
    config = VerdictConfig(region=FullSphere(2), n_directions=12, seed=4,
                           h1_tolerance=None if exact else 0.04, reference_sample_size=2000)
    return run_verdict(seq, target, config)


@pytest.mark.parametrize("exact", [False, True])
def test_scaling_by_a_power_of_two_keeps_the_verdict(exact):
    # k stops at -4: MERGE_TOL (1e-12) and moment_match's 1e-9 SE floor are
    # absolute. At these sizes the floor drops moment_mismatch from about
    # 2^-15 on and the merge moves KS distances from about 2^-19; with a
    # 50 000-point reference draw the merge starts near 2^-9
    base = _scaled_run(0, exact)
    for k in range(-4, 31):
        report = _scaled_run(k, exact)
        assert report.overall == base.overall
        assert report.flags == base.flags
        assert [r.passed for r in report.h1_results] == [r.passed for r in base.h1_results]
        assert ([r.trace.distances.tobytes() for r in report.h1_results]
                == [r.trace.distances.tobytes() for r in base.h1_results])
        assert report.to_dict()["carleman"] == base.to_dict()["carleman"]
        assert np.array_equal(report.tightness.half_widths,
                              np.ldexp(base.tightness.half_widths, k))


def _rotated_run(rotation, shift):
    # a Gaussian target, data drawn from it with the mean moved by `shift`
    # along the cap's axis, and the cap, all mapped by one rotation R: points
    # x -> R x, target N(R m, R S R'), cap axis R a
    rng = np.random.default_rng(12)
    mean = np.array([0.2, -0.1, 0.3])
    cov = np.array([[1.0, 0.3, 0.0], [0.3, 0.8, 0.2], [0.0, 0.2, 0.5]])
    axis = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    chol = np.linalg.cholesky(cov)
    seq = [Empirical((mean + shift * axis + rng.standard_normal((n, 3)) @ chol.T) @ rotation.T)
           for n in (400, 4000)]
    target = Gaussian(rotation @ mean, rotation @ cov @ rotation.T)
    region = Cap(axis=Direction.from_vector(rotation @ axis), half_angle=0.6)
    config = VerdictConfig(region=region, n_directions=24, seed=5, reference_sample_size=4000)
    return run_verdict(seq, target, config)


@pytest.mark.parametrize("shift, overall", [
    (0.0, "consistent_with_convergence"), (1.0, "inconsistent"),
])
def test_rotating_data_target_and_region_keeps_the_verdict(shift, overall):
    # a rotation maps every projection onto another of the same law, so the
    # verdict may not change; the directions drawn in the rotated cap are
    # others, so only the decision is compared, not the distances
    q, r = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    rotation = q * np.sign(np.diag(r))
    if np.linalg.det(rotation) < 0.0:
        rotation[:, 0] = -rotation[:, 0]
    assert not np.allclose(rotation, np.eye(3))
    assert _rotated_run(np.eye(3), shift).overall == overall
    assert _rotated_run(rotation, shift).overall == overall
