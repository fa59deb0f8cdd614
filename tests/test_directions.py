import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkit.directions import (Cap, Direction, FiniteSet, Frame, FullSphere, UnionOfCaps,
                              _draw_unit_rows, extract_frame, frame_constant, parse_region,
                              region_measure_estimate, sample_in_region, sample_uniform)
from cwkit.errors import BudgetExhausted, InsufficientRank
from cwkit.rng import STREAM_SPHERE, substream


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return Direction(v)


class TestDirection:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            Direction(np.array([1.0, 1.0]))

    def test_dim_at_least_two(self):
        with pytest.raises(ValueError):
            Direction(np.array([1.0]))

    def test_from_vector_normalizes(self):
        u = Direction.from_vector([3.0, 4.0])
        assert np.allclose(u.coords, [0.6, 0.8])

    def test_from_vector_is_idempotent(self):
        # a normalized vector is unit within UNIT_NORM_TOL, so it comes back as is
        rng = np.random.default_rng(5)
        for _ in range(2000):
            d = int(rng.integers(2, 9))
            v = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            u = Direction.from_vector(v)
            assert Direction.from_vector(u.coords).coords.tobytes() == u.coords.tobytes()


class TestSampleUniform:
    def test_single_draw_is_unit(self):
        (u,) = sample_uniform(3, 1, seed=12345)
        assert abs(np.linalg.norm(u.coords) - 1.0) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_all_unit_norm(self, d):
        for u in sample_uniform(d, 200, seed=d):
            assert abs(np.linalg.norm(u.coords) - 1.0) <= 1e-12

    def test_mean_vector_small(self):
        # CLT: each coordinate mean has sd ~ 1/sqrt(2n); 0.02 is ~ 9 sigma
        dirs = sample_uniform(2, 10**5, seed=1)
        mean = np.mean([u.coords for u in dirs], axis=0)
        assert np.linalg.norm(mean) < 0.02

    def test_right_half_plane_fraction(self):
        dirs = sample_uniform(2, 10**5, seed=1)
        frac = np.mean([u.coords[0] > 0 for u in dirs])
        assert abs(frac - 0.5) < 0.01

    def test_deterministic(self):
        a = sample_uniform(4, 50, seed=9)
        b = sample_uniform(4, 50, seed=9)
        assert all(x.coords.tobytes() == y.coords.tobytes() for x, y in zip(a, b))
        c = sample_uniform(4, 50, seed=10)
        assert any(x.coords.tobytes() != y.coords.tobytes() for x, y in zip(a, c))

    @pytest.mark.parametrize("d", [2, 3, 8])
    @pytest.mark.parametrize("count", [1, 5, 1023, 1024, 1025, 3000])
    def test_same_bits_as_one_block_draw(self, d, count):
        # reference: one block of `count` rows from the sphere stream.
        # sample_in_region draws chunks of max(count, 1024) and keeps the
        # first `count`, which must be the same bits.
        for seed in (0, 9, 2**40 + 7):
            want = _draw_unit_rows(substream(seed, STREAM_SPHERE), count, d)
            got = np.array([u.coords for u in sample_uniform(d, count, seed)])
            assert got.tobytes() == want.tobytes()


class TestSampleInRegion:
    def test_full_cap_matches_uniform_bitwise(self):
        cap = Cap(axis=e(0, 2), half_angle=np.pi)
        got = sample_in_region(cap, 100, seed=3)
        want = sample_uniform(2, 100, seed=3)
        assert all(g.coords.tobytes() == w.coords.tobytes() for g, w in zip(got, want))

    def test_hemisphere_predicate_holds(self):
        cap = Cap(axis=e(0, 3), half_angle=np.pi / 2)
        for u in sample_in_region(cap, 10**4, seed=5):
            assert u.coords[0] >= 0.0

    def test_outputs_inside_union(self):
        region = UnionOfCaps((Cap(e(0, 3), 0.4), Cap(e(1, 3), 0.4)))
        dirs = sample_in_region(region, 500, seed=11)
        assert region.contains(np.array([u.coords for u in dirs])).all()

    def test_finite_set_rejected(self):
        with pytest.raises(ValueError):
            sample_in_region(FiniteSet((e(0, 2),)), 1, seed=0)

    def test_budget_exhausted(self):
        tiny = Cap(axis=e(0, 3), half_angle=1e-4)
        with pytest.raises(BudgetExhausted):
            sample_in_region(tiny, 10, seed=0, max_draw_budget=2000)

    @pytest.mark.parametrize("budget", [0, -5, 0.5])
    def test_budget_below_one_rejected(self, budget):
        # not BudgetExhausted: no region is too small for a budget of no draws
        with pytest.raises(ValueError, match=f"max_draw_budget must be >= 1, got {budget!r}"):
            sample_in_region(FullSphere(2), 50, seed=0, max_draw_budget=budget)

    def test_budget_of_one_draw(self):
        assert len(sample_in_region(FullSphere(2), 1, seed=0, max_draw_budget=1)) == 1


class TestRegionMeasure:
    def test_full_sphere_exact(self):
        assert region_measure_estimate(FullSphere(3), 100, seed=0) == 1.0

    def test_hemisphere(self):
        n = 10**4
        est = region_measure_estimate(Cap(e(0, 3), np.pi / 2), n, seed=2)
        assert abs(est - 0.5) < 3 / np.sqrt(n)

    def test_cap_d3_closed_form(self):
        # cap measure in d=3 is (1 - cos(half_angle)) / 2
        n = 10**4
        est = region_measure_estimate(Cap(e(0, 3), np.pi / 3), n, seed=2)
        assert abs(est - 0.25) < 3 / np.sqrt(n)

    def test_finite_set_rejected(self):
        with pytest.raises(ValueError):
            region_measure_estimate(FiniteSet((e(0, 2),)), 100, seed=0)


def _random_region(rng):
    d = int(rng.integers(2, 9))

    def cap():
        return Cap(Direction.from_vector(rng.standard_normal(d)), rng.uniform(1e-3, np.pi))

    kind = rng.integers(4)
    if kind == 0:
        return cap()
    if kind == 1:
        return UnionOfCaps(tuple(cap() for _ in range(int(rng.integers(1, 4)))))
    if kind == 2:
        return FiniteSet(tuple(Direction.from_vector(rng.standard_normal(d)) for _ in range(3)))
    return FullSphere(d)


def _region_bits(region):
    """Type, dimension and the exact bits of every axis, angle and direction."""
    if isinstance(region, UnionOfCaps):
        parts = [_region_bits(c) for c in region.caps]
    elif isinstance(region, Cap):
        parts = [region.axis.coords.tobytes(), float(region.half_angle).hex()]
    elif isinstance(region, FiniteSet):
        parts = [u.coords.tobytes() for u in region.directions]
    else:
        parts = []
    return (type(region).__name__, region.dim, *parts)


def test_region_spec_round_trips_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        region = _random_region(rng)
        back = parse_region(region.describe())
        assert back.describe() == region.describe()
        assert _region_bits(back) == _region_bits(region)


class TestExtractFrame:
    def test_standard_basis(self):
        frame = extract_frame([e(i, 4) for i in range(4)], tau=1e-6)
        assert frame.min_singular_value == pytest.approx(1.0, abs=1e-12)
        assert frame.matrix.tobytes() == np.eye(4).tobytes()

    def test_duplicate_skipped(self):
        frame = extract_frame([e(0, 2), e(0, 2), e(1, 2)], tau=1e-6)
        assert frame.matrix.tobytes() == np.eye(2).tobytes()

    def test_random_directions_succeed(self):
        frame = extract_frame(sample_uniform(5, 100, seed=77), tau=1e-6)
        assert frame.min_singular_value >= 1e-6

    def test_min_singular_value_at_least_tau(self):
        frame = extract_frame(sample_uniform(3, 50, seed=4), tau=0.2)
        assert frame.min_singular_value >= 0.2

    def test_insufficient_rank(self):
        # candidates squeezed near the e1/e2 plane in d=3
        rng = np.random.default_rng(0)
        cands = []
        for _ in range(40):
            v = rng.standard_normal(3)
            v[2] *= 1e-9
            cands.append(Direction.from_vector(v))
        with pytest.raises(InsufficientRank):
            extract_frame(cands, tau=1e-6)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 1.5, 0.0, -1.0])
    def test_tau_outside_unit_interval_rejected(self, tau):
        # unit rows have smallest singular value at most 1: a tau above 1, or
        # NaN, could never be met and would blame the candidates
        with pytest.raises(ValueError, match="^tau must lie in"):
            extract_frame([e(i, 2) for i in range(2)], tau=tau)

    def test_tau_one_accepts_orthonormal_candidates(self):
        frame = extract_frame([e(i, 3) for i in range(3)], tau=1.0)
        assert frame.matrix.tobytes() == np.eye(3).tobytes()

    def test_frame_row_integrity(self):
        dirs = sample_uniform(3, 10, seed=8)
        frame = extract_frame(dirs)
        for j, u in enumerate(frame.directions):
            assert frame.matrix[j].tobytes() == u.coords.tobytes()
        smin = np.linalg.svd(frame.matrix, compute_uv=False)[-1]
        assert abs(frame.min_singular_value - smin) <= 1e-10


class TestFrame:
    def test_dependent_directions_raise(self):
        with pytest.raises(InsufficientRank):
            Frame([e(0, 2), e(0, 2)])
        with pytest.raises(InsufficientRank):
            Frame([e(0, 3), e(1, 3), e(0, 3)])
        # a combination of two directions: the smallest singular value comes
        # out near 1e-17, not 0, and must still count as rank 2
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            with pytest.raises(InsufficientRank):
                Frame([Direction.from_vector(v) for v in (a, b, 0.3 * a - 1.7 * b)])

    def test_needs_d_directions_in_r_d(self):
        with pytest.raises(ValueError):
            Frame([e(0, 3), e(1, 3)])

    def test_derived_values_are_not_arguments(self):
        assert [f.name for f in dataclasses.fields(Frame) if f.init] == ["directions"]
        with pytest.raises(TypeError):
            Frame([e(0, 2), e(1, 2)], matrix=np.eye(2), min_singular_value=1.0)


class TestFrameConstant:
    def test_orthonormal_gives_one(self):
        frame = Frame([e(i, 3) for i in range(3)])
        assert frame_constant(frame) == pytest.approx(1.0, abs=1e-12)

    def test_two_dim_45_degrees(self):
        # rows (1,0) and (cos45, sin45): eigenvalues of T T' are 1 +- sqrt(2)/2,
        # so C = (1 - sqrt(2)/2)^{-1/2} = 1.847759...
        u2 = Direction(np.array([np.sqrt(2) / 2, np.sqrt(2) / 2]))
        frame = Frame([e(0, 2), u2])
        assert frame_constant(frame) == pytest.approx(1.8477590650, abs=1e-3)

    @pytest.mark.parametrize("d,seed", [(2, 0), (3, 1), (5, 2)])
    def test_norm_inequality_pointwise(self, d, seed):
        frame = extract_frame(sample_uniform(d, 20 * d, seed=seed))
        C = frame_constant(frame)
        rng = np.random.default_rng(seed + 100)
        x = rng.standard_normal((10**4, d)) * rng.uniform(0.1, 10.0, size=(10**4, 1))
        lhs = np.linalg.norm(x, axis=1)
        rhs = C * np.sum(np.abs(x @ frame.matrix.T), axis=1)
        assert np.all(lhs <= rhs * (1 + 1e-12))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4))
def test_sampled_directions_unit_norm_property(seed, d):
    for u in sample_uniform(d, 10, seed=seed):
        assert abs(np.linalg.norm(u.coords) - 1.0) <= 1e-12
