from bisect import bisect_right
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkit import projections
from cwkit.directions import Direction, sample_uniform
from cwkit.errors import DimensionMismatch
from cwkit.projections import (MASS_TOL, MERGE_TOL, AtomicMeasure, Empirical, Projected1D,
                               SampleSet, _quantile_plan, distance_trace, distance_traces,
                               ks_distance, project, wasserstein1)

SQ2 = np.sqrt(2.0) / 2.0


def delta(*coords):
    return Empirical(np.array([coords], dtype=float), np.array([1.0]))


def masses(p):
    # a law's masses as one array, whether it holds weights or 1/n each
    return np.broadcast_to(p.masses(), p.values.shape)


def law(values, weights=None):
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.full(values.size, 1.0 / values.size)
    return Projected1D(values, np.asarray(weights, dtype=float))


class TestEmpirical:
    PTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])

    @pytest.mark.parametrize("weights, match", [
        ([0.5, 0.5, 0.0], "strictly positive"),
        ([0.6, 0.6, -0.2], "strictly positive"),
        ([0.5, 0.25, 0.25 + 10 * MASS_TOL], "not 1 within"),
        ([0.5, 0.25, 0.25 - 10 * MASS_TOL], "not 1 within"),
        ([0.5, 0.5], "one weight per atom"),
        ([0.25, 0.25, 0.25, 0.25], "one weight per atom"),
        ([0.5, np.nan, 0.5], "finite"),
        ([0.5, np.inf, 0.5], "finite"),
    ])
    def test_weighted_rejects_bad_weights(self, weights, match):
        with pytest.raises(ValueError, match=match):
            Empirical(self.PTS, np.array(weights))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_weighted_rejects_nonfinite_atoms(self, bad):
        pts = self.PTS.copy()
        pts[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Empirical(pts, np.full(3, 1.0 / 3.0))

    def test_weighted_rejects_duplicate_atoms(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="pairwise distinct"):
            Empirical(pts, np.array([0.25, 0.5, 0.25]))

    def test_weighted_accepts_mass_within_tolerance(self):
        m = Empirical(self.PTS, np.array([0.5, 0.25, 0.25 + 0.5 * MASS_TOL]))
        assert m.n == 3 and m.dim == 2

    @pytest.mark.parametrize("points", [np.zeros((0, 2)), np.zeros(3), np.zeros((2, 2, 2)),
                                        np.zeros((2, 0))])
    def test_unweighted_rejects_bad_shape(self, points):
        with pytest.raises(ValueError, match="nonempty"):
            Empirical(points)

    def test_weighted_rejects_zero_dimensions(self):
        with pytest.raises(ValueError, match="d >= 1"):
            Empirical(np.zeros((1, 0)), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unweighted_rejects_nonfinite(self, bad):
        pts = self.PTS.copy()
        pts[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Empirical(pts)

    def test_unweighted_accepts_duplicate_rows(self):
        s = Empirical(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]))
        assert s.n == 3 and s.weights is None
        p = project(s, Direction(np.array([1.0, 0.0])))
        assert p.values.tolist() == [1.0, 3.0]
        assert p.masses() == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-15)

    def test_old_names_are_the_same_type(self):
        assert SampleSet is Empirical and AtomicMeasure is Empirical
        assert AtomicMeasure(self.PTS, np.full(3, 1.0 / 3.0)).weights is not None
        assert SampleSet(self.PTS, label="s").weights is None

    def test_points_and_weights_frozen(self):
        m = Empirical(self.PTS, np.full(3, 1.0 / 3.0))
        with pytest.raises(ValueError):
            m.points[0, 0] = 5.0
        with pytest.raises(ValueError):
            m.weights[0] = 0.5

    @staticmethod
    def heavy_rows(rng, shape):
        # heavy tails and signed zeros, so a different summation order shows
        x = rng.standard_normal(shape) * np.exp(2 * rng.standard_normal(shape))
        x[..., ::7] = -0.0
        return x

    @pytest.mark.parametrize("n", [1, 7, 9, 128, 129, 1000, 40_000])
    def test_sample_expect_is_np_mean(self, n):
        rng = np.random.default_rng(n)
        s = Empirical(rng.standard_normal((n, 2)))
        values = self.heavy_rows(rng, n)
        got = s.expect(values)
        assert type(got) is type(np.mean(values))
        assert np.asarray(got).tobytes() == np.mean(values).tobytes()
        # the rows of a C-contiguous block, as the moment table reduces them
        block = self.heavy_rows(rng, (5, n))
        assert s.expect(block).tobytes() == np.mean(block, axis=-1).tobytes()

    @pytest.mark.parametrize("n", [1, 9, 1000, 40_000])
    def test_sample_expect_of_a_mask_is_np_mean(self, n):
        # the coverage of a tightness box is the mean of a boolean mask
        rng = np.random.default_rng(n)
        s = Empirical(rng.standard_normal((n, 2)))
        mask = rng.uniform(size=n) < 0.83
        got = s.expect(mask)
        assert type(got) is type(np.mean(mask))
        assert np.asarray(got).tobytes() == np.mean(mask).tobytes()

    @pytest.mark.parametrize("n", [1, 9, 1000, 40_000])
    def test_weighted_expect_is_np_sum(self, n):
        rng = np.random.default_rng(n)
        w = rng.uniform(0.05, 1.0, n)
        w /= w.sum()
        m = Empirical(rng.standard_normal((n, 2)), w)
        values = self.heavy_rows(rng, n)
        assert np.asarray(m.expect(values)).tobytes() == np.sum(w * values).tobytes()
        block = self.heavy_rows(rng, (5, n))
        assert m.expect(block).tobytes() == np.sum(w * block, axis=-1).tobytes()

    def test_measure_digest_ignores_label(self):
        w = np.full(3, 1.0 / 3.0)
        assert Empirical(self.PTS, w, label="a").digest() == Empirical(self.PTS, w).digest()
        assert Empirical(self.PTS, label="a").digest() != Empirical(self.PTS).digest()


class TestProject:
    def test_coordinate_projection(self):
        s = Empirical(np.array([[1.0, 2.0], [3.0, 4.0]]))
        p = project(s, Direction(np.array([1.0, 0.0])))
        assert p.values.tolist() == [1.0, 3.0]
        assert p.weights is None and p.masses() == 0.5
        assert p.cum.tolist() == [0.0, 0.5, 1.0]

    def test_diagonal_projection(self):
        m = Empirical(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
        p = project(m, Direction(np.array([SQ2, SQ2])))
        assert p.values == pytest.approx([0.0, np.sqrt(2.0)], abs=1e-15)
        assert p.weights.tolist() == [0.5, 0.5]

    def test_atoms_merging_to_one(self):
        m = Empirical(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
        p = project(m, Direction(np.array([SQ2, SQ2])))
        assert p.values.size == 1
        assert p.values[0] == pytest.approx(SQ2, abs=1e-15)
        assert p.weights[0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project(Empirical(np.zeros((2, 3))), Direction(np.array([1.0, 0.0])))

    def test_translation_by_direction(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((50, 3))
        u = Direction.from_vector(rng.standard_normal(3))
        c = 2.75
        a = project(Empirical(pts + c * u.coords), u)
        b = project(Empirical(pts), u)
        assert np.allclose(a.values, b.values + c, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_mass_preserved(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((rng.integers(1, 40), 2))
        u = Direction.from_vector(rng.standard_normal(2))
        p = project(Empirical(pts), u)
        assert abs(masses(p).sum() - 1.0) <= 1e-12


class TestKS:
    def test_identical_zero(self):
        a = law([0.0, 1.0, 2.0])
        assert ks_distance(a, a) == 0.0

    def test_disjoint_point_masses(self):
        assert ks_distance(law([0.0]), law([1.0])) == 1.0

    def test_shifted_uniform_atoms(self):
        # oracle: evaluate both CDFs on a fine grid and take the sup
        a_vals = np.arange(10) / 10.0
        b_vals = a_vals + 0.05
        grid = np.linspace(-0.5, 1.5, 4001)
        cdf = lambda vals, xs: np.array([(vals <= x).mean() for x in xs])
        oracle = np.max(np.abs(cdf(a_vals, grid) - cdf(b_vals, grid)))
        assert oracle == pytest.approx(0.1, abs=1e-12)
        assert ks_distance(law(a_vals), law(b_vals)) == pytest.approx(0.1, abs=1e-12)

    def test_bounded_by_one(self):
        a = law([0.0, 5.0], [0.9, 0.1])
        b = law([-3.0, 0.0, 2.0])
        assert 0.0 <= ks_distance(a, b) <= 1.0


class TestW1:
    def test_identical_zero(self):
        a = law([0.5, 2.0], [0.25, 0.75])
        assert wasserstein1(a, a) == 0.0

    def test_unit_transport(self):
        assert wasserstein1(law([0.0]), law([1.0])) == 1.0

    def test_half_mass_moved(self):
        a = law([0.0, 1.0])
        b = law([0.0, 2.0])
        assert wasserstein1(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_matches_scipy_on_samples(self):
        from scipy.stats import wasserstein_distance

        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(200), rng.standard_normal(300) + 0.3
        ours = wasserstein1(law(x), law(y))
        assert ours == pytest.approx(wasserstein_distance(x, y), abs=1e-10)


@st.composite
def small_laws(draw):
    # values on a 1/128 lattice: inter-atom gaps are far above the merge
    # tolerance, so cross-law merges happen only at exact equality
    k = draw(st.integers(1, 6))
    ticks = draw(st.lists(st.integers(-640, 640), min_size=k, max_size=k, unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    w = np.asarray(raw)
    return law(np.asarray(ticks) / 128.0, w / w.sum())


@settings(max_examples=80, deadline=None)
@given(small_laws(), small_laws(), small_laws())
def test_metric_axioms(a, b, c):
    for dist in (ks_distance, wasserstein1):
        dab, dba = dist(a, b), dist(b, a)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-14)
        assert dist(a, c) <= dab + dist(b, c) + 1e-10
    assert ks_distance(a, b) <= 1.0


@settings(max_examples=40, deadline=None)
@given(small_laws(), small_laws())
def test_zero_iff_equal_after_merge(a, b):
    assert ks_distance(a, a) == 0.0
    if ks_distance(a, b) == 0.0:
        assert a.values.size == b.values.size
        assert np.allclose(a.values, b.values, atol=3e-12)
        assert np.allclose(a.weights, b.weights, atol=1e-12)


# Reference kernels. KS: pool both laws, sort them together with a stable
# argsort, then group with reduceat, each group at its first value. The
# production KS sorts each projected law once and ranks the atoms of the
# smaller law among the larger's, by one merge or by searchsorted; it must
# reproduce this arithmetic bit for bit, because verdict reports are compared
# byte for byte. W1 is the quantile integral, checked bit for bit against
# ref_qw1, built apart from the kernel in plain Python; the pooled x-space
# sum ref_w1 is the same distance up to rounding and MERGE_TOL groupings.

def ref_from_raw(values, weights):
    order = np.argsort(values, kind="stable")
    values, weights = values[order], weights[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(values) > MERGE_TOL)))
    wsum = np.add.reduceat(weights, starts)
    return values[starts], wsum


def ref_merged_cdfs(a, b):
    values = np.concatenate([a.values, b.values])
    wa = np.concatenate([masses(a), np.zeros(b.values.size)])
    wb = np.concatenate([np.zeros(a.values.size), masses(b)])
    order = np.argsort(values, kind="stable")
    values, wa, wb = values[order], wa[order], wb[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(values) > MERGE_TOL)))
    grid = values[starts]
    cum_a = np.cumsum(np.add.reduceat(wa, starts))
    cum_b = np.cumsum(np.add.reduceat(wb, starts))
    return grid, cum_a, cum_b


def ref_ks(a, b):
    _, cum_a, cum_b = ref_merged_cdfs(a, b)
    return float(min(1.0, np.max(np.abs(cum_a - cum_b))))


def ref_w1(a, b):
    grid, cum_a, cum_b = ref_merged_cdfs(a, b)
    if grid.size == 1:
        return 0.0
    return float(np.sum(np.abs(cum_a[:-1] - cum_b[:-1]) * np.diff(grid)))


def ref_qw1(a, b):
    # the grid: sorted(set(...)) of both laws' interior cumulative masses,
    # clipped into [0, 1], with 0 and 1; each law's atom on a piece by bisect;
    # the per-piece products summed by np.sum in grid order
    inner_a, inner_b = a.cum[1:-1].tolist(), b.cum[1:-1].tolist()
    grid = sorted({0.0, 1.0, *(min(max(t, 0.0), 1.0) for t in inner_a + inner_b)})
    va, vb = a.values.tolist(), b.values.tolist()
    return float(np.sum(np.array([
        abs(va[bisect_right(inner_a, t)] - vb[bisect_right(inner_b, t)]) * (t_next - t)
        for t, t_next in zip(grid, grid[1:])])))


def exact_w1(a, b):
    # the x-space integral of |F_a - F_b| in rationals: every float value and
    # weight read exactly, a sample's masses exactly 1/n
    def signed(p, sign):
        n = p.values.size
        w = [Fraction(1, n)] * n if p.weights is None else map(Fraction, p.weights.tolist())
        return [(Fraction(x), sign * m) for x, m in zip(p.values.tolist(), w)]

    pooled = sorted(signed(a, 1) + signed(b, -1))
    total, gap = Fraction(0), Fraction(0)
    for (x, dm), (x_next, _) in zip(pooled, pooled[1:]):
        gap += dm
        total += abs(gap) * (x_next - x)
    return total


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


# first coordinates: a coarse lattice (signed zero included) plus offsets
# below, near and above MERGE_TOL, so that rows tie exactly, fall within the
# tolerance of each other and chain across the two laws (a-b-a: a's atoms
# 1.2e-12 apart stay separate, a b-atom between them joins all three)
BASES = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
OFFSETS = (0.0, 0.4e-12, 0.8e-12, 1.2e-12, 2.5e-12)


@st.composite
def clouds(draw):
    n = draw(st.integers(1, 8))
    base = np.array(draw(st.lists(st.sampled_from(BASES), min_size=n, max_size=n)))
    off = np.array(draw(st.lists(st.sampled_from(OFFSETS), min_size=n, max_size=n)))
    x = np.where(off == 0.0, base, base + off)
    if draw(st.booleans()):
        # sample: few distinct second coordinates, so duplicate rows occur
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), float)
        return Empirical(np.column_stack([x, y]))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    # distinct second coordinates keep the atoms pairwise distinct
    return Empirical(np.column_stack([x, np.arange(n, dtype=float)]), raw / raw.sum())


@settings(max_examples=300, deadline=None)
@given(clouds(), clouds(), st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.6, 0.8)]))
def test_kernel_bit_equal_to_reference(m_a, m_b, coords):
    u = Direction(np.array(coords))
    a, b = project(m_a, u), project(m_b, u)
    for m, p in ((m_a, a), (m_b, b)):
        mass = np.full(m.n, 1.0 / m.n) if m.weights is None else m.weights
        ref_v, ref_w = ref_from_raw(m.points @ u.coords, mass)
        assert bits(p.values) == bits(ref_v)
        assert bits(masses(p)) == bits(ref_w)
    for x, y in ((a, b), (b, a), (a, a)):
        assert bits(ks_distance(x, y)) == bits(ref_ks(x, y))
        assert bits(wasserstein1(x, y)) == bits(ref_qw1(x, y))
        # the a-b-a chains of atoms up to 2.5e-12 apart are the only place the
        # quantile integral and the pooled, grouped sum part by more than rounding
        assert abs(wasserstein1(x, y) - ref_w1(x, y)) <= 1e-11


TRACE_DIRECTIONS = [(1.0, 0.0), (-1.0, 0.0), (0.6, 0.8), (0.0, 1.0), (-0.8, 0.6)]


@settings(max_examples=200, deadline=None)
@given(st.lists(clouds(), min_size=1, max_size=3), clouds(),
       st.lists(st.sampled_from(TRACE_DIRECTIONS), min_size=3, max_size=4))
def test_trace_pass_bit_equal_to_reference(sequence, target, coords):
    # one pass over several directions shares the target's projection and the
    # cumulative masses of equal-size samples; each distance must still be the
    # pooled reference's, ties within MERGE_TOL across the laws included
    directions = [Direction(np.array(c)) for c in coords]
    for metric, ref in (("ks", ref_ks), ("w1", ref_qw1)):
        traces = distance_traces(sequence, target, directions, metric)
        assert [tr.direction for tr in traces] == directions
        for u, tr in zip(directions, traces):
            t = project(target, u)
            want = [ref(project(elem, u), t) for elem in sequence]
            assert bits(tr.distances) == bits(want)
            assert tr.sizes.tolist() == [elem.n for elem in sequence]



@st.composite
def distinct_rows(draw):
    # rows on a half-integer lattice, pairwise distinct so that they can be
    # read as an exact measure too; along the trace directions their
    # projections tie exactly or within MERGE_TOL, so the laws merge
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                         min_size=n, max_size=n, unique=True))
    return np.array(rows, dtype=float) / 2.0


@settings(max_examples=120, deadline=None)
@given(distinct_rows(), st.lists(clouds(), min_size=1, max_size=2),
       st.lists(st.sampled_from(TRACE_DIRECTIONS), min_size=2, max_size=3))
def test_sample_and_uniform_measure_give_the_same_distances(points, others, coords):
    # distinct rows as a sample and as the exact measure of mass 1/n on each
    # are one law, so the h1 pass gives them the same distances bit for bit,
    # whether the cloud is an element or the target
    n = points.shape[0]
    sample, measure = Empirical(points), Empirical(points, np.full(n, 1.0 / n))
    directions = [Direction(np.array(c)) for c in coords]
    for metric in ("ks", "w1"):
        for as_element in (True, False):
            def run(cloud):
                sequence, target = ([cloud, *others], others[0]) if as_element else (others, cloud)
                return [bits(tr.distances)
                        for tr in distance_traces(sequence, target, directions, metric)]
            assert run(sample) == run(measure)


def _rows_permuted(cloud, rng):
    # a sample with its rows in another order; an exact measure as it is
    if cloud.weights is not None:
        return cloud
    return Empirical(cloud.points[rng.permutation(cloud.n)])


@settings(max_examples=120, deadline=None)
@given(st.lists(clouds(), min_size=1, max_size=3), clouds(), st.integers(0, 2**32 - 1))
def test_permuting_sample_rows_keeps_distances(sequence, target, seed):
    # a sample is a law, so the order of its rows changes no h1 distance by a
    # bit; the rounded draw adds a larger sample whose projections tie
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    sequence = [*sequence, Empirical(np.round(rng.standard_normal((n, 2)), 1))]
    directions = [Direction(np.array(c)) for c in TRACE_DIRECTIONS]
    shuffled = [_rows_permuted(elem, rng) for elem in sequence]
    shuffled_target = _rows_permuted(target, rng)
    for metric in ("ks", "w1"):
        want = distance_traces(sequence, target, directions, metric)
        got = distance_traces(shuffled, shuffled_target, directions, metric)
        assert [bits(tr.distances) for tr in got] == [bits(tr.distances) for tr in want]

def test_ks_merges_close_atoms_of_a_hand_built_law():
    # atoms given by hand within MERGE_TOL of each other become one atom at
    # the smaller value with their summed mass, as the pooled grid groups
    # them: the mass is summed before the running sum, which rounds apart from
    # adding the two one by one (0.4999999999999999 against 0.5 here)
    a = Projected1D(np.array([0.0, 1e-13, 1.0]), np.array([0.4, 0.1, 0.5]))
    b = Projected1D(np.array([-0.5, 0.5, 0.5 + 1e-13]), np.array([0.1, 0.2, 0.7]))
    assert a.values.tolist() == [0.0, 1.0] and a.weights.tolist() == [0.4 + 0.1, 0.5]
    assert b.values.tolist() == [-0.5, 0.5] and b.weights.tolist() == [0.1, 0.2 + 0.7]
    for x, y in ((a, b), (b, a), (a, a)):
        assert bits(ks_distance(x, y)) == bits(ref_ks(x, y))
        assert bits(wasserstein1(x, y)) == bits(ref_qw1(x, y))


# values on a small grid plus offsets just below and above MERGE_TOL, so
# that atoms tie, merge and chain; dyadic weights k / 2**m sum exactly in
# any order, so a merged atom's mass cannot depend on the input order
@st.composite
def hand_laws(draw):
    n = draw(st.integers(1, 9))
    base = draw(st.lists(st.sampled_from((-1.0, 0.0, 0.5, 1.0)), min_size=n, max_size=n))
    off = draw(st.lists(st.sampled_from((0.0, 0.9e-12, 1.1e-12, 2.0e-12)),
                        min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    counts[-1] += (1 << (sum(counts) - 1).bit_length()) - sum(counts)  # a power of two in total
    return (np.array(base) + np.array(off),
            np.array(counts, dtype=float) / sum(counts))


def _bit_law(p):
    return bits(p.values), bits(masses(p)), bits(p.cum)


@settings(max_examples=300, deadline=None)
@given(hand_laws(), st.randoms(use_true_random=False))
def test_constructor_builds_the_same_law_from_any_order(drawn, rnd):
    values, weights = drawn
    want = Projected1D(values, weights)
    assert np.all(np.diff(want.values) > MERGE_TOL)
    order = np.array(rnd.sample(range(values.size), values.size))
    assert _bit_law(Projected1D(values[order], weights[order])) == _bit_law(want)
    uniform = Projected1D(values, np.full(values.size, 1.0 / values.size))
    assert _bit_law(Projected1D(values)) == _bit_law(uniform)
    cloud = Empirical(np.column_stack([values, np.zeros(values.size)]))
    assert _bit_law(uniform) == _bit_law(project(cloud, Direction(np.array([1.0, 0.0]))))


@pytest.mark.parametrize("values, weights, match", [
    ([0.0, 1.0], [1.0], "matching 1-D arrays"),
    ([], [], "matching 1-D arrays"),
    ([[0.0, 1.0]], [[0.5, 0.5]], "matching 1-D arrays"),
    ([0.0, np.nan], [0.5, 0.5], "^atoms must be finite$"),
    ([-np.inf, 1.0], [0.5, 0.5], "^atoms must be finite$"),
    ([0.0, 1.0], [0.5, np.nan], "^atoms must be finite$"),
    ([0.0, 1.0], [np.inf, 0.5], "^atoms must be finite$"),
    ([0.0, 1.0], [1.0, 0.0], "strictly positive"),
    ([0.0, 1.0, 2.0], [0.6, 0.6, -0.2], "strictly positive"),
    ([0.0, 1.0], [0.5, 0.5 + 10 * MASS_TOL], "not 1 within"),
    ([0.0, 1.0], [0.25, 0.25], "not 1 within"),
])
def test_constructor_rejects(values, weights, match):
    with pytest.raises(ValueError, match=match):
        Projected1D(np.array(values, dtype=float), np.array(weights, dtype=float))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("weights", [None, np.array([0.5, 0.5])])
def test_overflowing_projection_rejected(sign, weights):
    # finite points whose projection overflows to +-inf
    big = Empirical(sign * np.array([[1.7e308, 1.7e308], [0.0, 1.0]]), weights)
    small = Empirical(np.array([[0.0, 0.0], [1.0, 1.0]]))
    u = Direction(np.array([SQ2, SQ2]))
    with pytest.raises(ValueError, match="^atoms must be finite$"):
        project(big, u)
    for sequence, target in (([big], small), ([small], big)):
        with pytest.raises(ValueError, match="^atoms must be finite$"):
            distance_traces(sequence, target, [u])
        with pytest.raises(ValueError, match="^atoms must be finite$"):
            distance_trace(sequence, target, u)


def _cloud(rng, n, weighted):
    pts = rng.standard_normal((n, 2))
    if not weighted:
        return Empirical(pts)
    w = rng.uniform(0.05, 1.0, n)
    return Empirical(pts, w / w.sum())


@pytest.mark.parametrize("n_a, n_b, weighted", [
    (1, 1, (False, False)), (1, 5000, (False, True)), (5000, 1, (True, False)),
    (37, 2500, (True, True)), (2500, 37, (False, False)), (4999, 5000, (False, False)),
    (5000, 4999, (True, True)), (800, 800, (False, True)),
])
def test_kernel_bit_equal_to_reference_without_ties(n_a, n_b, weighted):
    # continuous draws: no two pooled atoms lie within MERGE_TOL, so the
    # kernel reads each law's own cumulative mass at its own atoms; (a, b)
    # and (b, a) search the smaller law into the larger from either side
    rng = np.random.default_rng(n_a * 7919 + n_b)
    u = Direction.from_vector(rng.standard_normal(2))
    a = project(_cloud(rng, n_a, weighted[0]), u)
    b = project(_cloud(rng, n_b, weighted[1]), u)
    assert np.diff(np.sort(np.concatenate([a.values, b.values]))).min() > MERGE_TOL
    for x, y in ((a, b), (b, a), (a, a)):
        assert bits(ks_distance(x, y)) == bits(ref_ks(x, y))
        assert bits(wasserstein1(x, y)) == bits(ref_qw1(x, y))


def ks_with_path(x, y):
    # ks_distance(x, y), the kernel paths it called in order, and the atoms
    # of S it checked for a near pair of L, all of them in one array
    calls, checked = [], []

    def spy(name):
        fn = getattr(projections, name)

        def called(*args):
            calls.append(name)
            if name == "_near_across":
                checked.append(args[0])
            return fn(*args)
        return called

    names = ("_blocked", "_full", "_grouped", "_near_across")
    with mock.patch.multiple(projections, **{name: spy(name) for name in names}):
        d = ks_distance(x, y)
    return d, [c for c in calls if c != "_near_across"], np.concatenate([[], *checked])


# the sizes of S at which the rule's block length steps, to 4, 8, 16 and 32
# atoms; below the first, every atom of S is searched
STEPS = [n for n in range(1, 40_000)
         if projections._block_size(n) != projections._block_size(n - 1)]
BLOCKED_FROM = STEPS[0]  # atoms of S


@pytest.mark.parametrize("shift, n_b", [
    pytest.param(0.0, BLOCKED_FROM - 2, id="0.0"),
    pytest.param(0.5e-12, BLOCKED_FROM - 2, id="5e-13"),
    pytest.param(0.0, 200, id="searched-0.0"), pytest.param(0.5e-12, 200, id="searched-5e-13"),
])
def test_kernel_bit_equal_to_reference_with_cross_tie(shift, n_b):
    # one b-atom equal to, or 0.5e-12 above, an a-atom: the pooled atoms are
    # grouped, at the pooled positions the search of the smaller law gives;
    # b has too few atoms for blocks, one below the rule's first step or
    # fewer, so every atom of it is searched
    rng = np.random.default_rng(5)
    a_vals = np.sort(rng.uniform(1.0, 2.0, 3000))
    b_vals = np.sort(np.append(rng.uniform(1.0, 2.0, n_b), a_vals[1700] + shift))
    w = rng.uniform(0.05, 1.0, b_vals.size)
    a, b = law(a_vals), law(b_vals, w / w.sum())
    assert b.values.size < BLOCKED_FROM
    for x, y in ((a, b), (b, a)):
        d, path, _ = ks_with_path(x, y)
        assert path == ["_full", "_grouped"]
        assert bits(d) == bits(ref_ks(x, y))
        assert bits(wasserstein1(x, y)) == bits(ref_qw1(x, y))
        assert ref_merged_cdfs(x, y)[0].size == a.values.size + b.values.size - 1


def _crossing_laws(m, n, weighted, seed, wide):
    # laws of m and of n atoms on one 1/1024 lattice: a third of the smaller
    # law's atoms equal one of the larger's, -0.0 in the smaller meets 0.0 in
    # the larger, and x in the smaller lies 0.6e-12 below x + 0.6e-12 in the
    # larger. Unless wide, x + 1.2e-12 in the smaller chains with both, each
    # pair within MERGE_TOL; wide laws hold -x there instead
    rng = np.random.default_rng(seed)
    ticks = rng.permutation(np.setdiff1d(np.arange(-4 * (m + n), 4 * (m + n)), [0]))
    large = ticks[:n] / 1024.0
    small = np.concatenate([rng.choice(large, m // 3, replace=False),
                            ticks[n:n + m - m // 3] / 1024.0])
    x = 1025 / 2048
    small[-3:], large[-2:] = (-0.0, x, -x if wide else x + 1.2e-12), (0.0, x + 0.6e-12)
    laws = []
    for values in (small, large):
        w = rng.uniform(0.05, 1.0, values.size) if weighted else None
        laws.append(Projected1D(rng.permutation(values), None if w is None else w / w.sum()))
    zero_s, zero_l = (p.values[p.values == 0.0] for p in laws)
    assert zero_s.size == zero_l.size == 1 and np.signbit(zero_s) and not np.signbit(zero_l)
    assert [p.values.size for p in laws] == [m, n]
    assert [p.wide for p in laws] == [wide, True]
    return laws


@pytest.mark.parametrize("m, n, weighted, wide", [
    (1000, 10000, False, False), (10000, 50000, True, False), (20000, 100000, False, False),
    (10000, 12000, True, True), (3000, 6000, False, True), (50000, 100000, False, True),
    (50000, 100000, True, True),
])
def test_search_ranks_on_both_sides_of_the_crossover(m, n, weighted, wide):
    # the smaller law is searched block by block from BLOCKED_FROM atoms on,
    # when both laws are wide; there the exact ties are found among the
    # searched atoms, and the pair goes to the full search. Either way, exact
    # ties, signed zeros and chains within MERGE_TOL included, the kernel
    # stays bit-equal to the pooled reference
    s, l = _crossing_laws(m, n, weighted, seed=m + n, wide=wide)
    blocked = ["_blocked"] if wide and m >= BLOCKED_FROM else []
    for x, y in ((s, l), (l, s)):
        d, path, _ = ks_with_path(x, y)
        assert path == [*blocked, "_full", "_grouped"]
        assert bits(d) == bits(ref_ks(x, y))
        assert bits(wasserstein1(x, y)) == bits(ref_qw1(x, y))


@st.composite
def blocked_laws(draw):
    # a law of 1 to 4 times one of the rule's STEPS atoms, so that every
    # block length the rule gives is drawn, and one of 1 to 3 times that,
    # Gaussian or lognormal (atoms up to |v| >= 8192, where MERGE_TOL is
    # below one ulp), each a sample or weighted
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(draw(st.floats(1.0, 3.99)) * draw(st.sampled_from(STEPS)))
    n = int(draw(st.floats(1.0, 3.0)) * m)
    laws = []
    for size, shift in ((m, 0.0), (n, draw(st.sampled_from((0.0, 0.02, 0.2))))):
        if draw(st.booleans()):
            values = shift + rng.standard_normal(size)
        else:
            values = np.exp(shift + 3.0 * rng.standard_normal(size)) * draw(
                st.sampled_from((1.0, -1.0)))
        w = rng.uniform(0.05, 1.0, size) if draw(st.booleans()) else None
        laws.append(Projected1D(values, None if w is None else w / w.sum()))
    return laws


@settings(max_examples=40, deadline=None)
@given(blocked_laws())
def test_blocked_search_bit_equal_to_reference(laws):
    s, l = laws
    assert s.values.size >= BLOCKED_FROM
    pooled = np.sort(np.concatenate([s.values, l.values]))
    for x, y in ((s, l), (l, s)):
        d, path, _ = ks_with_path(x, y)
        assert bits(d) == bits(ref_ks(x, y))
        if s.wide and l.wide and np.diff(pooled).min() > MERGE_TOL:
            assert path == ["_blocked"]


def _planted(pair, where, weighted):
    # two Gaussian laws with one pooled pair planted at an atom of S: an atom
    # of L equal to it, 0.5e-12 above it, or 0.0 against it made -0.0. The
    # atom starts no block and lies 2.5 below the centre, where no block can
    # hold the sup (where = "pruned"), or next to the sup ("searched"); or it
    # is S's last atom, alone in its block, and holds the sup, as 30% of L's
    # mass lies above S and the rest is narrower ("last"). Returns both laws
    # and the planted atom
    rng = np.random.default_rng(17)
    s = np.sort(rng.standard_normal(20_001) - (where != "last") * 0.1)
    if where == "last":
        l = np.sort(np.append(0.7 * rng.standard_normal(28_000), s[-1] + 1.0 + rng.random(12_000)))
    else:
        l = np.sort(rng.standard_normal(40_000) + 0.1)
    masses = [None, None]
    if weighted:
        masses = [w / w.sum() for w in (rng.uniform(0.05, 1.0, v.size) for v in (s, l))]
    cs, cl = (Projected1D(v, w).cum for v, w in zip((s, l), masses))
    below = np.searchsorted(l, s)
    sup = np.maximum(cs[1:] - cl[below], cl[below] - cs[:-1]).argmax()
    block = projections._block_size(s.size)
    if where == "last":
        k = s.size - 1
        assert sup == k and k % block == 0
    else:
        k = np.abs(s + 2.5).argmin() if where == "pruned" else sup
        k += k % block == 0  # a block's first atom is always searched
    if pair == "signed-zero":
        s, l = s - s[k], l - s[k]
        s[k] = -0.0
    l[np.abs(l - s[k]).argmin()] = s[k] + (0.5e-12 if pair == "5e-13" else 0.0)
    assert np.all(np.diff(s) > 0.0) and np.all(np.diff(l) > 0.0)
    return Projected1D(s, masses[0]), Projected1D(l, masses[1]), s[k]


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("where", ["pruned", "searched", "last"])
@pytest.mark.parametrize("pair", ["tie", "signed-zero", "5e-13"])
def test_blocked_search_with_a_planted_near_pair(pair, where, weighted):
    # a near pair in a block whose bound cannot beat the best gap stays
    # unsearched and leaves the blocked answer exact; one at a searched atom,
    # a block's first atom included, sends the pair to the full search and
    # the grouped grid
    s, l, planted = _planted(pair, where, weighted)
    assert s.wide and l.wide and s.values.size >= BLOCKED_FROM
    assert ref_merged_cdfs(s, l)[0].size == s.values.size + l.values.size - 1
    for x, y in ((s, l), (l, s)):
        d, path, checked = ks_with_path(x, y)
        assert bits(d) == bits(ref_ks(x, y))
        if where == "pruned":
            assert path == ["_blocked"]
            assert planted not in checked
        else:
            assert path == ["_blocked", "_full", "_grouped"]


def test_blocked_search_bounds_a_block_by_the_next_blocks_first_atom():
    # S on 0..m-1, cut into blocks of B atoms (8, 16 and 32 at these sizes),
    # and L two atoms in each gap, moved so that F_S - F_L is B/m just after
    # S's atom B - 1, the last of the first block, with no atom of L below it,
    # and (B - 0.5)/m just after atom 2B, the first of the third block: the
    # first block is searched only if its bound reads F_S at the next block's
    # first atom, B/m, not at its own last atom, (B - 1)/m
    sizes = (2048, 8192, 32768)
    assert [projections._block_size(m) for m in sizes] == [8, 16, 32]
    for m in sizes:
        block = projections._block_size(m)
        s = np.arange(m, dtype=float)
        grid = np.concatenate([s + 1 / 3, s + 2 / 3])
        steps = np.arange(1, 2 * block) / (2 * block)
        l = np.concatenate([grid[(grid > block) & ((grid < block + 1) | (grid > 2 * block))],
                            [block + 1.5], block - 1 + np.arange(1, 9) / 16,
                            block + steps[:2 * block - 8], 2 * block + steps[:2 * block - 3]])
        a, b = law(s), law(l)
        below = np.searchsorted(b.values, a.values)
        gaps = np.maximum(a.cum[1:] - b.cum[below], b.cum[below] - a.cum[:-1]) * m
        assert b.values.size == 2 * m and gaps.argmax() == block - 1 and gaps.max() == block
        assert gaps[::block].max() == block - 0.5
        for x, y in ((a, b), (b, a)):
            d, path, _ = ks_with_path(x, y)
            assert path == ["_blocked"]
            assert bits(d) == bits(ref_ks(x, y)) == bits(block / m)


def _gaussian_pair(m, n, weighted, seed, shift=0.1):
    # Gaussian laws of m and of n atoms, the larger shifted by shift, each a
    # sample or weighted
    rng = np.random.default_rng(seed)
    laws = []
    for size, loc in ((m, 0.0), (n, shift)):
        w = rng.uniform(0.05, 1.0, size) if weighted else None
        values = loc + rng.standard_normal(size)
        laws.append(Projected1D(values, None if w is None else w / w.sum()))
    return laws


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("offset", [-1, 0])
@pytest.mark.parametrize("step", STEPS)
def test_ks_bit_equal_to_reference_at_each_step_of_the_rule(step, offset, weighted):
    # S one atom below a step of the rule and at it, so that the two sizes
    # take different block lengths (no blocks below the first step), against
    # L of 3 times as many atoms: bit-equal to the pooled reference in both
    # argument orders, and again with an atom of L moved onto S's atom at the
    # sup, a pooled pair that the search must find
    m = step + offset
    s, l = _gaussian_pair(m, 3 * m, weighted, seed=m)
    assert s.wide and l.wide
    first = ["_blocked"] if m >= BLOCKED_FROM else []
    below = np.searchsorted(l.values, s.values)
    k = np.maximum(s.cum[1:] - l.cum[below], l.cum[below] - s.cum[:-1]).argmax()
    tied = l.values.copy()
    tied[np.abs(tied - s.values[k]).argmin()] = s.values[k]
    tied = Projected1D(tied, l.weights)
    assert ref_merged_cdfs(s, tied)[0].size == 4 * m - 1
    for large, path_want in ((l, first or ["_full"]), (tied, [*first, "_full", "_grouped"])):
        for x, y in ((s, large), (large, s)):
            d, path, _ = ks_with_path(x, y)
            assert path == path_want
            assert bits(d) == bits(ref_ks(x, y))


def test_rule_searches_fewer_atoms_than_blocks_of_32():
    # unshifted Gaussian pairs of 10^4 atoms against 5 * 10^4, as h1's middle
    # element against its reference: the rule's blocks of 16 leave fewer atoms of
    # S to search, first atoms and the atoms of searched blocks together,
    # than blocks of 32, for the same distance
    assert projections._block_size(10_000) == 16
    for seed in range(5):
        s, l = _gaussian_pair(10_000, 50_000, False, seed, shift=0.0)
        searched = []
        for rule in (projections._block_size, lambda n: 32):
            with mock.patch.object(projections, "_block_size", rule):
                d, path, checked = ks_with_path(s, l)
            assert path == ["_blocked"]
            assert bits(d) == bits(ref_ks(s, l))
            searched.append(np.unique(checked).size)
        assert searched[0] < searched[1]


@pytest.mark.parametrize("chained", ["small", "large"])
def test_blocked_search_not_taken_by_a_chained_law(chained):
    # two atoms of one law 1.5e-12 apart, within 2 * MERGE_TOL, and an atom
    # of the other between them: the three form one pooled group, whose
    # running sums need not equal either law's own cum, so the law with the
    # pair is not wide and every atom is searched
    rng = np.random.default_rng(23)
    s = np.sort(rng.standard_normal(20_000))
    l = np.sort(0.2 + rng.standard_normal(40_000))
    at = -2.5
    if chained == "small":
        s[np.abs(s - at).argmin()], l[np.abs(l - at).argmin()] = at, at + 0.75e-12
        s = np.append(s, at + 1.5e-12)
    else:
        l[np.abs(l - at).argmin()], s[np.abs(s - at).argmin()] = at, at + 0.75e-12
        l = np.append(l, at + 1.5e-12)
    a, b = law(s), law(l)
    assert [a.wide, b.wide] == [chained != "small", chained == "small"]
    assert ref_merged_cdfs(a, b)[0].size == a.values.size + b.values.size - 2
    for x, y in ((a, b), (b, a)):
        d, path, _ = ks_with_path(x, y)
        assert path == ["_full", "_grouped"]
        assert bits(d) == bits(ref_ks(x, y))


@pytest.mark.parametrize("m, n, weighted", [
    (50, 900, (False, False)), (900, 50, (False, False)), (333, 334, (False, False)),
    (700, 700, (False, False)), (60, 400, (True, True)), (512, 97, (True, False)),
    (300, 800, (False, True)),
])
def test_w1_equals_the_exact_rational_integral(m, n, weighted):
    # the quantile integral on float cumulative masses against the exact
    # integral of |F_a - F_b| over x
    rng = np.random.default_rng(m * 1009 + n)
    u = Direction.from_vector(rng.standard_normal(2))
    a = project(_cloud(rng, m, weighted[0]), u)
    b = project(_cloud(rng, n, weighted[1]), u)
    want = exact_w1(a, b)
    for x, y in ((a, b), (b, a)):
        assert abs(Fraction(wasserstein1(x, y)) - want) <= Fraction(1e-12) * want


@settings(max_examples=200, deadline=None)
@given(clouds(), clouds(), st.sampled_from(TRACE_DIRECTIONS), st.integers(0, 2**32 - 1))
def test_w1_is_bit_symmetric(m_a, m_b, coords, seed):
    # |x_a - x_b| and |x_b - x_a| are one float and the grid is one union, so
    # swapping the laws changes no bit, on tied laws and on larger draws alike
    u = Direction(np.array(coords))
    rng = np.random.default_rng(seed)
    pairs = [(project(m_a, u), project(m_b, u)),
             (project(_cloud(rng, int(rng.integers(1, 3000)), bool(seed % 2)), u),
              project(_cloud(rng, int(rng.integers(1, 3000)), bool(seed % 3)), u))]
    for a, b in pairs:
        assert bits(wasserstein1(a, b)) == bits(wasserstein1(b, a))


@pytest.mark.parametrize("target_weighted", [False, True])
def test_w1_trace_pass_equals_each_pair(target_weighted):
    # the pass keeps one plan per pair of sample sizes; a distance read from
    # it equals distance_trace along that direction alone and wasserstein1 of
    # the two projected laws, which builds its own plan, bit for bit
    rng = np.random.default_rng(29)
    sequence = [_cloud(rng, n, weighted) for n, weighted in
                ((300, False), (1200, False), (300, False), (700, True), (1200, False))]
    target = _cloud(rng, 900, target_weighted)
    directions = sample_uniform(2, 6, seed=4)
    for u, tr in zip(directions, distance_traces(sequence, target, directions, "w1")):
        want = [wasserstein1(project(elem, u), project(target, u)) for elem in sequence]
        assert bits(tr.distances) == bits(want)
        assert bits(distance_trace(sequence, target, u, "w1").distances) == bits(want)


def _traces_with_spies(sequence, target, directions, metric):
    # distance_traces' traces, the sizes of the cumulative masses of each
    # quantile plan it built, and whether each law it made was handed weights
    plans, weighted = [], []

    def plan(cum_a, cum_b):
        plans.append((cum_a.size, cum_b.size))
        return _quantile_plan(cum_a, cum_b)

    def law_of(column, weights, uniform):
        weighted.append(weights is not None)
        return law_fn(column, weights, uniform)

    law_fn = projections._law
    with mock.patch.multiple(projections, _quantile_plan=plan, _law=law_of):
        traces = distance_traces(sequence, target, directions, metric)
    return [bits(tr.distances) for tr in traces], plans, weighted


def _equal_masses(cloud):
    # the exact measure of mass 1/n on each row of a cloud of distinct rows
    return Empirical(cloud.points, np.full(cloud.n, 1.0 / cloud.n))


@pytest.mark.parametrize("metric", ["ks", "w1"])
def test_equal_mass_measures_take_the_sample_path(metric):
    # an exact measure whose masses all equal 1/n is read as the sample of its
    # atoms: the same distances bit for bit, no law of it handed weights, and
    # for W1 one quantile plan per pair of sizes for the whole pass
    rng = np.random.default_rng(31)
    sequence = [_cloud(rng, n, False) for n in (300, 1200, 300, 2000)]
    target = _cloud(rng, 900, False)
    directions = sample_uniform(2, 5, seed=6)
    want, want_plans, _ = _traces_with_spies(sequence, target, directions, metric)
    for seq, tgt in (([_equal_masses(e) for e in sequence], _equal_masses(target)),
                     (sequence, _equal_masses(target)),
                     ([sequence[0], _equal_masses(sequence[1]), *sequence[2:]], target)):
        got, plans, weighted = _traces_with_spies(seq, tgt, directions, metric)
        assert got == want
        assert not any(weighted)
        assert sorted(plans) == sorted(want_plans)
        assert len(plans) == len(set(plans)) == (3 if metric == "w1" else 0)


@pytest.mark.parametrize("metric", ["ks", "w1"])
def test_unequal_masses_take_the_weighted_path(metric):
    # masses one ulp off 1/n, and masses that merely sum to 1, leave the
    # measure weighted: each of its laws is handed its weights, and W1 builds
    # a plan for every pair that holds it
    rng = np.random.default_rng(37)
    sequence = [_cloud(rng, n, False) for n in (300, 1200)]
    cloud = _cloud(rng, 900, False)
    nudged = np.full(cloud.n, 1.0 / cloud.n)
    nudged[0] = np.nextafter(nudged[0], 1.0)
    nudged[1] = np.nextafter(nudged[1], 0.0)
    directions = sample_uniform(2, 4, seed=8)
    w = rng.uniform(0.5, 1.5, cloud.n)
    for weights in (nudged, w / w.sum()):
        target = Empirical(cloud.points, weights)
        assert not np.all(target.weights == 1.0 / cloud.n)
        got, plans, weighted = _traces_with_spies(sequence, target, directions, metric)
        assert weighted == [True, False, False] * len(directions)
        assert len(plans) == (len(directions) * len(sequence) if metric == "w1" else 0)
        for u, tr in zip(directions, got):
            t = project(target, u)
            fn = ks_distance if metric == "ks" else wasserstein1
            assert tr == bits([fn(project(elem, u), t) for elem in sequence])


@pytest.mark.parametrize("weights", [
    [0.6, 0.4 + 1e-13, 5e-14],  # an interior cumulative mass above 1
    [0.25, 0.25, 0.5 - 1e-13],
    [0.3, 0.3, 0.4 + 1e-13],
])
def test_w1_on_masses_that_sum_to_one_within_tolerance(weights):
    # masses sum to 1 +- 1e-13: the grid is clipped into [0, 1], so no piece
    # has negative width and W1 is finite and nonnegative
    a = Projected1D(np.array([0.0, 1.0, 2.0]), np.array(weights))
    for b in (law([0.5, 1.5]), law([0.0, 1.0 + 1e-9, 3.0], [0.5, 0.25, 0.25 + 1e-13]), a):
        for x, y in ((a, b), (b, a)):
            ia, ib, dt = _quantile_plan(x.cum, y.cum)
            assert np.all(dt > 0.0) and dt.sum() == pytest.approx(1.0, abs=1e-15)
            inner = np.concatenate((x.cum[1:-1], y.cum[1:-1])).clip(0.0, 1.0).tolist()
            starts = sorted({0.0, *inner} - {1.0})
            assert np.array_equal(ia, np.searchsorted(x.cum[1:-1], starts, "right"))
            assert np.array_equal(ib, np.searchsorted(y.cum[1:-1], starts, "right"))
            w1 = wasserstein1(x, y)
            assert np.isfinite(w1) and w1 >= 0.0
            assert bits(w1) == bits(ref_qw1(x, y))


class TestNoAliasing:
    def test_constructor_copies_writable_input(self):
        v, w = np.array([0.0, 1.0]), np.array([0.25, 0.75])
        p = Projected1D(v, w)
        v[0], w[:] = -5.0, 0.5
        assert p.values.tolist() == [0.0, 1.0] and p.weights.tolist() == [0.25, 0.75]

    def test_constructor_copies_read_only_view(self):
        base = np.array([0.0, 1.0, 2.0])
        view = base[:2]
        view.flags.writeable = False
        p = Projected1D(view, np.array([0.5, 0.5]))
        base[0] = -5.0
        assert p.values.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("weights", [None, np.array([0.2, 0.3, 0.5])])
    def test_project_returns_read_only_arrays_of_its_own(self, weights):
        source = Empirical(np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 3.0]]), weights)
        p = project(source, Direction(np.array([1.0, 0.0])))
        assert (p.weights is None) == (weights is None)
        assert not any(a.flags.writeable for a in (p.values, p.weights, p.cum) if a is not None)
        assert not np.shares_memory(p.values, source.points)
        with pytest.raises(ValueError):
            p.values[0] = 9.0


class TestDistanceTrace:
    def test_constant_target_sequence(self):
        t = Empirical(np.array([[0.0, 1.0], [2.0, -1.0]]))
        tr = distance_trace([t, t, t], t, Direction(np.array([1.0, 0.0])), "ks")
        assert tr.distances.tolist() == [0.0, 0.0, 0.0]
        assert [e[0] for e in tr.entries] == [1, 2, 3]
        assert tr.sizes.tolist() == [2, 2, 2]
        assert tr.sizes.dtype == np.int64
        assert not (tr.sizes.flags.writeable or tr.distances.flags.writeable)

    def test_gaussian_ks_decreases_below_dkw(self):
        # DKW: one-sample KS against the truth is < sqrt(ln(2/delta)/(2n))
        # w.p. 1-delta; with n=1e4 and a 1e5 reference this is well under 0.05
        rng = np.random.default_rng(42)
        seq = [Empirical(rng.standard_normal((n, 2))) for n in (100, 1000, 10000)]
        ref = Empirical(rng.standard_normal((10**5, 2)))
        tr = distance_trace(seq, ref, Direction(np.array([0.0, 1.0])), "ks")
        assert tr.distances[-1] < 0.05
        assert tr.distances[0] >= tr.distances[-1]
        dkw = np.sqrt(np.log(2 / 0.001) / (2 * 10**4)) + np.sqrt(np.log(2 / 0.001) / (2 * 10**5))
        assert tr.distances[-1] < dkw

    def test_shrinking_atoms_w1_exact(self):
        target = delta(0.0, 0.0)
        seq = [delta(1.0 / n, 0.0) for n in (1, 2, 4, 8)]
        tr = distance_trace(seq, target, Direction(np.array([1.0, 0.0])), "w1")
        assert tr.distances.tolist() == [1.0, 0.5, 0.25, 0.125]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distance_trace([Empirical(np.zeros((1, 3)))], delta(0.0, 0.0),
                           Direction(np.array([1.0, 0.0])), "ks")

    def test_empty_sequence_rejected(self):
        u = Direction(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="^sequence must be nonempty$"):
            distance_traces([], delta(0.0, 0.0), [u])
        with pytest.raises(ValueError, match="^sequence must be nonempty$"):
            distance_trace([], delta(0.0, 0.0), u)


class TestFarFromOrigin:
    # Far from the origin, neighbouring projections can be one float apart
    # and still more than MERGE_TOL apart: each stays its own atom, on its
    # own value, whatever the offset.

    def test_offset_gaussian_cloud(self):
        rng = np.random.default_rng(0)
        cloud = Empirical(1e6 + 1e-4 * rng.standard_normal((10**5, 3)))
        for u in sample_uniform(3, 20, seed=1):
            p = project(cloud, u)
            assert np.all(np.diff(p.values) > MERGE_TOL)
            assert np.all(np.isin(p.values, cloud.points @ u.coords))

    @pytest.mark.parametrize("offset", [1e4, 1e5, 1e12])
    def test_values_a_few_ulps_apart(self, offset):
        rng = np.random.default_rng(int(np.log10(offset)))
        values = offset + np.cumsum(rng.integers(1, 4, 2000)) * np.spacing(offset)
        assert np.diff(values).min() > MERGE_TOL
        points = np.column_stack([values[::-1], np.zeros(values.size)])
        sample = project(Empirical(points), Direction(np.array([1.0, 0.0])))
        assert bits(sample.values) == bits(values)
        w = rng.uniform(0.05, 1.0, values.size)
        w /= w.sum()
        order = rng.permutation(values.size)
        measure = Projected1D(values[order], w[order])
        assert bits(measure.values) == bits(values)
        assert bits(measure.weights) == bits(w)
