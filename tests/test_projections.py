import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkit.directions import Direction, sample_uniform
from cwkit.errors import DimensionMismatch
from cwkit.projections import (MASS_TOL, MERGE_TOL, AtomicMeasure, Empirical, Projected1D,
                               SampleSet, distance_trace, distance_traces, ks_distance, project,
                               wasserstein1)

SQ2 = np.sqrt(2.0) / 2.0


def delta(*coords):
    return AtomicMeasure(np.array([coords], dtype=float), np.array([1.0]))


def law(values, weights=None):
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.full(values.size, 1.0 / values.size)
    return Projected1D.from_raw(values, np.asarray(weights, dtype=float))


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

    @pytest.mark.parametrize("points", [np.zeros((0, 2)), np.zeros(3), np.zeros((2, 2, 2))])
    def test_unweighted_rejects_bad_shape(self, points):
        with pytest.raises(ValueError, match="nonempty"):
            Empirical(points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unweighted_rejects_nonfinite(self, bad):
        pts = self.PTS.copy()
        pts[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Empirical(pts)

    def test_unweighted_accepts_duplicate_rows(self):
        s = Empirical(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]))
        assert s.n == 3 and s.weights is None
        assert s.mass.tolist() == [1.0 / 3.0] * 3
        p = project(s, Direction(np.array([1.0, 0.0])))
        assert p.values.tolist() == [1.0, 3.0]
        assert p.weights == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-15)

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

    def test_measure_digest_ignores_label(self):
        w = np.full(3, 1.0 / 3.0)
        assert Empirical(self.PTS, w, label="a").digest() == Empirical(self.PTS, w).digest()
        assert Empirical(self.PTS, label="a").digest() != Empirical(self.PTS).digest()


class TestProject:
    def test_coordinate_projection(self):
        s = SampleSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
        p = project(s, Direction(np.array([1.0, 0.0])))
        assert p.values.tolist() == [1.0, 3.0]
        assert p.weights.tolist() == [0.5, 0.5]

    def test_diagonal_projection(self):
        m = AtomicMeasure(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
        p = project(m, Direction(np.array([SQ2, SQ2])))
        assert p.values == pytest.approx([0.0, np.sqrt(2.0)], abs=1e-15)
        assert p.weights.tolist() == [0.5, 0.5]

    def test_atoms_merging_to_one(self):
        m = AtomicMeasure(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5]))
        p = project(m, Direction(np.array([SQ2, SQ2])))
        assert p.n_atoms == 1
        assert p.values[0] == pytest.approx(SQ2, abs=1e-15)
        assert p.weights[0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project(SampleSet(np.zeros((2, 3))), Direction(np.array([1.0, 0.0])))

    def test_translation_by_direction(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((50, 3))
        u = Direction.from_vector(rng.standard_normal(3))
        c = 2.75
        a = project(SampleSet(pts + c * u.coords), u)
        b = project(SampleSet(pts), u)
        assert np.allclose(a.values, b.values + c, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_mass_preserved(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((rng.integers(1, 40), 2))
        u = Direction.from_vector(rng.standard_normal(2))
        p = project(SampleSet(pts), u)
        assert abs(p.weights.sum() - 1.0) <= 1e-12


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
        assert a.n_atoms == b.n_atoms
        assert np.allclose(a.values, b.values, atol=3e-12)
        assert np.allclose(a.weights, b.weights, atol=1e-12)


# Reference kernel: pool both laws, sort them together with a stable argsort,
# then group with reduceat, each group at its first value. The production
# kernel sorts each projected law once and merges the two sorted laws by
# searchsorted; it must reproduce this arithmetic bit for bit, because
# verdict reports are compared byte for byte.

def ref_from_raw(values, weights):
    order = np.argsort(values, kind="stable")
    values, weights = values[order], weights[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(values) > MERGE_TOL)))
    wsum = np.add.reduceat(weights, starts)
    return values[starts], wsum


def ref_merged_cdfs(a, b):
    values = np.concatenate([a.values, b.values])
    wa = np.concatenate([a.weights, np.zeros(b.n_atoms)])
    wb = np.concatenate([np.zeros(a.n_atoms), b.weights])
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
        return SampleSet(np.column_stack([x, y]))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    # distinct second coordinates keep the atoms pairwise distinct
    return AtomicMeasure(np.column_stack([x, np.arange(n, dtype=float)]), raw / raw.sum())


@settings(max_examples=300, deadline=None)
@given(clouds(), clouds(), st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.6, 0.8)]))
def test_kernel_bit_equal_to_reference(m_a, m_b, coords):
    u = Direction(np.array(coords))
    a, b = project(m_a, u), project(m_b, u)
    for m, p in ((m_a, a), (m_b, b)):
        ref_v, ref_w = ref_from_raw(m.points @ u.coords, m.mass)
        assert bits(p.values) == bits(ref_v)
        assert bits(p.weights) == bits(ref_w)
    for x, y in ((a, b), (b, a), (a, a)):
        assert bits(ks_distance(x, y)) == bits(ref_ks(x, y))
        assert bits(wasserstein1(x, y)) == bits(ref_w1(x, y))


TRACE_DIRECTIONS = [(1.0, 0.0), (-1.0, 0.0), (0.6, 0.8), (0.0, 1.0), (-0.8, 0.6)]


@settings(max_examples=200, deadline=None)
@given(st.lists(clouds(), min_size=1, max_size=3), clouds(),
       st.lists(st.sampled_from(TRACE_DIRECTIONS), min_size=3, max_size=4))
def test_trace_pass_bit_equal_to_reference(sequence, target, coords):
    # one pass over several directions shares the target's projection and the
    # cumulative masses of equal-size samples; each distance must still be the
    # pooled reference's, ties within MERGE_TOL across the laws included
    directions = [Direction(np.array(c)) for c in coords]
    for metric, ref in (("ks", ref_ks), ("w1", ref_w1)):
        traces = distance_traces(sequence, target, directions, metric)
        assert [tr.direction for tr in traces] == directions
        for u, tr in zip(directions, traces):
            t = project(target, u)
            want = [ref(project(elem, u), t) for elem in sequence]
            assert bits(tr.distances) == bits(want)
            assert tr.sizes.tolist() == [elem.n for elem in sequence]


def test_ks_merges_close_atoms_of_a_hand_built_law():
    # a Projected1D built by hand may hold atoms within MERGE_TOL of each
    # other. The pooled grid sums such a group's masses before the running
    # sum, which rounds apart from adding them one by one: here the two
    # orders give 0.4999999999999999 and 0.5
    a = Projected1D(np.array([0.0, 1e-13, 1.0]), np.array([0.4, 0.1, 0.5]))
    b = Projected1D(np.array([-0.5, 0.5, 0.5 + 1e-13]), np.array([0.1, 0.2, 0.7]))
    for x, y in ((a, b), (b, a), (a, a)):
        assert bits(ks_distance(x, y)) == bits(ref_ks(x, y))
        assert bits(wasserstein1(x, y)) == bits(ref_w1(x, y))


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
        assert bits(wasserstein1(x, y)) == bits(ref_w1(x, y))


@pytest.mark.parametrize("shift", [0.0, 0.5e-12])
def test_kernel_bit_equal_to_reference_with_cross_tie(shift):
    # one b-atom equal to, or 0.5e-12 above, an a-atom: the pooled atoms are
    # grouped, at the pooled positions the one search of the smaller law gives
    rng = np.random.default_rng(5)
    a_vals = np.sort(rng.uniform(1.0, 2.0, 3000))
    b_vals = np.sort(np.append(rng.uniform(1.0, 2.0, 1200), a_vals[1700] + shift))
    w = rng.uniform(0.05, 1.0, b_vals.size)
    a, b = law(a_vals), law(b_vals, w / w.sum())
    for x, y in ((a, b), (b, a)):
        assert bits(ks_distance(x, y)) == bits(ref_ks(x, y))
        assert bits(wasserstein1(x, y)) == bits(ref_w1(x, y))
        assert ref_merged_cdfs(x, y)[0].size == a.n_atoms + b.n_atoms - 1


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
        assert not (p.values.flags.writeable or p.weights.flags.writeable)
        assert not np.shares_memory(p.values, source.points)
        with pytest.raises(ValueError):
            p.values[0] = 9.0


class TestDistanceTrace:
    def test_constant_target_sequence(self):
        t = SampleSet(np.array([[0.0, 1.0], [2.0, -1.0]]))
        tr = distance_trace([t, t, t], t, Direction(np.array([1.0, 0.0])), "ks")
        assert tr.distances.tolist() == [0.0, 0.0, 0.0]
        assert tr.indices.tolist() == [1, 2, 3]
        assert tr.sizes.tolist() == [2, 2, 2]
        assert tr.sizes.dtype == np.int64
        assert not (tr.sizes.flags.writeable or tr.distances.flags.writeable)

    def test_gaussian_ks_decreases_below_dkw(self):
        # DKW: one-sample KS against the truth is < sqrt(ln(2/delta)/(2n))
        # w.p. 1-delta; with n=1e4 and a 1e5 reference this is well under 0.05
        rng = np.random.default_rng(42)
        seq = [SampleSet(rng.standard_normal((n, 2))) for n in (100, 1000, 10000)]
        ref = SampleSet(rng.standard_normal((10**5, 2)))
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
            distance_trace([SampleSet(np.zeros((1, 3)))], delta(0.0, 0.0),
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
        measure = Projected1D.from_raw(values[order], w[order])
        assert bits(measure.values) == bits(values)
        assert bits(measure.weights) == bits(w)
