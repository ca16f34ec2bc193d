import hashlib
import importlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from afc.core import (
    DegreeDistribution,
    EncoderPolicy,
    FactorGraph,
    InvalidConfigurationError,
    Selection,
    WeightAssignment,
    WeightSet,
    bits_to_bpsk,
    build_graph,
    encode,
    power_scale,
    reciprocal_prime_weights,
    row_power,
    sample_degrees,
    weight_second_moment,
    zero_sum_row_template,
)
from afc.core import _assign_members, _draw_members, _inclusion_probs, _select_min_degree
from afc.rng import substream

RECIP = reciprocal_prime_weights()
D8 = DegreeDistribution.fixed(8)
MIN_DEG_PERM = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.WITHOUT_REPLACEMENT)
UNIFORM_PERM = EncoderPolicy(Selection.UNIFORM_RANDOM, WeightAssignment.WITHOUT_REPLACEMENT)


@pytest.mark.parametrize(
    "module", ["afc.core", "afc.channel", "afc.decoder", "afc.precoder", "afc.analysis", "afc.harness"]
)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def two_var_graph(w0=0.5, w1=1 / 3):
    return FactorGraph(
        k=2,
        indptr=np.array([0, 2], dtype=np.int64),
        indices=np.array([0, 1], dtype=np.int64),
        weights=np.array([w0, w1]),
    )


class TestWeightSet:
    def test_reciprocal_primes(self):
        assert RECIP.f == 8
        assert RECIP.values[0] == 0.5
        assert RECIP.uniform
        assert math.isclose(sum(RECIP.probs), 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightSet((0.5, 0.0), (0.5, 0.5))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            WeightSet((0.5, 0.5), (0.5, 0.5))

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            WeightSet((0.5, 0.25), (0.9, 0.2))
        with pytest.raises(ValueError):
            WeightSet((0.5, 0.25), (1.1, -0.1))

    @pytest.mark.parametrize(
        "values, probs, message",
        [
            ((math.nan,), (1.0,), "finite and strictly positive"),
            ((math.inf,), (1.0,), "finite and strictly positive"),
            ((1.0, math.inf), (0.5, 0.5), "finite and strictly positive"),
            ((1.0, 2.0), (math.nan, math.nan), r"lie in \[0, 1\]"),
            ((1.0, 2.0), (math.inf, 0.0), r"lie in \[0, 1\]"),
        ],
    )
    def test_rejects_non_finite(self, values, probs, message):
        with pytest.raises(ValueError, match=message):
            WeightSet(values, probs)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightSet((), ())
        with pytest.raises(ValueError, match="at least one member"):
            WeightSet.uniform_exact([])

    def test_uniform_exact(self):
        ws = WeightSet.uniform_exact([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
        assert ws.exact == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
        assert ws.values == (0.5, 1 / 3, 0.2)
        assert ws.probs == (1 / 3, 1 / 3, 1 / 3)

    def test_second_moment(self):
        # (1/8) * sum of squared reciprocals of the first eight primes
        assert abs(weight_second_moment(RECIP) - 0.0552414) < 1e-6


class TestDegreeDistribution:
    def test_fixed(self):
        assert D8.mu == 8.0
        assert D8.max_degree == 8

    def test_mu(self):
        dist = DegreeDistribution((0.5, 0.5))
        assert dist.mu == 1.5

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            DegreeDistribution((0.5, 0.4))

    @pytest.mark.parametrize("omega", [(math.nan,), (0.5, math.nan), (math.inf,), (-math.inf, 1.0)])
    def test_rejects_non_finite(self, omega):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            DegreeDistribution(omega)


class TestSampleDegree:
    def test_point_mass_eight(self):
        assert np.all(sample_degrees(D8, 50, substream(0, 1)) == 8)

    def test_point_mass_one(self):
        dist = DegreeDistribution((1.0,))
        assert np.all(sample_degrees(dist, 50, substream(0, 2)) == 1)

    def test_mean_within_three_sigma(self):
        dist = DegreeDistribution((0.5, 0.5))
        rng = substream(0, 3)
        n = 1_000_000
        draws = sample_degrees(dist, n, rng)
        sigma = 0.5 / math.sqrt(n)  # degree is 1 or 2 with sd 0.5
        assert abs(draws.mean() - 1.5) <= 3 * sigma


class TestBuildGraph:
    def test_min_degree_forced_band(self):
        g = build_graph(10000, 5000, D8, RECIP, MIN_DEG_PERM, substream(1, 1))
        vd = g.var_degrees
        assert set(np.unique(vd)) <= {3, 4}

    def test_single_row_touches_all(self):
        g = build_graph(8, 1, D8, RECIP, MIN_DEG_PERM, substream(1, 2))
        idx, w = g.row(0)
        assert sorted(idx) == list(range(8))
        assert sorted(w) == sorted(RECIP.values)

    def test_uniform_disconnected_fraction(self):
        g = build_graph(1000, 500, D8, RECIP, UNIFORM_PERM, substream(1, 3))
        frac = float(np.mean(g.var_degrees == 0))
        p = math.exp(-4.0)
        assert abs(frac - p) <= 3 * math.sqrt(p * (1 - p) / 1000)

    def test_degree_exceeding_k_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            build_graph(4, 10, D8, RECIP, MIN_DEG_PERM, substream(1, 4))

    def test_permutation_needs_full_set(self):
        pol = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.BALANCED_PERMUTATION)
        with pytest.raises(InvalidConfigurationError):
            build_graph(100, 10, DegreeDistribution.fixed(3), RECIP, pol, substream(1, 5))

    def test_without_replacement_needs_small_degree(self):
        ws = WeightSet((0.5, 0.25), (0.5, 0.5))
        pol = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.WITHOUT_REPLACEMENT)
        with pytest.raises(InvalidConfigurationError):
            build_graph(100, 10, DegreeDistribution.fixed(3), ws, pol, substream(1, 6))

    def test_min_degree_band_various_shapes(self):
        for k, n in ((50, 7), (128, 333), (1000, 125)):
            g = build_graph(k, n, D8, RECIP, MIN_DEG_PERM, substream(2, k, n))
            vd = g.var_degrees
            assert vd.max() - vd.min() <= 1

    def test_uniform_degrees_fit_poisson(self):
        k, n = 10_000, 5_000
        g = build_graph(k, n, D8, RECIP, UNIFORM_PERM, substream(3, 1))
        alpha = n * 8 / k
        counts = np.bincount(g.var_degrees)
        # pool tail cells so every expected count is >= 5
        expected_pmf = [stats.poisson.pmf(i, alpha) for i in range(len(counts))]
        obs, exp = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(counts, expected_pmf):
            acc_o += o
            acc_e += e * k
            if acc_e >= 5:
                obs.append(acc_o)
                exp.append(acc_e)
                acc_o = acc_e = 0.0
        obs[-1] += acc_o
        exp[-1] += acc_e
        exp = np.array(exp) * (sum(obs) / sum(exp))
        chi2 = float(np.sum((np.array(obs) - exp) ** 2 / exp))
        crit = stats.chi2.ppf(0.99, df=len(obs) - 1)
        assert chi2 < crit

    def test_balanced_rows_carry_full_set(self):
        pol = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.BALANCED_PERMUTATION)
        g = build_graph(200, 100, D8, RECIP, pol, substream(4, 1))
        for idx, w in g.rows():
            assert sorted(w) == sorted(RECIP.values)

    def test_balanced_equalizes_power(self):
        pol_b = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.BALANCED_PERMUTATION)
        g = build_graph(1000, 500, D8, RECIP, pol_b, substream(4, 2))
        power = np.zeros(1000)
        for idx, w in g.rows():
            power[idx] += w**2
        g2 = build_graph(1000, 500, D8, RECIP, MIN_DEG_PERM, substream(4, 2))
        power2 = np.zeros(1000)
        for idx, w in g2.rows():
            power2[idx] += w**2
        assert power.std() < 0.5 * power2.std()

    def test_reproducible(self):
        a = build_graph(500, 250, D8, RECIP, MIN_DEG_PERM, substream(5, 9))
        b = build_graph(500, 250, D8, RECIP, MIN_DEG_PERM, substream(5, 9))
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)

    def test_balanced_matches_argsort_reference(self):
        policy = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.BALANCED_PERMUTATION)
        g = build_graph(300, 200, D8, RECIP, policy, substream(5, 10))
        desc = np.sort(RECIP.as_array())[::-1]
        strength = np.zeros(g.k)
        for i in range(g.m):
            idx, w = g.row(i)
            row = np.empty(8)
            row[np.argsort(strength[idx], kind="stable")] = desc
            assert np.array_equal(w, row)
            strength[idx] += row * row


def reference_assign_balanced(ws, k, indices):
    """The balanced placement one row at a time, in Python floats."""
    f = ws.f
    desc = sorted(ws.values, reverse=True)
    strength = [0.0] * k
    flat = indices.tolist()
    out = [0.0] * len(flat)
    for pos in range(0, len(flat), f):
        idx = flat[pos : pos + f]
        order = sorted(range(f), key=lambda t: strength[idx[t]])  # stable: weakest variable first
        for t, w in zip(order, desc):  # weakest gets the largest magnitude
            out[pos + t] = w
            strength[idx[t]] += w * w
    return np.array(out, dtype=np.float64)


class TestBalancedPlacement:
    """Placing a run of variable-disjoint rows at once gives the row loop's weights."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(8, 2000),
        epochs=st.floats(0.0, 4.0),
        selection=st.sampled_from(Selection),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_loop(self, k, epochs, selection, seed):
        # an epoch is k / 8 rows, the rows that touch each variable about once
        self.assert_matches(k, max(1, round(epochs * k / 8)), selection, seed)

    # at k == 8 every row holds every variable, so every run is one row
    @pytest.mark.parametrize("rows", [1, 2, 40])
    @pytest.mark.parametrize("selection", list(Selection), ids=lambda s: s.value)
    def test_matches_row_loop_at_k_8(self, selection, rows):
        self.assert_matches(8, rows, selection, rows)

    @staticmethod
    def assert_matches(k, rows, selection, seed):
        policy = EncoderPolicy(selection, WeightAssignment.BALANCED_PERMUTATION)
        g = build_graph(k, rows, D8, RECIP, policy, np.random.default_rng(seed))
        assert g.weights.tobytes() == reference_assign_balanced(RECIP, k, g.indices).tobytes()


class TestEncode:
    def test_two_weight_sum(self):
        c = encode(two_var_graph(), np.array([1.0, 1.0]))
        assert abs(c[0] - 5 / 6) < 1e-15

    def test_zero_sum_row(self):
        tmpl = np.array(zero_sum_row_template())
        g = FactorGraph(
            k=8,
            indptr=np.array([0, 8], dtype=np.int64),
            indices=np.arange(8, dtype=np.int64),
            weights=tmpl,
        )
        assert encode(g, np.ones(8))[0] == 0.0

    def test_deterministic(self):
        g = build_graph(16, 8, D8, RECIP, MIN_DEG_PERM, substream(6, 1))
        b = bits_to_bpsk(substream(6, 2).integers(0, 2, 16))
        assert np.array_equal(encode(g, b), encode(g, b))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encode(two_var_graph(), np.ones(3))

    def test_linearity(self):
        g = build_graph(64, 32, D8, RECIP, MIN_DEG_PERM, substream(6, 3))
        rng = substream(6, 4)
        x = rng.normal(size=64)
        y = rng.normal(size=64)
        lhs = encode(g, x) + encode(g, y)
        rhs = encode(g, x + y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize(
        "indptr, expected",
        [([0, 0, 2], [0.0, 0.75]), ([0, 2, 2], [0.75, 0.0]), ([0, 1, 1, 2], [0.5, 0.0, 0.25])],
    )
    def test_empty_rows_sum_to_zero(self, indptr, expected):
        g = FactorGraph(k=2, indptr=np.array(indptr), indices=np.array([0, 1]), weights=np.array([0.5, 0.25]))
        assert np.array_equal(encode(g, np.ones(2)), expected)

    def test_coded_matches_row_sums(self):
        g = build_graph(100, 60, D8, RECIP, MIN_DEG_PERM, substream(6, 5))
        b = bits_to_bpsk(substream(6, 6).integers(0, 2, 100))
        c = encode(g, b)
        for i in (0, 17, 59):
            idx, w = g.row(i)
            assert abs(c[i] - float(np.dot(w, b[idx]))) <= 1e-12


class TestNormalizePower:
    def test_unit_set_scale(self):
        ws = WeightSet((1.0,), (1.0,))
        dist = DegreeDistribution.fixed(1)
        assert power_scale(dist, ws) == 1.0

    def test_normalized_variance_near_one(self):
        rng = substream(7, 1)
        chunks = []
        for t in range(100):
            g = build_graph(1000, 10_000, D8, RECIP, UNIFORM_PERM, substream(7, 2, t))
            b = bits_to_bpsk(substream(7, 3, t).integers(0, 2, 1000))
            chunks.append(encode(g, b) * power_scale(D8, RECIP))
        c = np.concatenate(chunks)
        assert len(c) == 1_000_000
        assert abs(float(np.var(c)) - 1.0) < 0.02


class _MinDegreePools:
    """Per-pick min-degree-first selection, the reference for ``_select_min_degree``.

    One method call per chosen variable: swap-and-pop inside the low bucket,
    the low bucket promoted whole when a row outgrows it, and uniforms taken
    one at a time from lazily drawn 4096-blocks.
    """

    _BLOCK = 4096

    def __init__(self, k, rng):
        self.low = rng.permutation(k).tolist()
        self.high = []
        self.rng = rng
        self._uniforms = rng.random(self._BLOCK).tolist()
        self._cursor = 0

    def _pop(self, pool):
        if self._cursor == self._BLOCK:
            self._uniforms = self.rng.random(self._BLOCK).tolist()
            self._cursor = 0
        j = int(self._uniforms[self._cursor] * len(pool))
        self._cursor += 1
        pool[j], pool[-1] = pool[-1], pool[j]
        return pool.pop()

    def take_row(self, d):
        if d <= len(self.low):
            chosen = [self._pop(self.low) for _ in range(d)]
            self.high.extend(chosen)
            if not self.low:
                self.low, self.high = self.high, []
            return chosen
        promoted = list(self.low)
        spill = [self._pop(self.high) for _ in range(d - len(promoted))]
        self.low = self.high + promoted
        self.high = spill
        return promoted + spill


def reference_select_min_degree(k, degrees, rng):
    pools = _MinDegreePools(k, rng)
    out = []
    for d in degrees.tolist():
        out += pools.take_row(d)
    return np.array(out, dtype=np.int64)


@st.composite
def selection_draws(draw):
    """(k, degrees, seed) over mixed degree PMFs, up to about 15,000 picks."""
    k = draw(st.integers(1, 64))
    dmax = draw(st.integers(1, min(k, 10)))
    mass = draw(st.lists(st.integers(0, 3), min_size=dmax, max_size=dmax).filter(any))
    dist = DegreeDistribution(tuple(m / sum(mass) for m in mass))
    rows = draw(st.integers(1, 1500))
    seed = draw(st.integers(0, 2**32 - 1))
    return k, sample_degrees(dist, rows, np.random.default_rng(seed)), seed


def assert_matches_reference(k, degrees, seed):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(_select_min_degree(k, degrees, rng), reference_select_min_degree(k, degrees, ref_rng))
    assert rng.random() == ref_rng.random()  # same number of uniform blocks drawn


class TestMinDegreeSelection:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(selection_draws())
    def test_matches_per_pick_reference(self, case):
        assert_matches_reference(*case)

    # fixed degrees whose consumed uniforms land on or just past a block edge:
    # 3549 and 3276 (fewer than the 4140 and 4480 picks), 4096, 4097, 8192, 8193
    @pytest.mark.parametrize(
        "k,d,rows",
        [(7, 3, 1380), (13, 8, 560), (13, 8, 701), (5, 3, 1707), (33, 8, 572), (12, 8, 1229), (41, 8, 1119)],
    )
    def test_matches_reference_at_block_edges(self, k, d, rows):
        assert_matches_reference(k, np.full(rows, d, dtype=np.int64), 1000 * k + rows)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(selection_draws())
    def test_rows_keep_degree_band(self, case):
        k, degrees, seed = case
        picks = _select_min_degree(k, degrees, np.random.default_rng(seed))
        assert len(picks) == degrees.sum()  # so each row's slice holds exactly its degree
        counts = np.zeros(k, dtype=np.int64)
        for row in np.split(picks, np.cumsum(degrees)[:-1]):
            assert len(np.unique(row)) == len(row)
            counts[row] += 1
            assert counts.max() - counts.min() <= 1


MIXED = DegreeDistribution((0.1, 0.2, 0.0, 0.2, 0.0, 0.0, 0.2, 0.3))


@pytest.mark.parametrize(
    "case,k,rows,dist,selection,assignment,digest,next_draw",
    [
        (0, 200, 150, D8, "min-degree", "balanced-permutation",
         "eb2e30c1ca646e818cfe014bb23f0c199b3bab44b2a9080536927a13d4f8d4f4", 0.30215179304070217),
        (1, 1000, 800, D8, "min-degree", "without-replacement",
         "b43d782b628a50f415e72e2c39df6c05fc95f407ec433d80c218daca9f8b692b", 0.8557919918106874),
        (2, 1000, 900, D8, "uniform", "balanced-permutation",
         "ba9ed80bd38d4392fbf201419772c79a2bfc5a760abb7e3d8cdeb90907338b83", 0.43884637668026616),
        (3, 10000, 3456, D8, "min-degree", "with-replacement",
         "3ed83227211adfabc4e7dee466861e70d07cb6f058206b04517c404531a16e52", 0.8042609068074374),
        (4, 1000, 700, MIXED, "min-degree", "without-replacement",
         "8830781ccf8dbd950bc7b0c7691d3f4dcb5901ef89c9698094747f201331da37", 0.49200392980843133),
        (5, 200, 400, MIXED, "uniform", "with-replacement",
         "9036d0a5e52a6446cecdcf6e53e81989d5c5e444ae3a015995033da85e535b9f", 0.4627684624838979),
        (6, 10000, 2000, D8, "uniform", "without-replacement",
         "2e3c62bc5241f9079fa025bdfeb0919a0754a2df1787f0a46d98913d5468ae27", 0.6049538402291971),
    ],
    ids=lambda v: v if isinstance(v, str) and len(v) < 30 else None,
)
def test_build_graph_golden_fingerprint(case, k, rows, dist, selection, assignment, digest, next_draw):
    """Graphs, and the draws after them, are pinned: a change of draws moves every sweep's CSV."""
    rng = substream(11, case)
    policy = EncoderPolicy(Selection(selection), WeightAssignment(assignment))
    g = build_graph(k, rows, dist, RECIP, policy, rng)
    assert hashlib.sha256(g.indices.tobytes() + g.weights.tobytes()).hexdigest() == digest
    assert rng.random() == next_draw


SKEWED = WeightSet((1.0, 0.5, 0.25, 0.125), (0.4, 0.3, 0.2, 0.1))


@pytest.mark.parametrize(
    "ws",
    [RECIP, SKEWED, WeightSet((1.0, 2.0, 3.0), (0.0, 0.7, 0.3))],
    ids=["uniform", "skewed", "zero-prob"],
)
@pytest.mark.parametrize("size", [0, 1, 7, 100_000, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_draw_members_equals_choice(ws, size):
    # sizes on and across the 2^16-draw block edges of the streamed draw
    rng, ref = substream(13, size), substream(13, size)
    drawn = ws.as_array().take(_draw_members(ws.probs, size, rng))
    expected = ref.choice(ws.as_array(), size=size, p=ws.probs)
    assert np.array_equal(drawn, expected)
    # an odd-length draw of range 2 leaves a spare half-word in the generator
    assert np.array_equal(rng.integers(0, 2, 3), ref.integers(0, 2, 3))
    assert rng.random() == ref.random()


def test_build_graph_skewed_with_replacement_fingerprint():
    rng = substream(11, 9)
    policy = EncoderPolicy(Selection.UNIFORM_RANDOM, WeightAssignment.WITH_REPLACEMENT)
    g = build_graph(500, 300, DegreeDistribution((0.2, 0.3, 0.0, 0.5)), SKEWED, policy, rng)
    digest = "142778f7603bc3590aeffd397e2ba72d753dd2e3fddf2822a2e37306f4788173"
    assert hashlib.sha256(g.indices.tobytes() + g.weights.tobytes()).hexdigest() == digest
    assert rng.random() == 0.9550212053290958


def _plackett_luce(probs, tup):
    """Probability that a successive draw without replacement gives ``tup`` in order."""
    if len(set(tup)) < len(tup):
        return 0.0
    out, left = 1.0, 1.0
    for i in tup:
        out *= probs[i] / left
        left -= probs[i]
    return out


@pytest.mark.parametrize(
    "ws, d",
    [(SKEWED, 3), (SKEWED, 4), (WeightSet((1.0, 2.0, 3.0, 4.0), (0.0, 0.6, 0.3, 0.1)), 3)],
    ids=["skewed-3", "skewed-4", "zero-prob-3"],
)
def test_without_replacement_rows_follow_successive_draw_law(ws, d):
    # every ordered d-tuple's frequency against its closed-form probability
    rows = 200_000
    members = _assign_members(ws, np.full(rows, d), WeightAssignment.WITHOUT_REPLACEMENT, substream(14, d))
    codes = members.reshape(rows, d).astype(np.int64) @ ws.f ** np.arange(d - 1, -1, -1)
    counts = np.bincount(codes, minlength=ws.f**d)
    tuples = list(itertools.product(range(ws.f), repeat=d))  # in code order
    expected = np.array([_plackett_luce(ws.probs, t) for t in tuples])
    assert counts[expected == 0].sum() == 0  # no repeated or zero-probability member
    live = expected > 0
    assert stats.chisquare(counts[live], rows * expected[live]).pvalue > 1e-3


@pytest.mark.parametrize(
    "probs", [SKEWED.probs, (0.0, 0.4, 0.3, 0.3), (0.05, 0.5, 0.0, 0.25, 0.2)], ids=["skewed", "zero", "five"]
)
def test_inclusion_probs_sum_successive_draw_law(probs):
    # each member's chance to be in a row sums the closed form over the ordered d-tuples
    f = len(probs)
    for d in range(1, np.count_nonzero(probs) + 1):
        expected = np.zeros(f)
        for t in itertools.permutations(range(f), d):
            expected[list(t)] += _plackett_luce(probs, t)
        assert np.allclose(_inclusion_probs(probs, d), expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "dist, ws, assignment",
    [
        (DegreeDistribution((0.2, 0.3, 0.0, 0.5)), SKEWED, WeightAssignment.WITHOUT_REPLACEMENT),
        (DegreeDistribution.fixed(4), SKEWED, WeightAssignment.BALANCED_PERMUTATION),
        (DegreeDistribution((0.2, 0.3, 0.0, 0.5)), SKEWED, WeightAssignment.WITH_REPLACEMENT),
        (D8, RECIP, WeightAssignment.BALANCED_PERMUTATION),
    ],
)
def test_power_scale_gives_unit_power(dist, ws, assignment):
    g = build_graph(2000, 100_000, dist, ws, EncoderPolicy(Selection.UNIFORM_RANDOM, assignment), substream(15, 1))
    b = bits_to_bpsk(substream(15, 2).integers(0, 2, 2000))
    assert abs(np.mean(np.square(encode(g, b) * power_scale(dist, ws, assignment))) - 1.0) < 0.01


def test_row_power_of_uniform_set_is_the_iid_power():
    # each member of a uniform set fills d / f of the rows; the value is the i.i.d. one, bit for bit
    for assignment in WeightAssignment:
        assert row_power(D8, RECIP, assignment) == D8.mu * weight_second_moment(RECIP)


def test_row_power_refuses_huge_non_uniform_set():
    vals = tuple(float(v) for v in range(1, 23))
    ws = WeightSet(vals, tuple(v / sum(vals) for v in vals))
    with pytest.raises(InvalidConfigurationError, match="f = 22 exceeds 20"):
        power_scale(DegreeDistribution.fixed(3), ws, WeightAssignment.WITHOUT_REPLACEMENT)


@pytest.mark.parametrize("dist", [DegreeDistribution.fixed(3), DegreeDistribution((0.5, 0.3, 0.2))])
def test_without_replacement_degree_above_drawable_members_refused(dist):
    # a member of probability 0 is never drawn, so it cannot fill a row
    ws = WeightSet((1.0, 2.0, 3.0), (0.0, 0.7, 0.3))
    rng = substream(14, 9)
    state = rng.bit_generator.state
    with pytest.raises(InvalidConfigurationError, match="degree 3 exceeds the 2 members of nonzero probability"):
        build_graph(100, 10, dist, ws, UNIFORM_PERM, rng)
    assert rng.bit_generator.state == state
