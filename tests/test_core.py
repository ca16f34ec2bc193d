import math
from fractions import Fraction

import numpy as np
import pytest
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
    normalize_power,
    power_scale,
    reciprocal_prime_weights,
    sample_degree,
    sample_degrees,
    weight_second_moment,
    zero_sum_row_template,
)
from afc.rng import substream

RECIP = reciprocal_prime_weights()
D8 = DegreeDistribution.fixed(8)
MIN_DEG_PERM = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.PERMUTATION_OF_SET)
UNIFORM_PERM = EncoderPolicy(Selection.UNIFORM_RANDOM, WeightAssignment.PERMUTATION_OF_SET)


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


class TestSampleDegree:
    def test_point_mass_eight(self):
        rng = substream(0, 1)
        assert all(sample_degree(D8, rng) == 8 for _ in range(50))

    def test_point_mass_one(self):
        rng = substream(0, 2)
        dist = DegreeDistribution((1.0,))
        assert all(sample_degree(dist, rng) == 1 for _ in range(50))

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
        dist = DegreeDistribution.fixed(3)
        with pytest.raises(InvalidConfigurationError):
            build_graph(100, 10, dist, RECIP, MIN_DEG_PERM, substream(1, 5))

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


class TestSymbolBlock:
    def test_validate_accepts_consistent_block(self):
        from afc.core import SymbolBlock

        g = build_graph(32, 16, D8, RECIP, MIN_DEG_PERM, substream(8, 1))
        bits = substream(8, 2).integers(0, 2, 32)
        b = bits_to_bpsk(bits)
        block = SymbolBlock(message_bits=bits, bpsk=b, coded=encode(g, b))
        block.validate(g)

    def test_validate_rejects_bad_symbols(self):
        from afc.core import SymbolBlock

        g = build_graph(32, 16, D8, RECIP, MIN_DEG_PERM, substream(8, 3))
        bits = substream(8, 4).integers(0, 2, 32)
        b = bits_to_bpsk(bits)
        block = SymbolBlock(message_bits=bits, bpsk=b * 0.5, coded=encode(g, b))
        with pytest.raises(ValueError):
            block.validate(g)
        block2 = SymbolBlock(message_bits=bits, bpsk=b, coded=encode(g, b) + 1e-6)
        with pytest.raises(ValueError):
            block2.validate(g)


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
            chunks.append(normalize_power(encode(g, b), D8, RECIP))
        c = np.concatenate(chunks)
        assert len(c) == 1_000_000
        assert abs(float(np.var(c)) - 1.0) < 0.02
