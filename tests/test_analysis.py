import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from afc.analysis import (
    CandidateFamily,
    DegenerateEquationError,
    EnumerationCapError,
    WeightSearchError,
    ambiguity_recursion,
    check_nonzero_condition,
    difference_projection,
    error_floor_bound,
    extension_collision_prob,
    gaussian_fit_check,
    pairwise_error_prob,
    q_function,
    search_weight_set,
    signed_sum_table,
    unique_solution_fraction,
    unique_solution_oracle,
)
from afc.core import (
    DegreeDistribution,
    EncoderPolicy,
    FactorGraph,
    Selection,
    WeightAssignment,
    WeightSet,
    build_graph,
    reciprocal_prime_weights,
    zero_sum_row_template,
)
from afc.rng import substream

RECIP = reciprocal_prime_weights()


class TestQFunction:
    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_symmetry(self):
        for x in (0.5, 1.0, 2.0):
            assert abs(q_function(x) + q_function(-x) - 1.0) < 1e-15

    def test_against_quadrature(self):
        for x in (0.2, 1.3, 3.7):
            ref, err = integrate.quad(
                lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi),
                x, np.inf, epsabs=1e-16, epsrel=1e-13,
            )
            assert abs(q_function(x) - ref) <= 1e-12 * ref + err

    def test_known_value(self):
        assert abs(q_function(0.2) - 0.420740) < 1e-6

    def test_array_input(self):
        out = q_function(np.array([0.0, 0.2]))
        assert out.shape == (2,)


class TestErrorFloor:
    def test_values(self):
        assert abs(error_floor_bound(4.0) - 0.0183156) < 1e-6
        assert error_floor_bound(0.0) == 1.0
        assert error_floor_bound(float("inf")) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            error_floor_bound(-0.1)


class TestPairwiseErrorProb:
    def graph(self, seed=0, k=10, m=20):
        pol = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.PERMUTATION_OF_SET)
        return build_graph(k, m, DegreeDistribution.fixed(8), RECIP, pol, substream(seed, 1))

    def test_single_flip_closed_form(self):
        g = self.graph()
        b = np.ones(10)
        sigma = 0.4
        total = 0.0
        for idx, w in g.rows():
            sel = w[idx == 1]
            total += float(np.sum(sel)) ** 2 if len(sel) else 0.0
        expected = q_function(math.sqrt(total) / sigma)
        assert abs(pairwise_error_prob(g, b, [1], sigma) - expected) < 1e-12

    def test_zero_sum_rows_give_half(self):
        import numpy as np
        from afc.core import FactorGraph

        tmpl = np.array(zero_sum_row_template())
        g = FactorGraph(
            k=8,
            indptr=np.array([0, 8, 16], dtype=np.int64),
            indices=np.concatenate([np.arange(8), np.arange(8)]).astype(np.int64),
            weights=np.concatenate([tmpl, tmpl]),
        )
        p = pairwise_error_prob(g, np.ones(8), list(range(8)), 0.5)
        assert p == 0.5

    def test_monte_carlo_agreement(self):
        rng = substream(2, 1)
        g = self.graph(seed=3)
        b = 1.0 - 2.0 * substream(2, 2).integers(0, 2, 10)
        sigma = 0.8
        flips = [0, 3, 7]
        p = pairwise_error_prob(g, b, flips, sigma)
        mask = np.zeros(10)
        mask[flips] = 1.0
        contrib = g.weights * b[g.indices] * mask[g.indices]
        t = np.add.reduceat(contrib, g.indptr[:-1])
        draws = 100_000
        noise = rng.normal(0.0, sigma, size=(draws, g.m))
        # ||u - Gb'||^2 < ||u - Gb||^2 with u = Gb + n reduces to n.t > ||t||^2
        wins = float(np.mean(noise @ t > float(np.dot(t, t))))
        assert abs(wins - p) <= 3 * math.sqrt(p * (1 - p) / draws)

    def test_monotone_in_rows(self):
        g_small = self.graph(seed=4, m=10)
        pol = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.PERMUTATION_OF_SET)
        # extend with extra rows: p must not increase
        import numpy as np
        from afc.core import FactorGraph

        extra = build_graph(10, 5, DegreeDistribution.fixed(8), RECIP, pol, substream(4, 9))
        g_big = FactorGraph(
            k=10,
            indptr=np.concatenate([g_small.indptr, g_small.indptr[-1] + extra.indptr[1:]]),
            indices=np.concatenate([g_small.indices, extra.indices]),
            weights=np.concatenate([g_small.weights, extra.weights]),
        )
        b = np.ones(10)
        for flips in ([0], [1, 4], [2, 5, 8]):
            assert pairwise_error_prob(g_big, b, flips, 0.5) <= pairwise_error_prob(
                g_small, b, flips, 0.5
            )

    @pytest.mark.parametrize("indptr, expected", [([0, 0, 2], [0.0, 0.5]), ([0, 2, 2], [0.5, 0.0])])
    def test_difference_projection_empty_rows(self, indptr, expected):
        g = FactorGraph(k=2, indptr=np.array(indptr), indices=np.array([0, 1]), weights=np.array([0.5, 0.25]))
        assert np.array_equal(difference_projection(g, np.ones(2), [0]), expected)

    def test_validation(self):
        g = self.graph()
        with pytest.raises(ValueError):
            pairwise_error_prob(g, np.ones(10), [], 0.5)
        with pytest.raises(ValueError):
            pairwise_error_prob(g, np.ones(10), [11], 0.5)


class TestNonzeroCondition:
    def test_small_reciprocal_set(self):
        ws = WeightSet(
            (0.5, 1 / 3, 0.2),
            (1 / 3, 1 / 3, 1 / 3),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
        )
        assert check_nonzero_condition(ws, 3).ok

    def test_flagship_set(self):
        assert check_nonzero_condition(RECIP, 8).ok

    def test_zero_sum_template_fails(self):
        res = check_nonzero_condition(zero_sum_row_template())
        assert not res.ok
        assert sum(c * w for c, w in res.witness) == 0

    def test_with_replacement_fails(self):
        res = check_nonzero_condition(RECIP, 2, WeightAssignment.WITH_REPLACEMENT)
        assert not res.ok
        (c1, w1), (c2, w2) = res.witness
        assert w1 == w2 and c1 == -c2

    def test_enumeration_cap(self):
        vals = tuple(1.0 / (i + 2) for i in range(14))
        ws = WeightSet(vals, tuple(1 / 14 for _ in vals))
        with pytest.raises(EnumerationCapError):
            check_nonzero_condition(ws, 14)


class TestExactInputs:
    """The certificates run in exact arithmetic: a float that is not an
    integer is refused rather than tested for zero in binary floating point."""

    FLOAT_SET = WeightSet((0.5, 0.25, 0.2), (1 / 3, 1 / 3, 1 / 3))

    def test_float_set_rejected_by_condition(self):
        with pytest.raises(ValueError, match="not an exact rational"):
            check_nonzero_condition(self.FLOAT_SET, 3)
        with pytest.raises(ValueError, match="not an exact rational"):
            check_nonzero_condition(self.FLOAT_SET, 2, WeightAssignment.WITH_REPLACEMENT)

    def test_float_template_rejected(self):
        with pytest.raises(ValueError, match="not an exact rational"):
            check_nonzero_condition([0.5, 0.25])

    def test_float_target_rejected_by_oracle(self):
        with pytest.raises(ValueError, match="not an exact rational"):
            unique_solution_oracle([Fraction(1, 2), Fraction(1, 4)], 0.5)

    def test_float_set_rejected_by_collision_prob(self):
        with pytest.raises(ValueError, match="not an exact rational"):
            extension_collision_prob([Fraction(1, 2), Fraction(1, 3)], self.FLOAT_SET)

    def test_float_weights_rejected_by_recursion(self):
        with pytest.raises(ValueError, match="not an exact rational"):
            ambiguity_recursion([0.5, 0.25, 0.2], 3)

    def test_integer_valued_floats_accepted(self):
        res = check_nonzero_condition([1.0, 2.0, 3.0])
        assert not res.ok and all(isinstance(w, Fraction) for _, w in res.witness)
        assert unique_solution_oracle([1.0, np.int64(2)], 3.0) == 1

    def test_exact_set_catches_what_binary_values_miss(self):
        # the binary values of 1/3 and 1/6 do not sum to that of 1/2, so an
        # exact test on the floats would pass a set whose rationals cancel
        assert Fraction(1 / 3) + Fraction(1 / 6) != Fraction(1 / 2)
        ws = WeightSet.uniform_exact([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        res = check_nonzero_condition(ws, 3)
        assert not res.ok and sum(c * w for c, w in res.witness) == 0


class TestSumTable:
    def test_two_distinct(self):
        table = signed_sum_table([Fraction(1), Fraction(2)])
        assert table == {Fraction(3): 1, Fraction(1): 1, Fraction(-1): 1, Fraction(-3): 1}

    def test_repeated(self):
        table = signed_sum_table([Fraction(1), Fraction(1)])
        assert table[Fraction(0)] == 2


class TestUniqueSolutionOracle:
    def test_powers_of_two(self):
        assert unique_solution_oracle([1, 2, 4], 7) == 1
        assert unique_solution_oracle([1, 2, 4], 5) == 1

    def test_repeated_weight(self):
        assert unique_solution_oracle([1, 1], 0) == 2

    def test_small_reciprocals_all_unique(self):
        w = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
        table = signed_sum_table(w)
        assert len(table) == 8
        for u in table:
            assert unique_solution_oracle(w, u) == 1

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            unique_solution_oracle(list(range(1, 22)), 0)


class TestConditionImpliesUnique:
    def test_passing_set_has_unique_sums(self):
        # a set passing the zero-sum condition pins every sign assignment
        assert check_nonzero_condition(RECIP, 8).ok
        table = signed_sum_table(RECIP.exact)
        assert len(table) == 2**8
        assert all(c == 1 for c in table.values())

    def test_random_passing_sets(self):
        rng = substream(60, 1)
        found = 0
        while found < 3:
            vals = set()
            while len(vals) < 6:
                vals.add(Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50))))
            ws = WeightSet(
                values=tuple(float(v) for v in vals),
                probs=tuple(1 / 6 for _ in vals),
                exact=tuple(vals),
            )
            if not check_nonzero_condition(ws, 6).ok:
                continue
            found += 1
            table = signed_sum_table(ws.exact)
            assert all(c == 1 for c in table.values())


class TestCollisionProb:
    def test_flagship_zero(self):
        for l in (2, 4, 6):
            assert extension_collision_prob(RECIP.exact[:l], RECIP) == 0

    def test_two_weights(self):
        ws = WeightSet((1.0, 2.0), (0.5, 0.5), (Fraction(1), Fraction(2)))
        assert extension_collision_prob([Fraction(1), Fraction(2)], ws) == Fraction(1, 8)

    def test_repeated_weight_conditioning(self):
        # S over (1,1) is 0 half the time; conditioning doubles the |S|=2 mass
        ws = WeightSet((1.0, 2.0), (0.5, 0.5), (Fraction(1), Fraction(2)))
        assert extension_collision_prob([Fraction(1), Fraction(1)], ws) == Fraction(1, 4)

    def test_degenerate(self):
        ws = WeightSet((1.0,), (1.0,), (Fraction(1),))
        with pytest.raises(DegenerateEquationError):
            extension_collision_prob([Fraction(0), Fraction(0)], ws)


class TestAmbiguityRecursion:
    def test_distinct_base_case(self):
        rep = ambiguity_recursion([Fraction(1, 2), Fraction(1, 3)], 2)
        assert rep.e_l == 0

    def test_flagship_stays_zero(self):
        rep = ambiguity_recursion(RECIP.exact, 8, ws=RECIP)
        assert rep.e_l == 0
        assert all(E == 0 for E in rep.E_trace)
        rep2 = ambiguity_recursion(RECIP.exact, 8)
        assert rep2.e_l == 0

    def test_matches_oracle_on_random_tuples(self):
        rng = substream(12345, 1)
        for _ in range(50):
            l = int(rng.integers(3, 11))
            vals = set()
            while len(vals) < l:
                vals.add(Fraction(int(rng.integers(1, 1000)), int(rng.integers(1, 1000))))
            w = list(vals)
            rep = ambiguity_recursion(w, l)
            assert 1 - rep.e_l == unique_solution_fraction(w)

    def test_simple_collision_exact(self):
        w = [Fraction(1), Fraction(1), Fraction(2)]
        rep = ambiguity_recursion(w, 3)
        assert rep.e_l == Fraction(3, 4) == 1 - unique_solution_fraction(w)

    def test_known_blind_spot(self):
        # compound coincidences are outside the two-branch argument: the
        # closed form undercounts for (1,1,2,2)
        w = [Fraction(1), Fraction(1), Fraction(2), Fraction(2)]
        rep = ambiguity_recursion(w, 4)
        assert rep.e_l == Fraction(5, 6)
        assert 1 - unique_solution_fraction(w) == Fraction(7, 8)

    def test_trace_identity(self):
        w = [Fraction(1), Fraction(1), Fraction(2), Fraction(3)]
        rep = ambiguity_recursion(w, 4)
        e = rep.e_trace[0]
        for E, e_next in zip(rep.E_trace, rep.e_trace[1:]):
            assert e_next == 1 - (1 - E) * (1 - e)
            e = e_next


class TestGaussianFit:
    def test_flagship_passes(self):
        rng = substream(777, 1)
        report = gaussian_fit_check(RECIP, 8, 0.2, 1e-4, 2_000_000, rng)
        assert report.satisfied
        assert abs(report.bins[0].q_ref - 0.079260) < 1e-6

    def test_two_point_set_fails(self):
        ws = WeightSet((1.0,), (1.0,))
        rng = substream(777, 2)
        report = gaussian_fit_check(ws, 1, 0.2, 1e-4, 200_000, rng)
        assert not report.satisfied

    def test_balanced_rows_carry_the_whole_set(self):
        # balanced placement differs from a permutation only across variables:
        # each row still holds all f members, so the symbol law is the same
        reports = [
            gaussian_fit_check(RECIP, 8, 0.2, 1e-4, 200_000, np.random.default_rng(5), a)
            for a in (WeightAssignment.BALANCED_PERMUTATION, WeightAssignment.PERMUTATION_OF_SET)
        ]
        assert reports[0] == reports[1]
        assert not reports[0].satisfied

    @pytest.mark.parametrize(
        "ws, d, assignment",
        [
            (RECIP, 7, WeightAssignment.BALANCED_PERMUTATION),
            (RECIP, 7, WeightAssignment.PERMUTATION_OF_SET),
            (WeightSet((1.0, 2.0, 3.0), (0.5, 0.25, 0.25)), 2, WeightAssignment.WITHOUT_REPLACEMENT),
        ],
    )
    def test_unsupported_draws_rejected(self, ws, d, assignment):
        with pytest.raises(ValueError):
            gaussian_fit_check(ws, d, 0.2, 1e-4, 1000, np.random.default_rng(0), assignment)

    def test_csv_layout(self, tmp_path):
        rng = substream(777, 3)
        report = gaussian_fit_check(RECIP, 8, 0.2, 1e-4, 100_000, rng)
        path = tmp_path / "bins.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_index,p_hat,q_ref,gap_sq"
        assert len(lines) == len(report.bins) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == report.bins[0].p_hat


class TestSearch:
    def test_flagship_accepted_first(self):
        rng = substream(50, 1)
        ws = search_weight_set(8, 8, 0.2, 1e-4, CandidateFamily.RECIPROCAL_PRIMES, rng, n_samples=500_000)
        assert ws.exact == RECIP.exact

    def test_degenerate_request_fails(self):
        rng = substream(50, 2)
        with pytest.raises(WeightSearchError):
            search_weight_set(1, 1, 0.2, 1e-4, CandidateFamily.RECIPROCAL_PRIMES, rng,
                              budget=4, n_samples=100_000)

    def test_deterministic(self):
        a = search_weight_set(4, 4, 0.3, 1e-2, CandidateFamily.RECIPROCAL_INTEGERS,
                              substream(51, 3), n_samples=200_000)
        b = search_weight_set(4, 4, 0.3, 1e-2, CandidateFamily.RECIPROCAL_INTEGERS,
                              substream(51, 3), n_samples=200_000)
        assert a.values == b.values
