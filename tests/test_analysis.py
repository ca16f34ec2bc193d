import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from afc import analysis
from afc.analysis import (
    CandidateFamily,
    ConditionCheck,
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
    InvalidConfigurationError,
    Selection,
    WeightAssignment,
    WeightSet,
    build_graph,
    reciprocal_prime_weights,
    reciprocal_weights,
    zero_sum_row_template,
)
from afc.harness import ExperimentConfig
from afc.rng import substream

RECIP = reciprocal_prime_weights()
W = WeightAssignment


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "assignment, d, accepted",
    [
        (W.WITH_REPLACEMENT, 9, True),
        (W.WITHOUT_REPLACEMENT, 3, True),
        (W.WITHOUT_REPLACEMENT, 9, False),
        (W.BALANCED_PERMUTATION, 8, True),
        (W.BALANCED_PERMUTATION, 3, False),
        (W.WITH_REPLACEMENT, 0, False),
    ],
)
def test_entry_points_agree_on_degree(assignment, d, accepted):
    # a certificate must refuse exactly the (set, degree, assignment) the
    # encoder cannot build, and a config must refuse it before any frame
    entry_points = {
        "build_graph": lambda: build_graph(
            50, 10, DegreeDistribution.fixed(d), RECIP,
            EncoderPolicy(Selection.MIN_DEGREE_FIRST, assignment), substream(9, 1),
        ),
        "ExperimentConfig": lambda: ExperimentConfig(degree=d, assignment=assignment.value),
        "check_nonzero_condition": lambda: check_nonzero_condition(RECIP, d, assignment),
        "gaussian_fit_check": lambda: gaussian_fit_check(
            RECIP, d, 0.2, 1e-4, 1000, substream(9, 2), assignment
        ),
    }
    verdicts = {name: _accepts(call) for name, call in entry_points.items()}
    assert verdicts == dict.fromkeys(entry_points, accepted)


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
        pol = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.WITHOUT_REPLACEMENT)
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
        pol = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.WITHOUT_REPLACEMENT)
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

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -0.5])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            pairwise_error_prob(self.graph(), np.ones(10), [1], sigma)


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

    def test_largest_set_under_the_cap(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
        assert check_nonzero_condition(reciprocal_weights(primes), 13) == ConditionCheck(True, None)
        planted = [Fraction(1, p) for p in primes[:12]] + [Fraction(5, 6)]
        # _product_scan's witness, pinned: the scan passes about 88k vectors before it
        witness = ((-1, Fraction(1, 2)), (-1, Fraction(1, 3)), (1, Fraction(5, 6)))
        assert check_nonzero_condition(planted) == ConditionCheck(False, witness)

    def test_empty_template_refused(self):
        with pytest.raises(ValueError, match="at least one weight"):
            check_nonzero_condition([])


def _choice_symbol_sums(ws, d, count, assignment, rng):
    """Symbol sums with the with-replacement members drawn by ``rng.choice``."""
    if assignment is not WeightAssignment.WITH_REPLACEMENT:
        raise NotImplementedError
    rows = rng.choice(ws.as_array(), size=count * d, p=ws.probs).reshape(count, d)
    signs = rng.integers(0, 2, size=(count, d)).astype(np.float64) * 2.0 - 1.0
    return (rows * signs).sum(axis=1)


def _whole_array_symbol_sums(ws, d, count, rng):
    """The with-replacement sampler as one whole-array draw: every member of
    the chunk by one cdf pass, then every sign bit by one call."""
    cdf = np.cumsum(np.asarray(ws.probs, dtype=np.float64))
    cdf /= cdf[-1]
    u = rng.random(count * d)
    members = np.zeros(count * d, dtype=np.min_scalar_type(len(cdf) - 1))
    for c in cdf[:-1].tolist():
        members += u >= c
    picks = rng.integers(0, 2, size=count * d)
    picks *= ws.f
    picks += members
    signed = np.concatenate((-ws.as_array(), ws.as_array()))
    return signed.take(picks).reshape(count, d).sum(axis=1)


def _product_scan(values, max_nonzero):
    """The zero-sum check as one Fraction sum per vector of the 3^n scan."""
    values = analysis._to_exact(values)
    for coeffs in product((-1, 0, 1), repeat=len(values)):
        nnz = sum(1 for c in coeffs if c)
        if nnz == 0 or nnz > max_nonzero:
            continue
        if sum(c * v for c, v in zip(coeffs, values)) == 0:
            return ConditionCheck(False, tuple((c, v) for c, v in zip(coeffs, values) if c))
    return ConditionCheck(True, None)


_MEMBERS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.integers(-6, 6),
    st.integers(-6, 6).map(float),
)


class TestEnumerationMatchesScan:
    """The blocked integer enumeration returns the scan's verdict and witness."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_random_sets(self, data):
        pool = data.draw(st.lists(_MEMBERS, min_size=1, max_size=9))
        n = data.draw(st.integers(1, 9))
        values = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))  # repeats likely
        max_nonzero = data.draw(st.integers(1, n))
        expected = _product_scan(values, max_nonzero)
        assert analysis._enumerate_coefficients(values, max_nonzero) == expected
        # small blocks and a short suffix table: the first hit must survive block edges
        with mock.patch.object(analysis, "_ENUM_SUFFIX", 2), mock.patch.object(analysis, "_ENUM_BLOCK", 1):
            assert analysis._enumerate_coefficients(values, max_nonzero) == expected

    @pytest.mark.parametrize("planted", [False, True])
    def test_sums_past_int64(self, planted):
        primes = [65521, 65519, 65497, 65479, 65449]
        values = [Fraction(1, p) for p in primes]
        if planted:
            values[4] = values[0] + values[1] - values[2]
        assert math.lcm(*(v.denominator for v in values)) > 2**63
        res = analysis._enumerate_coefficients(values, 5)
        assert res == _product_scan(values, 5)
        assert res.ok is not planted


def _half_sums(weights, zero):
    """Multiplicity of every signed sum of ``weights``, one weight at a time."""
    sums = {zero: 1}
    for w in weights:
        nxt = {}
        for s, c in sums.items():
            for t in (s + w, s - w):
                nxt[t] = nxt.get(t, 0) + c
        sums = nxt
    return sums


def _dict_signed_sum_table(weights):
    """The sign-vector sum table as a meet-in-the-middle convolution of Fraction dicts."""
    zero = weights[0] * 0
    half = len(weights) // 2
    left = _half_sums(list(weights[:half]), zero)
    right = _half_sums(list(weights[half:]), zero)
    table = {}
    for a, ca in left.items():
        for bb, cb in right.items():
            table[a + bb] = table.get(a + bb, 0) + ca * cb
    return table


def _dict_collision_prob(table, l, ws):
    """extension_collision_prob read off a sign-vector sum table."""
    tot = 2**l
    p_zero = Fraction(table.get(Fraction(0), 0), tot)
    if p_zero == 1:
        return "degenerate"
    acc = Fraction(0)
    for q, a in zip(analysis._exact_probs(ws), analysis._to_exact(ws.exact or ws.values)):
        acc += q * Fraction(table.get(a, 0) + table.get(-a, 0), tot) / (1 - p_zero)
    return acc / 2


def _assert_matches_dict_reference(weights, targets, sets):
    """Every sign-vector routine equals its reading of the Fraction-dict table."""
    table = _dict_signed_sum_table(analysis._to_exact(weights))
    got = signed_sum_table(weights)
    assert got == table and all(type(k) is Fraction for k in got)
    unique = sum(1 for c in table.values() if c == 1)
    assert unique_solution_fraction(weights) == Fraction(unique, 2 ** len(weights))
    for u in targets:
        (target,) = analysis._to_exact([u])
        assert unique_solution_oracle(weights, u) == table.get(target, 0)
    for ws in sets:
        try:
            prob = extension_collision_prob(weights, ws)
        except DegenerateEquationError:
            prob = "degenerate"
        assert prob == _dict_collision_prob(table, len(weights), ws)


_SET_MEMBERS = st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=12)


class TestSignVectorEnumeration:
    """The scaled-integer enumeration gives the Fraction-dict convolution's
    tables, counts and probabilities."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_random_rationals(self, data):
        pool = data.draw(st.lists(_MEMBERS, min_size=1, max_size=6))  # zeros and negatives included
        l = data.draw(st.integers(2, 10))
        weights = data.draw(st.lists(st.sampled_from(pool), min_size=l, max_size=l))  # repeats likely
        exact = analysis._to_exact(weights)
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=l, max_size=l))
        targets = [
            sum(b * w for b, w in zip(signs, exact)),  # attainable
            sum(abs(w) for w in exact) + 1,  # beyond every sum
            Fraction(1, 13),  # off the grid of denominators up to 12
            data.draw(_MEMBERS),
        ]
        # members that equal running-sum magnitudes make collisions likely
        magnitudes = sorted({abs(t) for t in [targets[0], *exact] if t != 0})
        member = st.sampled_from(magnitudes) | _SET_MEMBERS if magnitudes else _SET_MEMBERS
        members = data.draw(st.lists(member, min_size=1, max_size=4, unique=True))
        shares = data.draw(st.lists(st.integers(1, 9), min_size=len(members), max_size=len(members)))
        probs = tuple(c / sum(shares) for c in shares)
        sets = [
            WeightSet.uniform_exact(members),
            WeightSet(tuple(float(m) for m in members), probs, tuple(members)),
        ]
        _assert_matches_dict_reference(weights, targets, sets)

    def test_reciprocal_primes_past_int64(self):
        weights = [Fraction(1, p) for p in analysis._primes(16)]
        assert analysis._scaled(weights)[2] is object
        total = sum(weights)
        targets = [total, weights[0] - total, Fraction(1, 59 * 61), 0]
        sets = [
            WeightSet.uniform_exact([total, weights[1], Fraction(1, 7)]),
            WeightSet((float(total), 0.5, 0.25), (0.5, 0.25, 0.25), (total, weights[0], Fraction(1, 4))),
        ]
        _assert_matches_dict_reference(weights, targets, sets)
        assert unique_solution_oracle(weights, total) == 1

    @pytest.mark.parametrize(
        "weights, dtype",
        [([2**62, 2**62 - 2, 1], np.int64), ([2**62, 2**62 - 1, 1], object)],  # largest sum 2^63 - 1, 2^63
    )
    def test_int64_edge(self, weights, dtype):
        assert analysis._scaled(weights)[2] is dtype
        _assert_matches_dict_reference(weights, [sum(weights), 2**62 + 2], [WeightSet.uniform_exact([2**62 - 1])])

    def test_sums_past_int64_with_collisions(self):
        weights = [Fraction(1, p) for p in analysis._primes(16)] + [Fraction(5, 6)]  # 5/6 = 1/2 + 1/3
        assert analysis._scaled(weights)[2] is object
        ws = WeightSet.uniform_exact([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        _assert_matches_dict_reference(weights, [Fraction(5, 6), 0], [ws])
        assert unique_solution_fraction(weights) < 1

    @pytest.mark.parametrize(
        "routine",
        [
            signed_sum_table,
            unique_solution_fraction,
            lambda w: unique_solution_oracle(w, 0),
            lambda w: extension_collision_prob(w, WeightSet.uniform_exact([Fraction(1)])),
            lambda w: ambiguity_recursion(w + [1], len(w) + 1),  # the last step enumerates l weights
        ],
        ids=["table", "fraction", "oracle", "collision", "recursion"],
    )
    def test_cap_edge(self, routine):
        # integer weights keep the 2^20 sums in int64
        routine(list(range(1, 21)))
        with pytest.raises(EnumerationCapError):
            routine(list(range(1, 22)))

    @pytest.mark.parametrize("routine", [signed_sum_table, unique_solution_fraction, lambda w: unique_solution_oracle(w, 0)])
    def test_empty_refused(self, routine):
        with pytest.raises(ValueError, match="at least one weight"):
            routine([])


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
    def test_refused_past_cap_before_enumerating(self, monkeypatch):
        # the last step would enumerate 2^21 sign vectors; no prefix is enumerated first
        enumerate_ = mock.Mock(side_effect=AssertionError("enumerated a prefix"))
        monkeypatch.setattr(analysis, "_signed_sums", enumerate_)
        with pytest.raises(EnumerationCapError):
            ambiguity_recursion(list(range(1, 23)), 22)
        enumerate_.assert_not_called()

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
        # balanced placement differs from drawing all f members without
        # replacement only across variables: each row still holds the whole
        # set, so the symbol law is the same
        reports = [
            gaussian_fit_check(RECIP, 8, 0.2, 1e-4, 200_000, np.random.default_rng(5), a)
            for a in (WeightAssignment.BALANCED_PERMUTATION, WeightAssignment.WITHOUT_REPLACEMENT)
        ]
        assert reports[0] == reports[1]
        assert not reports[0].satisfied

    @pytest.mark.parametrize(
        "ws, d, assignment",
        [
            (RECIP, 7, WeightAssignment.BALANCED_PERMUTATION),
            (RECIP, 9, WeightAssignment.WITHOUT_REPLACEMENT),
            (WeightSet((1.0, 2.0, 3.0), (0.5, 0.25, 0.25)), 2, WeightAssignment.WITHOUT_REPLACEMENT),
        ],
    )
    def test_unsupported_draws_rejected(self, ws, d, assignment):
        with pytest.raises(ValueError):
            gaussian_fit_check(ws, d, 0.2, 1e-4, 1000, np.random.default_rng(0), assignment)

    @pytest.mark.parametrize("d", [0, -1])
    def test_degree_below_one_rejected(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigurationError, match="degree must be >= 1"):
                gaussian_fit_check(RECIP, d, 0.2, 1e-4, 1000, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "ws, d, n_samples",
        [
            (RECIP, 1, 200_000),
            (RECIP, 5, 200_000),
            (RECIP, 8, 1_000_001),  # past the 1M-sample chunk edge
            # count * d crosses the 2^16-draw block edges, and d does not divide a block
            (RECIP, 3, 200_001),
            (RECIP, 7, 70_001),
            (WeightSet((1.0, 0.5, 0.25, 0.125), (0.4, 0.3, 0.2, 0.1)), 5, 200_000),
        ],
    )
    def test_reports_equal_choice_sampler(self, ws, d, n_samples):
        # the with-replacement draw, as rng.choice made it, gives the same report and end state
        rng, ref_rng = substream(777, 4, d), substream(777, 4, d)
        report = gaussian_fit_check(ws, d, 0.2, 1e-4, n_samples, rng)
        with mock.patch.object(analysis, "_sample_symbol_sums", _choice_symbol_sums):
            expected = gaussian_fit_check(ws, d, 0.2, 1e-4, n_samples, ref_rng)
        assert report == expected
        assert rng.random() == ref_rng.random()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_streamed_sums_equal_whole_array_draw(self, data):
        # the sampler draws members and signs in 2^16-draw blocks; the sums
        # and the generator's end state must be those of one whole-array draw
        f = data.draw(st.integers(1, 8))
        if data.draw(st.booleans()):
            probs = (1.0 / f,) * f
        else:
            mass = data.draw(st.lists(st.integers(0, 9), min_size=f, max_size=f).filter(any))
            probs = tuple(m / sum(mass) for m in mass)
        ws = WeightSet(tuple(RECIP.values[:f]), probs)
        d = data.draw(st.integers(1, 12))
        rows = 2**16 // d  # rows per sign block
        count = data.draw(
            st.one_of(st.integers(1, 3 * rows + d), st.sampled_from([rows - 1, rows, rows + 1, 2 * rows + 1, 3 * rows]))
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        sums = analysis._sample_symbol_sums(ws, d, count, WeightAssignment.WITH_REPLACEMENT, rng)
        assert np.array_equal(sums, _whole_array_symbol_sums(ws, d, count, ref))
        assert np.array_equal(rng.integers(0, 2, 3), ref.integers(0, 2, 3))
        assert rng.random() == ref.random()

    def test_certification_memory_stays_small(self):
        # the streamed draw holds one byte per member plus a few blocks;
        # whole-array draws of a 500k-sample chunk took about 69 MB
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            gaussian_fit_check(RECIP, 8, 0.2, 1e-4, 500_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize(
        "delta, eps, q_floor, message",
        [
            (float("nan"), 1e-4, 1e-6, "finite and positive"),
            (float("inf"), 1e-4, 1e-6, "finite and positive"),
            (0.0, 1e-4, 1e-6, "finite and positive"),
            (-0.2, 1e-4, 1e-6, "finite and positive"),
            (0.2, float("nan"), 1e-6, "finite and positive"),
            (0.2, 0.0, 1e-6, "finite and positive"),
            (0.2, 1e-4, 0.0, r"q_floor must lie in \(0, 0.5\)"),
            (0.2, 1e-4, 0.5, r"q_floor must lie in \(0, 0.5\)"),
            (0.2, 1e-4, 0.9, r"q_floor must lie in \(0, 0.5\)"),
            (0.2, 1e-4, float("nan"), r"q_floor must lie in \(0, 0.5\)"),
            (1e-4, 1e-4, 1e-6, "more than 10000 bins"),
        ],
    )
    def test_refused_parameters(self, delta, eps, q_floor, message):
        with pytest.raises(ValueError, match=message):
            gaussian_fit_check(RECIP, 8, delta, eps, 1000, np.random.default_rng(0), q_floor=q_floor)

    def test_no_bins_is_not_satisfied(self):
        # the first bin's mass, about delta / sqrt(2 pi), is already under q_floor
        report = gaussian_fit_check(RECIP, 8, 1e-9, 1e-4, 1000, np.random.default_rng(0))
        assert report.bins == () and not report.satisfied

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

    @pytest.mark.parametrize(
        "f, d, delta, message",
        [
            (4, 4, float("nan"), "finite and positive"),
            (4, 5, 0.2, "degree 5 exceeds weight set size 4"),
            (4, 0, 0.2, "degree must be >= 1"),
        ],
    )
    def test_refused_before_any_proposal(self, f, d, delta, message):
        rng = substream(52, 1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            search_weight_set(f, d, delta, 1e-4, CandidateFamily.RANDOM_RATIONAL, rng, n_samples=1000)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_refused_before_any_proposal(self, budget):
        rng = substream(52, 1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"budget must be >= 1 proposal, got {budget}"):
            search_weight_set(4, 4, 0.2, 1e-4, CandidateFamily.RANDOM_RATIONAL, rng, budget=budget, n_samples=1000)
        assert rng.bit_generator.state == state
