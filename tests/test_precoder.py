import hashlib
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from afc import precoder
from afc.precoder import (
    LdpcCode,
    LdpcConstructionError,
    _from_check_rows,
    _get_bit,
    _greedy_rows,
    _pack_rows,
    ldpc_decode,
    ldpc_encode,
    ldpc_generate,
    load_code,
    save_code,
    syndrome,
    syndrome_ok,
    tanh_rule_messages,
)
from afc.rng import GRAPH, substream


@pytest.fixture(scope="module")
def code():
    return ldpc_generate(1000, 0.95, 3, substream(40, 1))


@pytest.fixture(scope="module", params=[200, 1000, 10000])
def sized_code(request, code):
    if request.param == 1000:
        return code
    return ldpc_generate(request.param, 0.95, 3, substream(40, request.param))


def _spa_reference(code: LdpcCode, llr: np.ndarray, max_iters: int) -> tuple[np.ndarray, bool, int]:
    """The earlier stand-alone sum-product loop, kept as reference for
    ``ldpc_decode``: returns (full belief, converged, iterations)."""
    lam = np.clip(np.asarray(llr, dtype=np.float64), -1e3, 1e3)
    belief = lam.copy()
    hard = (belief < 0).astype(np.uint8)
    if syndrome_ok(code, hard) and np.all(belief != 0):
        return belief, True, 0
    c_msg = np.zeros(len(code.edge_var))
    for it in range(1, max_iters + 1):
        v = belief[code.edge_var] - c_msg
        c_msg = tanh_rule_messages(code, v)
        belief = lam + np.bincount(code.edge_var, weights=c_msg, minlength=code.n)
        hard = (belief < 0).astype(np.uint8)
        if syndrome_ok(code, hard) and np.all(belief != 0):
            return belief, True, it
    return belief, False, max_iters


def _assert_decode_matches_reference(code: LdpcCode, llr: np.ndarray, max_iters: int = 50) -> None:
    belief, converged, _ = _spa_reference(code, llr, max_iters)
    bits, got = ldpc_decode(code, llr, max_iters)
    assert got == converged
    assert np.array_equal(bits, (belief[: code.k_msg] < 0).astype(np.uint8))


def _per_bit_reference(n: int, check_rows: list):
    """The earlier derivation, kept as reference: a packed right-preferring
    elimination unpacked into rows, then the encoder filled one bit at a time.

    Returns (k_msg, permuted check rows, encoder), or None when rank deficient.
    """
    m = len(check_rows)
    packed = _pack_rows(n, check_rows)
    pivot_of_row: dict[int, int] = {}
    free_rows = np.ones(m, dtype=bool)
    for col in range(n - 1, -1, -1):
        bits = _get_bit(packed, col).astype(bool)
        cand = np.nonzero(bits & free_rows)[0]
        if cand.size == 0:
            continue
        r = int(cand[0])
        others = np.nonzero(bits)[0]
        others = others[others != r]
        if others.size:
            packed[others] ^= packed[r]
        free_rows[r] = False
        pivot_of_row[r] = col
        if len(pivot_of_row) == m:
            break
    if len(pivot_of_row) < m:
        return None
    unpacked = np.unpackbits(packed, axis=1, count=n)
    rows_by_pivot = sorted(pivot_of_row.items(), key=lambda rc: rc[1])
    pivots = [c for _, c in rows_by_pivot]
    pivot_set = set(pivots)
    msg_cols = [c for c in range(n) if c not in pivot_set]
    new_pos = np.empty(n, dtype=np.int64)
    for p, c in enumerate(msg_cols + pivots):
        new_pos[c] = p
    enc = np.zeros((m, n - m), dtype=np.uint8)
    for j, (r, pivot) in enumerate(rows_by_pivot):
        for c in np.nonzero(unpacked[r])[0]:
            if c != pivot:
                enc[j, new_pos[c]] = 1
    permuted = [np.sort(new_pos[np.asarray(r)]) for r in check_rows]
    return n - m, permuted, enc


def _greedy_rows_reference(n: int, m: int, dv: int, rng: np.random.Generator, fresh_picks=None) -> list:
    """The earlier construction loop, kept as reference for ``_greedy_rows``:
    the same tries, draws and rows, tested with array operations on every
    variable. Appends (variable, checks) of each fresh pick to ``fresh_picks``."""

    def least_loaded():
        return np.sort(np.argpartition(check_deg + rng.random(m), dv - 1)[:dv])

    check_deg = np.zeros(m, dtype=np.int64)
    used = np.zeros((m, m), dtype=bool)
    iu, ju = np.triu_indices(dv, 1)
    picks = np.empty((n, dv), dtype=np.int64)
    for v in range(n):
        cand = least_loaded()
        fresh = not used[cand[iu], cand[ju]].any()
        if not fresh:
            block = np.sort(rng.integers(0, m, (precoder._TRIES - 1, dv)), axis=1)
            ok = (np.diff(block, axis=1) > 0).all(axis=1) & ~used[block[:, iu], block[:, ju]].any(axis=1)
            hit = np.flatnonzero(ok)
            if hit.size:
                cand, fresh = block[hit[0]], True
            else:
                cand = least_loaded()
        if fresh:
            used[cand[iu], cand[ju]] = True
            if fresh_picks is not None:
                fresh_picks.append((v, cand.tolist()))
        check_deg[cand] += 1
        picks[v] = cand
    flat = picks.ravel()
    var_of_edge = np.argsort(flat, kind="stable") // dv
    return np.split(var_of_edge, np.cumsum(np.bincount(flat, minlength=m))[:-1])


def _assert_same_rows_and_draws(n: int, m: int, dv: int, path: tuple) -> None:
    ours, theirs = substream(*path), substream(*path)
    rows = _greedy_rows(n, m, dv, ours)
    expected = _greedy_rows_reference(n, m, dv, theirs)
    assert len(rows) == len(expected) == m
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(rows, expected))
    assert ours.random() == theirs.random()  # the generator is left in the same state


def _assert_matches_reference(code: LdpcCode, ref) -> None:
    k, check_rows, enc = ref
    assert code.k_msg == k
    assert code.enc_matrix.dtype == enc.dtype and code.enc_matrix.flags.c_contiguous
    assert np.array_equal(code.enc_matrix, enc)
    assert len(code.check_rows) == len(check_rows)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(code.check_rows, check_rows))


class TestGenerate:
    def test_shape_and_rate(self, code):
        assert code.n == 1000
        assert code.k_msg == 950
        assert code.m == 50
        assert abs(code.rate - 0.95) <= 0.005

    def test_variable_regularity(self, code):
        var_deg = np.zeros(code.n, dtype=int)
        for row in code.check_rows:
            var_deg[row] += 1
        assert np.all(var_deg == 3)

    def test_average_check_degree(self, code):
        degs = [len(r) for r in code.check_rows]
        assert sum(degs) / len(degs) == 60.0

    def test_girth_at_least_six_where_permitted(self):
        # needs C(m,2) >= 3n check pairs, so test at the scale that has them
        big = ldpc_generate(10_000, 0.95, 3, substream(40, 9))
        seen = set()
        var_checks = [[] for _ in range(big.n)]
        for c, row in enumerate(big.check_rows):
            for v in row:
                var_checks[int(v)].append(c)
        for checks in var_checks:
            for i in range(len(checks)):
                for j in range(i + 1, len(checks)):
                    pair = (checks[i], checks[j])
                    assert pair not in seen, "two variables share two checks (4-cycle)"
                    seen.add(pair)

    def test_generator_orthogonal_to_checks(self, code):
        rng = substream(40, 2)
        for _ in range(20):
            msg = rng.integers(0, 2, code.k_msg).astype(np.uint8)
            assert syndrome_ok(code, ldpc_encode(code, msg))

    @pytest.mark.parametrize("n,path", [(200, (7, GRAPH, 0xC0DE)), (1000, (40, 1)), (10000, (40, 9))])
    def test_encoder_matches_per_bit_reference(self, n, path):
        rows = _greedy_rows(n, n // 20, 3, substream(*path))
        _assert_matches_reference(_from_check_rows(n, rows), _per_bit_reference(n, rows))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_greedy_rows_regular_sorted_reproducible(self, data):
        """Every variable sits in exactly dv distinct checks, every row is
        strictly increasing within [0, n), and one substream gives one code."""
        n = data.draw(st.integers(1, 300), label="n")
        m = data.draw(st.integers(1, 40), label="m")
        dv = data.draw(st.integers(1, min(4, m)), label="dv")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rows = _greedy_rows(n, m, dv, substream(seed, GRAPH))
        assert len(rows) == m
        var_deg = np.zeros(n, dtype=np.int64)
        for row in rows:
            assert row.dtype == np.int64
            assert np.all(np.diff(row) > 0) and np.all((0 <= row) & (row < n))
            var_deg[row] += 1
        assert np.all(var_deg == dv)  # rows hold a variable at most once, so its dv checks are distinct
        again = _greedy_rows(n, m, dv, substream(seed, GRAPH))
        assert all(np.array_equal(a, b) for a, b in zip(rows, again))

    @pytest.mark.parametrize(
        "n,rate,dv,path,digest,next_draw",
        [
            (200, 0.95, 3, (30, 1), "d27273e87c7249fe", 0.820687047761852),
            (1000, 0.95, 3, (40, 1), "1a45faea4894aea2", 0.4423695196653755),
            (211, 200 / 211, 3, (99, 1, 0xC0DE), "de50dbd1bd0ee716", 0.5545401595790512),
            (400, 0.9, 5, (7, 2), "95c2239e527e4fc2", 0.07877131114137759),
            (10000, 0.95, 3, (40, 9), "18e900f717d6012a", 0.9260763731818932),
        ],
    )
    def test_golden_codes(self, n, rate, dv, path, digest, next_draw):
        """The codes (and the generator state after them) of the earlier
        construction loop, pinned byte for byte."""
        rng = substream(*path)
        code = ldpc_generate(n, rate, dv, rng)
        h = hashlib.sha256(
            code.check_ptr.astype("<i8").tobytes() + code.edge_var.astype("<i8").tobytes() + code.enc_packed.tobytes()
        )
        assert h.hexdigest()[:16] == digest
        assert rng.random() == next_draw

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_greedy_rows_match_reference_loop(self, data):
        """Same rows and same next draw as the earlier loop: small m, where
        the pair budget runs out and the shortcut fires, and sizes where it
        never does."""
        dv = data.draw(st.sampled_from((3, 5, 2, 4, 1)), label="dv")
        m = data.draw(st.one_of(st.integers(dv, 16), st.integers(dv, 60)), label="m")
        n = data.draw(st.integers(1, 400), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        _assert_same_rows_and_draws(n, m, dv, (seed, GRAPH))

    @pytest.mark.parametrize("n,m,dv", [(2000, 100, 3), (600, 120, 5), (3000, 150, 3), (300, 6, 2), (400, 40, 4)])
    def test_greedy_rows_match_reference_loop_at_size(self, n, m, dv):
        _assert_same_rows_and_draws(n, m, dv, (n, m, dv))

    def test_pair_tests_stop_once_no_try_can_be_fresh(self, monkeypatch):
        """At m = 10 the unused check pairs lose their last triangle early;
        from the next variable on, no try is tested any more."""
        n, m, dv = 200, 10, 3
        fresh_picks = []
        expected = _greedy_rows_reference(n, m, dv, substream(30, 1), fresh_picks)
        used = set()
        for last_fresh, cand in fresh_picks:
            used.update(combinations(cand, 2))
            if all(not {(a, b), (a, c), (b, c)}.isdisjoint(used) for a, b, c in combinations(range(m), 3)):
                break  # every triple of checks holds a used pair: the unused pairs have no triangle
        else:
            pytest.fail("the unused pairs kept a triangle")
        assert fresh_picks[-1] == (last_fresh, cand) and last_fresh < n // 4

        calls = []
        monkeypatch.setattr(precoder, "combinations", lambda *a: calls.append(a) or combinations(*a))
        rows = _greedy_rows(n, m, dv, substream(30, 1))
        assert all(np.array_equal(a, b) for a, b in zip(rows, expected))
        # one pair test per variable up to the last fresh pick, one marking pass per fresh pick
        assert len(calls) == last_fresh + 1 + len(fresh_picks)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_encoder_annihilates_checks(self, data):
        """Rank-deficient check sets are rejected; otherwise every basis
        message encodes to a codeword of the permuted checks, and a save/load
        round trip rebuilds the same encoder."""
        n = data.draw(st.integers(2, 24), label="n")
        m = data.draw(st.integers(1, n - 1), label="m")
        h = data.draw(arrays(np.uint8, (m, n), elements=st.integers(0, 1), fill=st.nothing()), label="h")
        rows = [np.flatnonzero(r) for r in h]
        ref = _per_bit_reference(n, rows)
        if ref is None:  # row-rank deficient
            with pytest.raises(LdpcConstructionError):
                _from_check_rows(n, rows)
            return
        code = _from_check_rows(n, rows)
        _assert_matches_reference(code, ref)
        k = code.k_msg
        dense = np.zeros((m, n), dtype=np.int64)
        for i, row in enumerate(code.check_rows):
            dense[i, row] = 1
        assert not ((dense[:, :k] + dense[:, k:] @ code.enc_matrix) % 2).any()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "code.txt"
            save_code(code, path)
            loaded = load_code(path)
        assert loaded.k_msg == k and np.array_equal(loaded.enc_matrix, code.enc_matrix)

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            ldpc_generate(40, 0.99, 3, substream(40, 3))  # m = 0 < var_degree
        with pytest.raises(ValueError):
            ldpc_generate(1000, 0.95, 0, substream(40, 3))  # variables in no check

    @pytest.mark.parametrize(
        "n,rate,var_degree",
        [(1000, 0.95, 4), (1000, 0.95, 2), (200, 0.95, 4), (100, 0.95, 5)],  # even, even, even, m = 5
    )
    def test_rank_deficient_degree_refused_before_any_attempt(self, monkeypatch, n, rate, var_degree):
        def no_attempt(*args):
            raise AssertionError("a construction was attempted")

        monkeypatch.setattr(precoder, "_greedy_rows", no_attempt)
        with pytest.raises(ValueError, match=f"variable degree {var_degree}"):
            ldpc_generate(n, rate, var_degree, substream(40, 4))


class TestEncode:
    def test_zero_maps_to_zero(self, code):
        cw = ldpc_encode(code, np.zeros(code.k_msg, dtype=np.uint8))
        assert not cw.any()

    def test_systematic_prefix(self, code):
        msg = substream(41, 1).integers(0, 2, code.k_msg).astype(np.uint8)
        cw = ldpc_encode(code, msg)
        assert np.array_equal(cw[: code.k_msg], msg)

    def test_injective(self, code):
        rng = substream(41, 2)
        seen = set()
        for _ in range(50):
            msg = rng.integers(0, 2, code.k_msg).astype(np.uint8)
            seen.add(ldpc_encode(code, msg).tobytes())
        assert len(seen) == 50

    def test_length_check(self, code):
        with pytest.raises(ValueError):
            ldpc_encode(code, np.zeros(code.k_msg + 1, dtype=np.uint8))

    @pytest.mark.parametrize("n", [1000, 10000])
    def test_matches_dot_product_reference(self, n):
        rng = substream(43, n)
        k = n - n // 20  # not a multiple of 8, so the packed message carries pad bits
        enc = rng.integers(0, 2, (n - k, k)).astype(np.uint8)
        code = LdpcCode(n, k, [np.array([j]) for j in range(k, n)], enc)
        for _ in range(5):
            msg = rng.integers(0, 2, k)
            parity = (enc.astype(np.int64) @ msg) % 2
            cw = ldpc_encode(code, msg)
            assert cw.dtype == np.uint8
            assert np.array_equal(cw, np.concatenate([msg, parity]))

    def test_non_binary_message_rejected(self, code):
        msg = np.zeros(code.k_msg, dtype=np.int64)
        msg[3] = 2
        with pytest.raises(ValueError):
            ldpc_encode(code, msg)


class TestDecode:
    def test_saturated_codeword_recovered(self, code):
        msg = substream(42, 1).integers(0, 2, code.k_msg).astype(np.uint8)
        cw = ldpc_encode(code, msg)
        llr = (1.0 - 2.0 * cw) * 40.0
        bits, converged = ldpc_decode(code, llr)
        assert converged
        assert np.array_equal(bits, msg)

    def test_single_flip_corrected(self, code):
        msg = substream(42, 2).integers(0, 2, code.k_msg).astype(np.uint8)
        cw = ldpc_encode(code, msg)
        llr = (1.0 - 2.0 * cw) * 12.0
        llr[17] = -llr[17]  # one confident but wrong position
        bits, converged = ldpc_decode(code, llr)
        assert converged
        assert np.array_equal(bits, msg)

    def test_all_zero_llr_does_not_converge(self, code):
        bits, converged = ldpc_decode(code, np.zeros(code.n), max_iters=10)
        assert not converged

    def test_roundtrip_batch(self, code):
        rng = substream(42, 3)
        for _ in range(1000):
            msg = rng.integers(0, 2, code.k_msg).astype(np.uint8)
            llr = (1.0 - 2.0 * ldpc_encode(code, msg)) * 30.0
            bits, converged = ldpc_decode(code, llr)
            assert converged and np.array_equal(bits, msg)

    @pytest.mark.parametrize("shape", [(999,), (1001,), (1250,), (), (1000, 1)])
    def test_syndrome_refuses_bits_of_another_shape(self, code, shape):
        with pytest.raises(ValueError, match=r"expected \(1000,\)"):
            syndrome(code, np.zeros(shape, dtype=np.uint8))

    def test_converged_implies_zero_syndrome(self, code):
        rng = substream(42, 4)
        for _ in range(50):
            llr = rng.normal(0.0, 2.0, code.n)
            belief, _, _ = _spa_reference(code, llr, 30)
            bits, converged = ldpc_decode(code, llr, max_iters=30)
            if converged:
                full = (belief < 0).astype(np.uint8)
                assert syndrome_ok(code, full)
                assert np.array_equal(bits, full[: code.k_msg])

    @pytest.mark.parametrize(
        "kind", ["saturated", "noisy", "random-normal", "all-zero", "single-zero-saturated", "single-zero-noisy"]
    )
    def test_matches_spa_reference(self, sized_code, kind):
        rng = substream(42, 5, sized_code.n)
        for sigma in (0.3, 0.36, 0.42, 0.48):  # from iteration 0 to no convergence
            msg = rng.integers(0, 2, sized_code.k_msg).astype(np.uint8)
            x = 1.0 - 2.0 * ldpc_encode(sized_code, msg)
            noisy = 2.0 * (x + rng.normal(0.0, sigma, sized_code.n)) / sigma**2
            llr = {
                "saturated": 40.0 * x,
                "noisy": noisy,
                "random-normal": rng.normal(0.0, 4.0 * sigma, sized_code.n),
                "all-zero": np.zeros(sized_code.n),
                "single-zero-saturated": 40.0 * x,
                "single-zero-noisy": noisy,
            }[kind]
            if kind.startswith("single-zero"):
                llr[rng.integers(sized_code.n)] = 0.0
            _assert_decode_matches_reference(sized_code, llr)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_spa_reference_on_small_codes(self, data):
        n = data.draw(st.integers(2, 24), label="n")
        m = data.draw(st.integers(1, n - 1), label="m")
        h = data.draw(arrays(np.uint8, (m, n), elements=st.integers(0, 1), fill=st.nothing()), label="h")
        try:
            small = _from_check_rows(n, [np.flatnonzero(r) for r in h])
        except (LdpcConstructionError, ValueError):  # rank deficient, or an empty check
            return
        values = st.floats(-1e4, 1e4, allow_nan=False) | st.sampled_from([0.0, 1e-300, -1e-300])
        llr = data.draw(arrays(np.float64, n, elements=values), label="llr")
        _assert_decode_matches_reference(small, llr, data.draw(st.integers(1, 20), label="max_iters"))

    @pytest.mark.parametrize(
        "bad",
        [
            lambda n: np.full(n + 20, 5.0),
            lambda n: np.full(n - 50, 5.0),
            lambda n: np.where(np.arange(n) == 7, np.nan, 5.0),
            lambda n: np.where(np.arange(n) == 7, np.inf, 5.0),
            lambda n: np.where(np.arange(n) == 7, -np.inf, 5.0),
        ],
        ids=["long", "short", "nan", "inf", "-inf"],
    )
    def test_malformed_llr_rejected(self, code, bad):
        with pytest.raises(ValueError):
            ldpc_decode(code, bad(code.n))


def _textbook_tanh_rule(code: LdpcCode, v: np.ndarray) -> np.ndarray:
    """2 atanh(prod_{k != j} tanh(v_k / 2)) for every edge j, one check at a time."""
    out = np.empty(len(v))
    for c in range(code.m):
        edges = range(code.check_ptr[c], code.check_ptr[c + 1])
        for j in edges:
            prod = np.prod([np.tanh(v[k] / 2.0) for k in edges if k != j])
            out[j] = 2.0 * np.arctanh(prod)
    return out


class TestTanhRule:
    """``tanh_rule_messages`` against the textbook rule, not against itself."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_textbook_rule(self, data):
        n = data.draw(st.integers(4, 30), label="n")
        m = data.draw(st.integers(1, n // 2), label="m")
        rows = [
            np.sort(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 8), unique=True)))
            for _ in range(m)
        ]
        small = LdpcCode(n, n - m, rows, np.zeros((m, n - m), dtype=np.uint8))
        # magnitudes where neither side clips: every leave-one-out sum of
        # -log tanh(|v|/2) stays inside [1e-12, 30]
        mag = st.floats(0.05, 8.0)
        v = np.array([data.draw(mag) * data.draw(st.sampled_from([-1.0, 1.0])) for _ in small.edge_var])
        if data.draw(st.booleans(), label="erasures"):
            v[data.draw(st.lists(st.integers(0, len(v) - 1), min_size=1, max_size=3))] = 0.0
        want = _textbook_tanh_rule(small, v)
        got = tanh_rule_messages(small, v)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        assert np.all(got[want == 0.0] == 0.0)


class TestSerialization:
    def test_roundtrip(self, code, tmp_path):
        path = tmp_path / "code.txt"
        save_code(code, path)
        loaded = load_code(path)
        assert loaded.n == code.n and loaded.k_msg == code.k_msg
        assert all(np.array_equal(a, b) for a, b in zip(loaded.check_rows, code.check_rows))
        assert np.array_equal(loaded.enc_matrix, code.enc_matrix)
        msg = substream(43, 1).integers(0, 2, code.k_msg).astype(np.uint8)
        assert np.array_equal(ldpc_encode(loaded, msg), ldpc_encode(code, msg))

    def test_resave_identical(self, code, tmp_path):
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_code(code, p1)
        save_code(load_code(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda lines, n: [lines[0], "-1 " + lines[1], *lines[2:]],
            lambda lines, n: [lines[0], f"{lines[1]} {n}", *lines[2:]],
            lambda lines, n: [lines[0], lines[1].split()[0] + " " + lines[1], *lines[2:]],
            lambda lines, n: [lines[0], "", *lines[2:]],
            lambda lines, n: lines[:-1],
            lambda lines, n: lines + lines[-1:],
            lambda lines, n: [lines[0] + " 3", *lines[1:]],
            lambda lines, n: ["3 3", "0", "1", "2"],
            lambda lines, n: [],
        ],
        ids=["negative-index", "index-n", "duplicate-index", "empty-row", "truncated", "extra-row",
             "header-fields", "no-message-bits", "empty-file"],
    )
    def test_malformed_file_rejected(self, code, tmp_path, mutate):
        path = tmp_path / "code.txt"
        save_code(code, path)
        lines = path.read_text().splitlines()
        path.write_text("".join(line + "\n" for line in mutate(lines, code.n)))
        with pytest.raises(ValueError):
            load_code(path)

    def test_format(self, code, tmp_path):
        path = tmp_path / "code.txt"
        save_code(code, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"{code.n} {code.m}"
        assert len(lines) == code.m + 1
        row0 = [int(x) for x in lines[1].split()]
        assert row0 == sorted(row0)
