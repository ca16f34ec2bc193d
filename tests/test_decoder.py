import math
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afc.decoder as decoder_module
from afc.channel import snr_to_sigma
from afc.core import (
    DegreeDistribution,
    EncoderPolicy,
    FactorGraph,
    Selection,
    WeightAssignment,
    bits_to_bpsk,
    build_graph,
    encode,
    power_scale,
    reciprocal_prime_weights,
    zero_sum_row_template,
)
from afc.decoder import (
    _BLOCK_CFGS,
    _BOUND_SHIFT_MAX,
    MAX_ENUM_DEGREE,
    DecoderConfig,
    LlrVector,
    UnsupportedDegreeError,
    _THREADS,
    _OuterChecks,
    _bp,
    _row_groups,
    _same_bits,
    _update,
    _use_threads,
    bp_decode,
    bp_decode_joint,
    check_to_var_messages,
    ml_decode_bruteforce,
    _RowGroup,
    _sign_matrix,
)
from afc.precoder import LdpcCode, ldpc_decode, ldpc_encode, ldpc_generate, syndrome_ok
from afc.rng import substream

RECIP = reciprocal_prime_weights()
D8 = DegreeDistribution.fixed(8)
PERM = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.WITHOUT_REPLACEMENT)
BAL = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.BALANCED_PERMUTATION)


def chain_graph(k, weights=(0.5, 1 / 3)):
    """Cycle-free chain: row i ties variables i and i+1."""
    rows = k - 1
    indptr = np.arange(0, 2 * rows + 1, 2, dtype=np.int64)
    indices = np.empty(2 * rows, dtype=np.int64)
    w = np.empty(2 * rows)
    for i in range(rows):
        indices[2 * i] = i
        indices[2 * i + 1] = i + 1
        w[2 * i] = weights[0]
        w[2 * i + 1] = weights[1]
    return FactorGraph(k=k, indptr=indptr, indices=indices, weights=w)


def exact_posterior_llr(graph, u, sigma2):
    """Enumeration oracle: marginal LLRs from the full joint."""
    k = graph.k
    g = graph.dense()
    cand = np.arange(1 << k, dtype=np.int64)
    bits = (cand[:, None] >> (k - 1 - np.arange(k))) & 1
    b = 1.0 - 2.0 * bits
    resid = u[None, :] - b @ g.T
    logw = -np.einsum("ij,ij->i", resid, resid) / (2.0 * sigma2)
    return np.array([_logsumexp(logw[b[:, j] > 0]) - _logsumexp(logw[b[:, j] < 0]) for j in range(k)])


def _logsumexp(x: np.ndarray) -> float:
    top = float(x.max())
    return top + math.log(float(np.exp(x - top).sum()))


@st.composite
def tree_frames(draw):
    """An acyclic factor graph (k <= 10, rows of degree 1-3), a noisy
    observation of a random word, and sigma2 in [0.02, 1].

    Each row keeps one variable per connected component it touches, so no
    row closes a cycle.
    """
    k = draw(st.integers(1, 10), label="k")
    parent = list(range(k))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    indptr, indices, weights = [0], [], []
    for _ in range(draw(st.integers(1, 12), label="rows")):
        touched = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=min(3, k), unique=True))
        row = list({root(v): v for v in reversed(touched)}.values())
        for v in row:
            parent[root(v)] = root(row[0])
        indices += row
        weights += [draw(st.sampled_from(RECIP.values)) * draw(st.sampled_from([-1.0, 1.0])) for _ in row]
        indptr.append(len(indices))
    g = FactorGraph(
        k=k,
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        weights=np.array(weights),
    )
    sigma2 = draw(st.floats(0.02, 1.0), label="sigma2")
    b = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(k)])
    noise = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(g.m)])
    return g, encode(g, b) + math.sqrt(sigma2) * noise, sigma2


class TestCheckToVar:
    def test_degree_one_closed_form(self):
        out = check_to_var_messages(np.array([0.5]), 0.4, 0.1, np.array([0.0]))
        assert abs(out[0] - 2 * 0.5 * 0.4 / 0.1) < 1e-12

    def test_degree_two_noiseless_decision(self):
        out = check_to_var_messages(np.array([0.5, 1 / 3]), 5 / 6, 1e-12, np.zeros(2))
        assert np.all(np.sign(out) == 1.0)

    def test_zero_sum_row_is_uninformative(self):
        tmpl = np.array(zero_sum_row_template())
        out = check_to_var_messages(tmpl, 0.0, 1e-9, np.zeros(8))
        assert np.all(out == 0.0)

    def test_degree_cap(self):
        with pytest.raises(UnsupportedDegreeError):
            check_to_var_messages(np.ones(21), 0.0, 1.0, np.zeros(21))

    def test_message_count_mismatch(self):
        with pytest.raises(ValueError):
            check_to_var_messages(np.ones(3), 0.0, 1.0, np.zeros(2))

    def test_matches_exact_two_variable_posterior(self):
        w = np.array([0.5, 1 / 3])
        u = 0.31
        sigma2 = 0.25
        g = FactorGraph(
            k=2,
            indptr=np.array([0, 2], dtype=np.int64),
            indices=np.array([0, 1], dtype=np.int64),
            weights=w,
        )
        ref = exact_posterior_llr(g, np.array([u]), sigma2)
        out = check_to_var_messages(w, u, sigma2, np.zeros(2), clip=300.0)
        assert np.allclose(out, ref, atol=1e-10)


class TestBpDecode:
    def test_noiseless_recovery(self):
        for seed in range(10):
            g = build_graph(16, 32, D8, RECIP, PERM, substream(seed, 1))
            b = bits_to_bpsk(substream(seed, 2).integers(0, 2, 16))
            res = bp_decode(g, encode(g, b), 1e-12)
            assert np.array_equal(res.hard, b)

    def test_zero_observations_fixed_point(self):
        tmpl = np.array(zero_sum_row_template())
        g = FactorGraph(
            k=8,
            indptr=np.array([0, 8, 16], dtype=np.int64),
            indices=np.concatenate([np.arange(8), np.arange(8)]).astype(np.int64),
            weights=np.concatenate([tmpl, tmpl]),
        )
        res = bp_decode(g, np.zeros(2), 1e-6)
        assert np.all(res.llr == 0.0)
        assert np.all(res.hard == 1.0)  # ties decide +1

    def test_matches_ml_mostly(self):
        s2 = snr_to_sigma(15.0)
        scale = power_scale(D8, RECIP)
        match = 0
        trials = 50
        for seed in range(trials):
            g = build_graph(12, 24, D8, RECIP, PERM, substream(seed, 3))
            b = bits_to_bpsk(substream(seed, 4).integers(0, 2, 12))
            u = encode(g, b) * scale + substream(seed, 5).normal(0, math.sqrt(s2), 24)
            ml = ml_decode_bruteforce(g, u / scale)
            res = bp_decode(g, u / scale, s2 / scale**2)
            match += int(np.array_equal(res.hard, ml))
        assert match >= int(0.95 * trials)

    def test_rejects_bad_inputs(self):
        g = chain_graph(4)
        with pytest.raises(ValueError):
            bp_decode(g, np.zeros(2), 1.0)  # wrong length
        with pytest.raises(ValueError):
            bp_decode(g, np.array([np.nan, 0, 0]), 1.0)
        with pytest.raises(ValueError):
            bp_decode(g, np.zeros(3), 0.0)

    def test_message_symmetry_single_row(self):
        w = np.array(RECIP.values)
        lam = substream(9, 4).normal(size=8)
        out_pos = check_to_var_messages(w, 0.37, 0.1, lam)
        out_neg = check_to_var_messages(w, -0.37, 0.1, -lam)
        assert np.allclose(out_pos, -out_neg, rtol=1e-12, atol=1e-13)

    def test_message_symmetry(self):
        # the update rule is antisymmetric; iterate only a few times so
        # summation-order rounding cannot compound through the feedback loop
        g = build_graph(20, 30, D8, RECIP, PERM, substream(9, 1))
        u = substream(9, 2).normal(size=30)
        prior = substream(9, 3).normal(size=20)
        cfg = DecoderConfig(max_iters=3, stop_on_stable_decisions=False)
        a = bp_decode(g, u, 0.1, cfg, prior=prior)
        b = bp_decode(g, -u, 0.1, cfg, prior=-prior)
        assert np.allclose(a.llr, -b.llr, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("prior", [np.zeros(3), np.array([0.0, np.nan, 0.0, 0.0])], ids=["short", "nan"])
    def test_bad_prior_rejected(self, prior):
        with pytest.raises(ValueError):
            bp_decode(chain_graph(4), np.zeros(3), 1.0, prior=prior)

    def test_scale_consistency(self):
        g = build_graph(20, 30, D8, RECIP, PERM, substream(10, 1))
        b = bits_to_bpsk(substream(10, 2).integers(0, 2, 20))
        u = encode(g, b) + substream(10, 3).normal(0, 0.3, 30)
        res1 = bp_decode(g, u, 0.09)
        c = 3.7
        g2 = FactorGraph(k=20, indptr=g.indptr.copy(), indices=g.indices.copy(), weights=g.weights * c)
        res2 = bp_decode(g2, u * c, 0.09 * c * c)
        assert np.allclose(res1.llr, res2.llr, atol=1e-9)

    def test_single_row_pins_neighbors(self):
        # condition-(4) set: one full-set row determines all 8 neighbors
        vals = np.array(RECIP.values)
        g = FactorGraph(
            k=8,
            indptr=np.array([0, 8], dtype=np.int64),
            indices=np.arange(8, dtype=np.int64),
            weights=vals,
        )
        for pattern in range(256):
            b = 1.0 - 2.0 * ((pattern >> np.arange(8)) & 1)
            res = bp_decode(g, encode(g, b), 1e-12, DecoderConfig(max_iters=2))
            assert np.array_equal(res.hard, b)

    def test_tree_equals_enumeration(self):
        k = 10
        g = chain_graph(k)
        rng = substream(11, 1)
        b = bits_to_bpsk(rng.integers(0, 2, k))
        sigma2 = 0.16
        u = encode(g, b) + rng.normal(0, math.sqrt(sigma2), g.m)
        cfg = DecoderConfig(max_iters=2 * k, damping=0.0, llr_clip=300.0,
                            stop_on_stable_decisions=False)
        res = bp_decode(g, u, sigma2, cfg)
        ref = exact_posterior_llr(g, u, sigma2)
        assert np.allclose(res.llr, ref, rtol=1e-8, atol=1e-9)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tree_frames())
    def test_random_tree_equals_exact_marginals(self, frame):
        # Bitwise MAP, not block ML: compare the marginals themselves. A path
        # crosses each row at most once, so m + 1 flooding iterations exceed
        # the diameter and every message is exact.
        g, u, sigma2 = frame
        cfg = DecoderConfig(max_iters=g.m + 1, damping=0.0, llr_clip=300.0, stop_on_stable_decisions=False)
        res = bp_decode(g, u, sigma2, cfg)
        assert np.allclose(res.llr, exact_posterior_llr(g, u, sigma2), rtol=1e-8, atol=1e-8)


    def test_empty_row_changes_nothing(self):
        g = build_graph(200, 120, D8, RECIP, BAL, substream(13, 1))
        b = bits_to_bpsk(substream(13, 2).integers(0, 2, 200))
        u = encode(g, b) + substream(13, 3).normal(0.0, 0.3, g.m)
        at = 50  # an empty row between rows 49 and 50
        padded = FactorGraph(
            k=g.k,
            indptr=np.insert(g.indptr, at + 1, g.indptr[at]),
            indices=np.array(g.indices),
            weights=np.array(g.weights),
        )
        assert encode(padded, b)[at] == 0.0
        ref = bp_decode(g, u, 0.09)
        res = bp_decode(padded, np.insert(u, at, 0.7), 0.09)
        assert res.iterations == ref.iterations
        assert np.array_equal(res.llr, ref.llr)


def _unblocked_update(group, belief, damping, clip):
    """The check update over the whole (rows, 2^d) array at once."""
    v = np.clip(belief[group.idx] - group.c_msg, -clip, clip)
    base = (v * 0.5) @ group.signs_t
    base += group.resid
    if (v.shape[1] / 2 + 2) * clip > _BOUND_SHIFT_MAX:
        base -= base.max(axis=1, keepdims=True)
    np.exp(base, out=base)
    pos = np.maximum(base @ group.plus, 1e-300)
    neg = np.maximum(base @ group.minus, 1e-300)
    out = np.log(pos)
    out -= np.log(neg)
    out -= v
    np.clip(out, -clip, clip, out=out)
    return damping * group.c_msg + (1.0 - damping) * out if damping > 0.0 else out


class TestBlockedUpdate:
    """Row groups whose row count is not a multiple of the block rows."""

    CLIP = 30.0
    SIGMA2 = 0.1

    def group(self, d, n_rows):
        rng = np.random.default_rng(d)
        w = rng.uniform(0.05, 0.5, (n_rows, d))
        u = rng.normal(0.0, 1.0, n_rows)
        g = _RowGroup(rng.integers(0, 64, (n_rows, d)), w, u, self.SIGMA2)
        g.c_msg = rng.normal(0.0, 4.0, (n_rows, d))
        return g, w, u, rng.normal(0.0, 8.0, 64)

    @pytest.mark.parametrize("d", [1, 2, 8, 14])
    @pytest.mark.parametrize("damping", [0.0, 0.5])
    def test_rows_match_single_row_kernel(self, d, damping):
        step = max(1, _BLOCK_CFGS >> d)
        n_rows = 3 * step + 5
        g, w, u, belief = self.group(d, n_rows)
        old = g.c_msg.copy()
        v = np.clip(belief[g.idx] - old, -self.CLIP, self.CLIP)
        g.update(belief, damping, self.CLIP)
        # every row beside a block edge, the last rows, and a sample of the rest
        near_edges = {i for s in range(0, n_rows, step) for i in range(s - 2, s + 3) if 0 <= i < n_rows}
        sample = np.random.default_rng(0).choice(n_rows, 32).tolist()
        for i in sorted(near_edges | set(range(n_rows - 3, n_rows)) | set(sample)):
            new = check_to_var_messages(w[i], u[i], self.SIGMA2, v[i], self.CLIP)
            want = damping * old[i] + (1.0 - damping) * new
            np.testing.assert_allclose(g.c_msg[i], want, rtol=1e-12, atol=1e-12)

    def assert_bit_identical_to_unblocked(self, d, extra, clip):
        # Up to degree 8 the sums have at most 256 terms, so BLAS adds them in
        # the same order for any number of rows above one; a last block of one
        # row would take its other order.
        g, _, _, belief = self.group(d, 2 * max(1, _BLOCK_CFGS >> d) + extra)
        want = _unblocked_update(g, belief, 0.5, clip)
        g.update(belief, 0.5, clip)
        assert np.array_equal(g.c_msg, want)

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("extra", [1, 5])
    def test_bit_identical_to_unblocked(self, d, extra):
        self.assert_bit_identical_to_unblocked(d, extra, self.CLIP)

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("extra", [1, 5])
    def test_bit_identical_to_unblocked_row_max(self, d, extra):
        # clip 300 is past the bound shift's guard: blocks take the row max
        assert (d / 2 + 2) * 300.0 > _BOUND_SHIFT_MAX
        self.assert_bit_identical_to_unblocked(d, extra, 300.0)

    @pytest.mark.parametrize("d", [1, 8, 14])
    @pytest.mark.parametrize("sigma2", [1e-12, 0.1, 3.0])
    def test_resid_is_shifted_gaussian_term(self, d, sigma2):
        rng = np.random.default_rng(d)
        w = rng.uniform(0.05, 0.5, (40, d))
        u = rng.normal(0.0, 1.0, 40)
        g = _RowGroup(rng.integers(0, 64, (40, d)), w, u, sigma2)
        want = -((u[:, None] - w @ g.signs_t) ** 2) / (2.0 * sigma2)
        assert np.array_equal(g.resid, want - want.max(axis=1, keepdims=True))


def _rowmax_reference(w, u, sigma2, v, clip):
    """The earlier check update, kept as reference: every row's log terms
    shifted by their own maximum; ``v`` are the clipped incoming messages."""
    signs_t = _sign_matrix(w.shape[1]).T.copy()  # the layout _RowGroup sums with
    resid = -((u[:, None] - w @ signs_t) ** 2) / (2.0 * sigma2)
    base = (v * 0.5) @ signs_t + resid
    base -= base.max(axis=1, keepdims=True)
    np.exp(base, out=base)
    plus = np.maximum(base @ (signs_t.T > 0), 1e-300)
    minus = np.maximum(base @ (signs_t.T < 0), 1e-300)
    return np.clip(np.log(plus) - np.log(minus) - v, -clip, clip)


# Clips on both sides of the bound shift's guard: 100 keeps the row max from
# degree 9 up, 300 at every degree.
GUARD_CLIPS = [5.0, 30.0, 40.0, 100.0, 300.0]


@st.composite
def check_rows(draw, max_rows=1):
    """Rows of one degree: weights, observations near a noisy codeword sum,
    sigma2, the clip, and incoming messages up to 1.3 clip."""
    d = draw(st.integers(1, MAX_ENUM_DEGREE), label="d")
    rows = draw(st.integers(1, max_rows if d <= 10 else min(max_rows, 2)), label="rows")
    sigma2 = draw(st.floats(1e-12, 1.0), label="sigma2")
    clip = draw(st.sampled_from(GUARD_CLIPS), label="clip")
    mag = st.floats(0.02, 1.0)
    w = np.array([[draw(mag) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(d)] for _ in range(rows)])
    bits = np.array([[draw(st.sampled_from([-1.0, 1.0])) for _ in range(d)] for _ in range(rows)])
    noise = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(rows)])
    u = (w * bits).sum(axis=1) + math.sqrt(sigma2) * noise
    lam = st.floats(-1.3 * clip, 1.3 * clip)
    msgs = np.array([[draw(lam) for _ in range(d)] for _ in range(rows)])
    return w, u, sigma2, clip, msgs


class TestBoundShift:
    """The bound-shifted update against the per-row maximum it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(check_rows())
    def test_single_row_matches_row_max(self, row):
        w, u, sigma2, clip, lam = row
        want = _rowmax_reference(w, u, sigma2, np.clip(lam, -clip, clip), clip)
        got = check_to_var_messages(w[0], u[0], sigma2, lam[0], clip)
        np.testing.assert_allclose(got, want[0], rtol=0, atol=1e-11)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(check_rows(max_rows=6), st.sampled_from([0.0, 0.5]))
    def test_row_group_matches_row_max(self, rows, damping):
        w, u, sigma2, clip, lam = rows
        n, d = w.shape
        # each row reads its own variables, with an old message on every edge
        idx = np.arange(n * d).reshape(n, d)
        g = _RowGroup(idx, w, u, sigma2)
        g.c_msg = np.linspace(-clip, clip, n * d).reshape(n, d)
        belief = lam.ravel() + g.c_msg.ravel()
        v = np.clip(belief[idx] - g.c_msg, -clip, clip)
        want = damping * g.c_msg + (1.0 - damping) * _rowmax_reference(w, u, sigma2, v, clip)
        g.update(belief, damping, clip)
        np.testing.assert_allclose(g.c_msg, want, rtol=0, atol=1e-11)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(check_rows(), st.data())
    def test_sign_symmetry(self, row, data):
        w, u, sigma2, clip, lam = row[0][0], row[1][0], row[2], row[3], row[4][0]
        out = check_to_var_messages(w, u, sigma2, lam, clip)
        assert np.all(np.isfinite(out))
        # flipping variable j's weight and prior relabels b_j: message j flips
        j = data.draw(st.integers(0, len(w) - 1), label="j")
        flip = np.ones(len(w))
        flip[j] = -1.0
        np.testing.assert_allclose(
            check_to_var_messages(w * flip, u, sigma2, lam * flip, clip), out * flip, rtol=0, atol=1e-11
        )
        # flipping the observation and every prior flips every message
        np.testing.assert_allclose(check_to_var_messages(w, -u, sigma2, -lam, clip), -out, rtol=0, atol=1e-11)


class TestMlBruteforce:
    def test_two_variable_example(self):
        g = FactorGraph(
            k=2,
            indptr=np.array([0, 2], dtype=np.int64),
            indices=np.array([0, 1], dtype=np.int64),
            weights=np.array([0.5, 1 / 3]),
        )
        assert np.array_equal(ml_decode_bruteforce(g, np.array([5 / 6])), [1.0, 1.0])

    def test_empty_rows_tie_rule(self):
        g = FactorGraph(
            k=3,
            indptr=np.array([0], dtype=np.int64),
            indices=np.array([], dtype=np.int64),
            weights=np.array([]),
        )
        assert np.array_equal(ml_decode_bruteforce(g, np.array([])), [1.0, 1.0, 1.0])

    def test_noiseless_unique_recovery(self):
        for seed in range(5):
            g = build_graph(10, 12, D8, RECIP, PERM, substream(seed, 21))
            b = bits_to_bpsk(substream(seed, 22).integers(0, 2, 10))
            assert np.array_equal(ml_decode_bruteforce(g, encode(g, b)), b)

    def test_refuses_large_k(self):
        g = chain_graph(21)
        with pytest.raises(ValueError):
            ml_decode_bruteforce(g, np.zeros(g.m))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observation_rejected(self, bad):
        g = build_graph(10, 12, D8, RECIP, PERM, substream(0, 21))
        u = encode(g, np.ones(10))
        u[3] = bad
        with pytest.raises(ValueError, match="non-finite observation"):
            ml_decode_bruteforce(g, u)

    def test_overflowing_distances_keep_tie_rule(self):
        # every squared distance overflows to inf: all candidates tie
        g = build_graph(10, 12, D8, RECIP, PERM, substream(0, 21))
        assert np.array_equal(ml_decode_bruteforce(g, np.full(12, 1e200)), np.ones(10))


class TestPrecodeDecode:
    def setup_method(self):
        self.code = ldpc_generate(200, 0.95, 3, substream(30, 1))
        self.scale = power_scale(D8, RECIP)

    def frame(self, seed, n_symbols, msg=None):
        g = build_graph(self.code.n, n_symbols, D8, RECIP, BAL, substream(seed, 31))
        if msg is None:
            msg = substream(seed, 32).integers(0, 2, self.code.k_msg).astype(np.uint8)
        cw = ldpc_encode(self.code, msg)
        return g, msg, bits_to_bpsk(cw)

    def decode(self, g, u, sigma2):
        """Message bits as the harness takes them: joint BP, then the outer decoder."""
        result = bp_decode_joint(g, u, sigma2, self.code, DecoderConfig())
        bits, _converged = ldpc_decode(self.code, result.llr)
        return bits

    def test_noiseless_exact(self):
        g, msg, b = self.frame(0, 200)
        bits = self.decode(g, encode(g, b), 1e-12)
        assert np.array_equal(bits, msg)

    def test_all_zero_message(self):
        zeros = np.zeros(self.code.k_msg, dtype=np.uint8)
        g, msg, b = self.frame(1, 200, msg=zeros)
        bits = self.decode(g, encode(g, b), 1e-12)
        assert not bits.any()

    def test_interleaved_matches_noiseless(self):
        g, msg, b = self.frame(2, 220)
        bits = self.decode(g, encode(g, b), 1e-12)
        assert np.array_equal(bits, msg)

    def test_joint_returns_iterations(self):
        g, msg, b = self.frame(3, 220)
        res = bp_decode_joint(g, encode(g, b), 1e-12, self.code)
        assert res.iterations >= 1
        assert np.array_equal(res.hard_bits[: self.code.k_msg], msg)

    def test_size_mismatch(self):
        g = build_graph(64, 32, D8, RECIP, PERM, substream(33, 1))
        with pytest.raises(ValueError):
            bp_decode_joint(g, np.zeros(32), 1.0, self.code)


def _decode_plain(g, u, sigma2):
    return bp_decode(g, u, sigma2)


def _decode_joint(g, u, sigma2):
    # a single all-variable parity check, so the code fits any graph
    code = LdpcCode(g.k, g.k - 1, [np.arange(g.k)], np.ones((1, g.k - 1), dtype=np.uint8))
    return bp_decode_joint(g, u, sigma2, code)


@pytest.mark.parametrize("decode", [_decode_plain, _decode_joint], ids=["bp_decode", "bp_decode_joint"])
class TestEntryPointInputs:
    """Both decoder entry points refuse the same bad inputs."""

    def test_wrong_length(self, decode):
        with pytest.raises(ValueError):
            decode(chain_graph(4), np.zeros(2), 1.0)

    def test_non_finite_observation(self, decode):
        with pytest.raises(ValueError):
            decode(chain_graph(4), np.array([np.nan, 0.0, 0.0]), 1.0)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0])
    def test_non_positive_sigma2(self, decode, sigma2):
        with pytest.raises(ValueError):
            decode(chain_graph(4), np.zeros(3), sigma2)

    def test_degree_above_cap(self, decode):
        g = FactorGraph(
            k=15,
            indptr=np.array([0, 15], dtype=np.int64),
            indices=np.arange(15, dtype=np.int64),
            weights=np.ones(15),
        )
        with pytest.raises(UnsupportedDegreeError):
            decode(g, np.zeros(1), 1.0)

    def test_every_likelihood_of_a_row_underflows(self, decode):
        # every configuration of every row lies ~100 / sqrt(1e-306) sigmas off:
        # refused before any iteration rather than decoded into NaN LLRs
        g = build_graph(100, 80, D8, RECIP, BAL, substream(0, 40))
        u = encode(g, bits_to_bpsk(substream(0, 41).integers(0, 2, 100))) + 100.0
        with pytest.raises(ValueError, match="all its likelihoods are 0"):
            decode(g, u, 1e-306)


@pytest.mark.parametrize(
    "u_i,sigma2,incoming",
    [(0.4, np.nan, [0.0, 0.0]), (0.4, np.inf, [0.0, 0.0]), (np.nan, 1.0, [0.0, 0.0]), (0.4, 1.0, [0.0, np.nan])],
    ids=["sigma2-nan", "sigma2-inf", "observation-nan", "message-nan"],
)
def test_check_to_var_refuses_what_entry_points_refuse(u_i, sigma2, incoming):
    with pytest.raises(ValueError):
        check_to_var_messages(np.array([0.5, 1 / 3]), u_i, sigma2, np.array(incoming))


@pytest.mark.parametrize("clip", [-5.0, 0.0, np.nan, np.inf, 300.5, 1e9])
def test_clip_outside_the_config_range_is_refused(clip):
    # check_to_var_messages and DecoderConfig.llr_clip share one check
    with pytest.raises(ValueError, match=r"message clip must lie in \(0, 300.0\]") as refused:
        check_to_var_messages(np.array([0.5, 1 / 3]), 0.4, 1.0, np.zeros(2), clip)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        DecoderConfig(llr_clip=clip)


def test_check_to_var_refuses_a_row_of_zero_likelihood():
    # (1e160 - sum)^2 overflows for every configuration
    with pytest.raises(ValueError, match="all its likelihoods are 0"):
        check_to_var_messages(np.array(RECIP.values), 1e160, 1.0, np.zeros(8))


def test_overflowing_terms_of_a_finite_row_are_zero_likelihoods():
    # at sigma2 1e-308 the two configurations that flip the weight-10 bit
    # overflow to -inf; the other two stay finite, and no warning is raised
    g = _RowGroup(np.array([[0, 1]]), np.array([[10.0, 1 / 3]]), np.array([10.0 + 1 / 3]), 1e-308)
    assert g.resid.max() == 0.0
    assert np.isneginf(g.resid).sum() == 2 and np.isfinite(g.resid).sum() == 2


class TestStopReason:
    """Every decode says which rule ended it."""

    def noiseless(self, seed):
        g = build_graph(16, 32, D8, RECIP, PERM, substream(seed, 1))
        b = bits_to_bpsk(substream(seed, 2).integers(0, 2, 16))
        return g, encode(g, b)

    def test_syndrome(self):
        code = ldpc_generate(200, 0.95, 3, substream(30, 1))
        g = build_graph(code.n, 220, D8, RECIP, BAL, substream(3, 31))
        b = bits_to_bpsk(ldpc_encode(code, substream(3, 32).integers(0, 2, code.k_msg)))
        res = bp_decode_joint(g, encode(g, b), 1e-12, code)
        assert res.stop_reason == "syndrome"
        bits, converged = ldpc_decode(code, res.llr)  # the outer decoder reports the same rule
        assert converged and np.array_equal(bits, res.hard_bits[: code.k_msg])

    def test_stable(self):
        res = bp_decode(*self.noiseless(12), 1e-12, DecoderConfig(max_iters=50))
        assert res.stop_reason == "stable" and res.iterations < 50

    def test_max_iters(self):
        res = bp_decode(*self.noiseless(12), 1e-12, DecoderConfig(max_iters=1))
        assert res.stop_reason == "max_iters" and res.iterations == 1


def _bp_every_iteration(groups, prior, cfg, code):
    """The flooding loop without the fixed-point exit: it runs every iteration
    until a stop rule fires or max_iters is reached."""
    stable_run = 2 if code is None else 4
    belief = prior
    prev_bits = None
    stable = 0
    reason = "max_iters"
    for iterations in range(1, cfg.max_iters + 1):
        _update(groups, belief, cfg.damping, cfg.llr_clip)
        belief = prior.copy()
        for g in groups:
            g.accumulate(belief)
        bits = (belief < 0).astype(np.uint8)
        if code is not None and syndrome_ok(code, bits) and np.all(belief != 0):
            reason = "syndrome"
            break
        if cfg.stop_on_stable_decisions:
            if prev_bits is not None and np.array_equal(bits, prev_bits):
                stable += 1
                if stable >= stable_run:
                    reason = "stable"
                    break
            else:
                stable = 0
        prev_bits = bits
    return LlrVector(llr=belief, iterations=iterations, stop_reason=reason)


def _stalled_outer_frame():
    """Channel LLRs at sigma2 1.2 for the k_msg 200 code: outer-only BP
    reaches an exact fixed point at iteration 2 without a codeword."""
    code = ldpc_generate(200, 0.95, 3, substream(30, 1))
    rng = substream(1, 7)
    cw = ldpc_encode(code, rng.integers(0, 2, code.k_msg).astype(np.uint8))
    y = bits_to_bpsk(cw) + math.sqrt(1.2) * rng.standard_normal(code.n)
    return code, 2 * y / 1.2


@pytest.fixture
def count_updates(monkeypatch):
    """A list that gets one entry per check update from now on."""
    calls = []

    def counted(*args):
        calls.append(None)
        _update(*args)

    monkeypatch.setattr(decoder_module, "_update", counted)
    return calls


class TestFixedPointExit:
    """Returning at an exact fixed point gives what running every iteration gives."""

    @staticmethod
    def frame(case):
        """A fresh-groups factory, the prior and the code of one decode."""
        if case == "outer":
            code, prior = _stalled_outer_frame()
            return lambda: [_OuterChecks(code)], prior, code
        g, u = TestStopReason().noiseless(12)
        return lambda: _row_groups(g, u, 1e-12), np.zeros(g.k), None

    @pytest.mark.parametrize("max_iters", [1, 2, 3, 4, 5, 60])
    @pytest.mark.parametrize("stop_on_stable", [True, False], ids=["stable-stop", "no-stable-stop"])
    @pytest.mark.parametrize("damping", [0.0, 0.5])
    @pytest.mark.parametrize("case", ["outer", "fountain"])
    def test_same_result_as_every_iteration(self, case, damping, stop_on_stable, max_iters):
        groups, prior, code = self.frame(case)
        cfg = DecoderConfig(max_iters=max_iters, damping=damping, stop_on_stable_decisions=stop_on_stable)
        got = _bp(groups(), prior, cfg, code)
        want = _bp_every_iteration(groups(), prior, cfg, code)
        assert got.llr.tobytes() == want.llr.tobytes()
        assert (got.iterations, got.stop_reason) == (want.iterations, want.stop_reason)

    @pytest.mark.parametrize(
        "stop_on_stable,max_iters,iterations,reason",
        [(True, 4, 4, "max_iters"), (True, 50, 5, "stable"), (False, 50, 50, "max_iters")],
        ids=["below-stable-stop", "above-stable-stop", "no-stable-stop"],
    )
    def test_exit_fires_at_the_fixed_point(self, count_updates, stop_on_stable, max_iters, iterations, reason):
        code, prior = _stalled_outer_frame()
        cfg = DecoderConfig(max_iters=max_iters, damping=0.0, stop_on_stable_decisions=stop_on_stable)
        res = _bp([_OuterChecks(code)], prior, cfg, code)
        assert (res.iterations, res.stop_reason) == (iterations, reason)
        assert len(count_updates) == 2

    def test_ldpc_decode_stops_updating_at_the_fixed_point(self, count_updates):
        code, prior = _stalled_outer_frame()
        bits, converged = ldpc_decode(code, prior)
        assert len(count_updates) == 2 and not converged
        cfg = DecoderConfig(max_iters=50, damping=0.0, stop_on_stable_decisions=False)
        want = _bp_every_iteration([_OuterChecks(code)], prior, cfg, code)
        assert np.array_equal(bits, want.hard_bits[: code.k_msg])

    def test_signed_zeros_are_different_messages(self):
        assert not _same_bits(np.array([0.0, 1.0]), np.array([-0.0, 1.0]))
        assert _same_bits(np.array([-0.0, 1.0]), np.array([-0.0, 1.0]))


@pytest.fixture
def decode_threads():
    """Run a decode on a given number of threads; back to the CPU rule after."""
    yield _use_threads
    _use_threads(None)


def _same_result(a: LlrVector, b: LlrVector) -> bool:
    return (np.array_equal(a.llr, b.llr), a.iterations, a.stop_reason) == (True, b.iterations, b.stop_reason)


class TestThreads:
    """A decode gives the same bits on any number of threads."""

    @pytest.mark.parametrize("clip", [30.0, 300.0])
    @pytest.mark.parametrize("d", range(1, MAX_ENUM_DEGREE + 1))
    def test_row_group_update(self, d, clip, decode_threads):
        # two whole blocks and a remainder block of 3 rows
        n_rows = 2 * max(1, _BLOCK_CFGS >> d) + 3
        c_msg = {}
        for threads in (1, 3):
            decode_threads(threads)
            g, _, _, belief = TestBlockedUpdate().group(d, n_rows)
            for damping in (0.0, 0.5):
                g.update(belief, damping, clip)
            c_msg[threads] = g.c_msg
        assert _THREADS.pool is not None
        assert np.array_equal(c_msg[1], c_msg[3])

    def test_bp_decode_mixed_degrees(self, decode_threads):
        dist = DegreeDistribution((0.0, 0.25, 0.0, 0.0, 0.25, 0.0, 0.0, 0.25, 0.0, 0.0, 0.25))
        policy = EncoderPolicy(Selection.UNIFORM_RANDOM, WeightAssignment.WITH_REPLACEMENT)
        g = build_graph(300, 1200, dist, RECIP, policy, substream(5, 1))
        assert set(np.unique(g.row_degrees())) == {2, 5, 8, 11}
        b = bits_to_bpsk(substream(5, 2).integers(0, 2, 300))
        u = encode(g, b) + substream(5, 3).normal(0.0, 0.2, g.m)
        results = {}
        for threads in (1, 2):
            decode_threads(threads)
            results[threads] = bp_decode(g, u, 0.04, DecoderConfig(max_iters=20))
        assert results[1].iterations > 3
        assert _same_result(results[1], results[2])

    def test_bp_decode_joint_precoded_frame(self, decode_threads):
        code = ldpc_generate(1000, 0.95, 3, substream(30, 1))
        g = build_graph(code.n, 400, D8, RECIP, BAL, substream(6, 31))
        b = bits_to_bpsk(ldpc_encode(code, substream(6, 32).integers(0, 2, code.k_msg)))
        u = encode(g, b) + substream(6, 33).normal(0.0, 0.05, g.m)
        results = {}
        for threads in (1, 2):
            decode_threads(threads)
            results[threads] = bp_decode_joint(g, u, 0.0025, code, DecoderConfig(max_iters=30))
        assert results[1].iterations > 3
        assert _same_result(results[1], results[2])

    def test_failed_task_is_raised_once_the_others_finish(self, decode_threads):
        decode_threads(2)
        ran = []

        def fail():
            raise RuntimeError("task failed")

        with pytest.raises(RuntimeError, match="task failed"):
            _THREADS.run([lambda: ran.append(1), fail, *[lambda: ran.append(1)] * 6], 0)
        assert len(ran) <= 7
        _THREADS.run([lambda: ran.append(2)] * 4, 0)  # the pool still serves the next update
        assert ran.count(2) == 4

    def test_task_failing_on_a_pool_thread_is_raised_by_the_caller(self, decode_threads):
        decode_threads(2)
        caller = threading.current_thread()
        barrier = threading.Barrier(2, timeout=10)

        def hold():
            # neither task goes on until both are taken, so the caller and
            # the pool thread each hold one
            barrier.wait()
            return threading.current_thread()

        def fail_off_caller():
            if hold() is not caller:
                raise RuntimeError("pool task failed")

        with pytest.raises(RuntimeError, match="pool task failed"):
            _THREADS.run([fail_off_caller] * 2, 0)
        threads = []
        _THREADS.run([lambda: threads.append(hold())] * 2, 0)
        assert caller in threads and len(set(threads)) == 2  # the pool still serves the next update

    def test_pool_is_created_once_with_count_minus_one_threads(self, decode_threads):
        decode_threads(3)
        _THREADS.run([lambda: None] * 2, 0)
        pool = _THREADS.pool
        for n_tasks in substream(8, 1).integers(2, 41, 100):
            _THREADS.run([lambda: None] * int(n_tasks), 0)
        assert _THREADS.pool is pool
        assert sum(t.name.startswith("afc-decode") for t in threading.enumerate()) <= 2

    def test_every_task_runs_once_on_more_threads_than_cores(self, decode_threads):
        # a task taken twice or never, or a caller returning while one still
        # runs, leaves a count other than 1
        decode_threads(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                hits = [0] * 40
                _THREADS.run([lambda i=i: hits.__setitem__(i, hits[i] + 1) for i in range(40)], 0)
                assert hits == [1] * 40
        finally:
            sys.setswitchinterval(interval)

    def test_cpu_rule_threads_updates_of_two_blocks_or_more(self, monkeypatch, decode_threads):
        decode_threads(None)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        two_blocks = 2 * (_BLOCK_CFGS >> 8)
        for n_rows, pooled in ((two_blocks - 1, False), (two_blocks, True)):
            g, _, _, belief = TestBlockedUpdate().group(8, n_rows)
            g.update(belief, 0.5, 30.0)
            assert (_THREADS.pool is not None) is pooled

    def test_unpinned_blas_decodes_serially(self, monkeypatch, decode_threads):
        decode_threads(None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        before = threading.active_count()
        g = build_graph(300, 700, D8, RECIP, BAL, substream(7, 1))
        res = bp_decode(g, encode(g, bits_to_bpsk(substream(7, 2).integers(0, 2, 300))), 1e-12)
        assert res.iterations >= 1
        assert threading.active_count() == before
        assert _THREADS.pool is None


class TestLlrVector:
    def test_tie_goes_positive(self):
        v = LlrVector(np.array([0.0, -1.0, 2.0]))
        assert np.array_equal(v.hard, [1.0, -1.0, 1.0])
        assert np.array_equal(v.hard_bits, [0, 1, 0])
