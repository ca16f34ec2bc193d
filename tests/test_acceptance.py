"""Acceptance gates. Each test prints one `[acceptance] ... PASS` line.

The two experiment-scale criteria (error-floor reproduction and throughput
versus SNR) are marked slow; `pytest -m "not slow"` skips them for quick
iteration, the default run includes everything.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from afc.analysis import (
    ambiguity_recursion,
    check_nonzero_condition,
    gaussian_fit_check,
    pairwise_error_prob,
    unique_solution_fraction,
)
from afc.channel import capacity_bits, snr_to_sigma
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
    weight_second_moment,
    zero_sum_row_template,
)
from afc.decoder import DecoderConfig, bp_decode, ml_decode_bruteforce
from afc.harness import ExperimentConfig, emit_csv, run_ber_sweep, run_throughput_sweep
from afc.rng import substream

RECIP = reciprocal_prime_weights()
D8 = DegreeDistribution.fixed(8)
PERM = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.WITHOUT_REPLACEMENT)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def test_c1_recursion_equals_oracle():
    t0 = time.time()
    rng = substream(20260810, 1)
    checked = 0
    for _ in range(200):
        l = int(rng.integers(3, 11))
        vals = set()
        while len(vals) < l:
            vals.add(Fraction(int(rng.integers(1, 1000)), int(rng.integers(1, 1000))))
        w = list(vals)
        rep = ambiguity_recursion(w, l)
        assert 1 - rep.e_l == unique_solution_fraction(w), f"mismatch for {w}"
        checked += 1
    elapsed = time.time() - t0
    report(
        "C1 recursion/oracle equivalence",
        checked == 200 and elapsed < 60,
        f"200 rational tuples exact, {elapsed:.1f}s",
    )


def test_c2_condition_certification():
    t0 = time.time()
    good = check_nonzero_condition(RECIP, 8, WeightAssignment.WITHOUT_REPLACEMENT)
    bad = check_nonzero_condition(zero_sum_row_template())
    witness_zero = bad.witness is not None and sum(c * w for c, w in bad.witness) == 0
    elapsed = time.time() - t0
    report(
        "C2 condition certification",
        good.ok and not bad.ok and witness_zero and elapsed < 30,
        f"3^8-1 vectors exhausted, zero-sum witness found, {elapsed:.1f}s",
    )


def test_c3_pairwise_error_probability():
    t0 = time.time()
    draws = 100_000
    worst = 0.0
    for i in range(20):
        inst = substream(333, 1, i)
        k = int(inst.integers(8, 13))
        m = int(inst.integers(10, 25))
        g = build_graph(k, m, D8, RECIP, PERM, inst)
        b = bits_to_bpsk(inst.integers(0, 2, k))
        n_flips = int(inst.integers(1, 4))
        flips = inst.choice(k, size=n_flips, replace=False)
        mask = np.zeros(k)
        mask[flips] = 1.0
        contrib = g.weights * b[g.indices] * mask[g.indices]
        t = np.add.reduceat(contrib, g.indptr[:-1])
        # pick sigma so the closed form lands at a measurable level
        p_target = float(inst.uniform(0.02, 0.3))
        sigma = float(np.linalg.norm(t)) / float(stats.norm.isf(p_target))
        p = pairwise_error_prob(g, b, flips, sigma)
        assert abs(p - p_target) < 1e-12
        noise = inst.normal(0.0, sigma, size=(draws, m))
        p_hat = float(np.mean(noise @ t > float(np.dot(t, t))))
        bound = 3.0 * math.sqrt(p * (1 - p) / draws)
        worst = max(worst, abs(p_hat - p) / bound)
        assert abs(p_hat - p) <= bound, f"instance {i}: |{p_hat}-{p}| > {bound}"
    elapsed = time.time() - t0
    report(
        "C3 pairwise error probability vs Monte Carlo",
        elapsed < 300,
        f"20 instances x 1e5 draws within 3 binomial sigma (worst {worst:.2f}), {elapsed:.1f}s",
    )


def test_c4_gaussian_shaping():
    t0 = time.time()
    rng = substream(444, 1)
    rep = gaussian_fit_check(RECIP, 8, 0.2, 1e-4, 10_000_000, rng)
    elapsed = time.time() - t0
    worst_gap = max(math.sqrt(b.gap_sq) for b in rep.bins)
    report(
        "C4 shaping check (delta=0.2, eps=1e-4, 1e7 samples)",
        rep.satisfied and elapsed < 120,
        f"{len(rep.bins)} bins, worst |p-q| {worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_c5_coded_symbol_variance():
    expected = 8 * weight_second_moment(RECIP)
    assert abs(expected - 0.44193) < 5e-5
    # many small independent graphs: rows inside one graph share message bits
    # (positive covariance through shared variables), which would invalidate
    # the iid 3-sigma bound on the pooled mean
    pol = EncoderPolicy(Selection.UNIFORM_RANDOM, WeightAssignment.WITHOUT_REPLACEMENT)
    k, rows, n_graphs = 10_000, 100, 10_000
    chunks = []
    for t in range(n_graphs):
        g = build_graph(k, rows, D8, RECIP, pol, substream(555, 1, t))
        b = bits_to_bpsk(substream(555, 2, t).integers(0, 2, k))
        chunks.append(encode(g, b))
    c = np.concatenate(chunks)
    var = float(np.var(c))
    mean = float(np.mean(c))
    mean_bound = 3.0 * math.sqrt(expected) / math.sqrt(len(c))
    ok = len(c) == 1_000_000 and abs(var - expected) < 0.01 * expected and abs(mean) <= mean_bound
    report(
        "C5 coded symbol moments",
        ok,
        f"1e6 symbols, var {var:.5f} vs d*sigma_s^2 {expected:.5f}, |mean| {abs(mean):.2e}",
    )


@pytest.mark.slow
def test_c6_error_floor_reproduction():
    t0 = time.time()
    rates = (2.5, 3.0)
    sweeps = {}
    for variant, kmsg, trials in (
        ("uniform", 1000, 200),
        ("min-degree", 1000, 200),
        ("min-degree+precode", 950, 300),
    ):
        cfg = ExperimentConfig(
            k_msg=kmsg, snr_db=(15.0,), rates=rates, trials=trials, seed=11,
            variants=(variant,), max_iters=150,
        )
        sweeps[variant] = run_ber_sweep(cfg)[0].points
    details = []
    ok = True
    for i, rate in enumerate(rates):
        uni = sweeps["uniform"][i]
        mind = sweeps["min-degree"][i]
        floor = math.exp(-uni.n_symbols * 8 / 1000)
        within3 = floor / 3 <= uni.ber <= 3 * floor
        tenfold = mind.ber <= uni.ber / 10
        ok = ok and within3 and tenfold
        details.append(
            f"rate {rate}: uniform {uni.ber:.2e} vs e^-a {floor:.2e}, min-deg {mind.ber:.2e}"
        )
    pre = sweeps["min-degree+precode"][1]  # rate 3.0, where uniform floors
    ok = ok and pre.ber <= 1e-5
    details.append(f"precode at rate 3.0: {pre.ber:.2e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 1800
    report("C6 error-floor reproduction (Fig.-2-style)", ok, "; ".join(details) + f"; {elapsed:.0f}s")


@pytest.mark.slow
def test_c7_throughput_vs_snr():
    t0 = time.time()
    cfg = ExperimentConfig(
        k_msg=9500, snr_db=(5.0, 15.0, 30.0), trials=60, seed=2026,
        per_complex_noise=True, max_iters=200, min_error_events=50,
        max_trial_factor=3, target_ber=1e-4,
    )
    res = run_throughput_sweep(cfg)
    by_snr = {pt.snr_db: pt for pt in res.points}
    r5 = by_snr[5.0].rate_bits_per_cu
    r15 = by_snr[15.0].rate_bits_per_cu
    r30 = by_snr[30.0].rate_bits_per_cu
    gate5 = r5 >= 1.5 and by_snr[5.0].reached
    gate15 = r15 >= 0.75 * capacity_bits(15.0) and by_snr[15.0].reached
    # converse holds against the realized channel's capacity (the quoted-SNR
    # reference curve sits 3 dB below it under the per-complex-noise reading)
    converse = all(
        pt.rate_bits_per_cu < capacity_bits(pt.snr_db, cfg.per_complex_noise)
        for pt in res.points
    )
    elapsed = time.time() - t0
    ok = gate5 and gate15 and converse and elapsed < 7200
    report(
        "C7 throughput vs SNR (target BER 1e-4, k_msg=9500)",
        ok,
        f"5dB {r5:.2f} (>=1.5), 15dB {r15:.2f} (>= {0.75 * capacity_bits(15.0):.2f}), "
        f"30dB {r30:.2f} reported ungated, {elapsed:.0f}s",
    )


def test_c8_decoder_sanity():
    # cycle-free: BP hard decisions equal exhaustive ML exactly
    def chain_graph(k, w0=0.5, w1=1 / 3):
        rows = k - 1
        indptr = np.arange(0, 2 * rows + 1, 2, dtype=np.int64)
        indices = np.empty(2 * rows, dtype=np.int64)
        w = np.empty(2 * rows)
        for i in range(rows):
            indices[2 * i] = i
            indices[2 * i + 1] = i + 1
            w[2 * i] = w0
            w[2 * i + 1] = w1
        return FactorGraph(k=k, indptr=indptr, indices=indices, weights=w)

    def star_tree(k):
        rows = k - 1
        indptr = np.arange(0, 2 * rows + 1, 2, dtype=np.int64)
        indices = np.empty(2 * rows, dtype=np.int64)
        w = np.empty(2 * rows)
        vals = list(RECIP.values)
        for i in range(rows):
            indices[2 * i] = 0
            indices[2 * i + 1] = i + 1
            w[2 * i] = vals[i % 8]
            w[2 * i + 1] = vals[(i + 3) % 8]
        return FactorGraph(k=k, indptr=indptr, indices=indices, weights=w)

    cfg = DecoderConfig(max_iters=40, damping=0.0, llr_clip=300.0, stop_on_stable_decisions=False)
    sigma2 = 0.02
    tree_exact = 0
    for seed in range(60):
        g = chain_graph(10) if seed % 2 == 0 else star_tree(10)
        rng = substream(seed, 201)
        b = bits_to_bpsk(rng.integers(0, 2, 10))
        u = encode(g, b) + rng.normal(0, math.sqrt(sigma2), g.m)
        bp = bp_decode(g, u, sigma2, cfg)
        ml = ml_decode_bruteforce(g, u)
        tree_exact += int(np.array_equal(bp.hard, ml))

    # loopy: k=12, m=24, 15 dB; the oracle run fixed the observed match rate
    # at 100%, gated at the criterion's 95%
    s2 = snr_to_sigma(15.0)
    scale = power_scale(D8, RECIP)
    match = 0
    for seed in range(200):
        g = build_graph(12, 24, D8, RECIP, PERM, substream(seed, 31))
        b = bits_to_bpsk(substream(seed, 32).integers(0, 2, 12))
        u = encode(g, b) * scale + substream(seed, 33).normal(0, math.sqrt(s2), 24)
        ml = ml_decode_bruteforce(g, u / scale)
        bp = bp_decode(g, u / scale, s2 / scale**2)
        match += int(np.array_equal(bp.hard, ml))

    ok = tree_exact == 60 and match >= 190
    report(
        "C8 decoder sanity (BP vs exhaustive ML)",
        ok,
        f"cycle-free exact {tree_exact}/60, loopy match {match}/200 (gate 190)",
    )


def test_c9_determinism(tmp_path):
    cfg = ExperimentConfig(
        k_msg=200, snr_db=(15.0,), rates=(2.0, 3.0), trials=20, seed=99,
        variants=("min-degree", "min-degree+precode"),
    )
    run_ber_sweep(ExperimentConfig(**{**cfg.__dict__, "out": str(tmp_path / "first.csv")}))
    run_ber_sweep(ExperimentConfig(**{**cfg.__dict__, "out": str(tmp_path / "second.csv")}))
    pairs = [
        ("first_min-degree.csv", "second_min-degree.csv"),
        ("first_min-degree-precode.csv", "second_min-degree-precode.csv"),
    ]
    same = all((tmp_path / a).read_bytes() == (tmp_path / b).read_bytes() for a, b in pairs)

    thr1 = run_throughput_sweep(
        ExperimentConfig(k_msg=95, snr_db=(15.0,), trials=3, seed=5, max_trial_factor=1, target_ber=1e-2),
    )
    thr2 = run_throughput_sweep(
        ExperimentConfig(k_msg=95, snr_db=(15.0,), trials=3, seed=5, max_trial_factor=1, target_ber=1e-2),
    )
    emit_csv(thr1, tmp_path / "t1.csv")
    emit_csv(thr2, tmp_path / "t2.csv")
    same = same and (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    report("C9 determinism (byte-identical CSV reruns)", same)
