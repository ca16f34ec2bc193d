"""Correctness checks computed apart from the program.

Each check raises ``CheckError`` with a message when the program's output is
wrong. Statistical checks are one-sided exact tests at ``ALPHA``: they fail
only when the counts contradict the stated property at that level, so they
hold on seeds not seen while writing them and still catch a broken codec,
whose counts miss by orders of magnitude.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
from scipy import sparse, special

ALPHA = 1e-6  # statistical checks
NOISE_ALPHA = 1e-9  # two-sided chi-square bound on the channel noise


class CheckError(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- frames -----------------------------------------------------------------


def parity_matrix(n: int, check_rows) -> sparse.csr_matrix:
    """Parity-check matrix from the code's check rows (not from its edge arrays)."""
    rows = [np.full(len(r), i) for i, r in enumerate(check_rows)]
    cols = [np.asarray(r) for r in check_rows]
    data = np.ones(sum(len(r) for r in cols), dtype=np.int64)
    return sparse.csr_matrix((data, (np.concatenate(rows), np.concatenate(cols))), shape=(len(check_rows), n))


def check_codeword(h: sparse.csr_matrix, msg: np.ndarray, codeword: np.ndarray) -> None:
    require(codeword.shape == (h.shape[1],), f"codeword length {codeword.shape} != {h.shape[1]}")
    require(np.array_equal(codeword[: len(msg)], msg), "codeword is not systematic in the message")
    parity = (h @ codeword.astype(np.int64)) % 2
    require(not parity.any(), f"{int(parity.sum())} parity checks unsatisfied")


def check_encode(graph, bpsk: np.ndarray, row_sums: np.ndarray) -> None:
    g = sparse.csr_matrix((graph.weights, graph.indices, graph.indptr), shape=(graph.m, graph.k))
    resid = float(np.max(np.abs(row_sums - g @ bpsk)))
    require(resid <= 1e-12, f"encode deviates from the CSR product by {resid:.3e}")


def check_noise(noise: np.ndarray, sigma2: float) -> None:
    """Sum of squared zero-mean noise over sigma2 is chi-square with len(noise) dof."""
    n = len(noise)
    stat = float(np.sum(noise * noise)) / sigma2
    lo = special.chdtri(n, 1.0 - NOISE_ALPHA / 2)
    hi = special.chdtri(n, NOISE_ALPHA / 2)
    require(lo <= stat <= hi, f"noise energy {stat:.1f} outside chi-square({n}) bounds [{lo:.1f}, {hi:.1f}]")


def check_decode(llr: np.ndarray, iterations: int, max_iters: int) -> None:
    require(bool(np.all(np.isfinite(llr))), "non-finite LLRs")
    require(1 <= iterations <= max_iters, f"iterations {iterations} outside [1, {max_iters}]")


# -- the C6 error-floor properties ------------------------------------------


def _binom_sf(x: int, n: int, p: float) -> float:
    """P(Bin(n, p) >= x)."""
    return 1.0 if x <= 0 else float(special.bdtrc(x - 1, n, p))


def _poisson_sf(x: int, mean: float) -> float:
    """P(Poisson(mean) >= x)."""
    return 1.0 if x <= 0 else float(special.pdtrc(x - 1, mean))


def ratio_at_most(errors_a: int, bits_a: int, errors_b: int, bits_b: int, ratio: float) -> bool:
    """Counts consistent with BER_a <= ratio * BER_b.

    Given the total, errors_a is binomial with success probability at most
    p0 = ratio * bits_a / (ratio * bits_a + bits_b) under the property; it
    fails only when errors_a is improbably large for p0.
    """
    total = errors_a + errors_b
    if total == 0:
        return True
    p0 = ratio * bits_a / (ratio * bits_a + bits_b)
    return _binom_sf(errors_a, total, p0) >= ALPHA


def within_factor(errors: int, bits: int, ber: float, factor: float) -> bool:
    """Counts consistent with ber / factor <= BER <= ber * factor (Poisson)."""
    lo = bits * ber / factor
    hi = bits * ber * factor
    too_few = special.pdtr(errors, lo) < ALPHA
    too_many = _poisson_sf(errors, hi) < ALPHA
    return not (too_few or too_many)


def check_floor_sweep(points: dict, k_msg: dict, degree: int) -> None:
    """C6: uniform sits on the e^-alpha floor, min-degree removes it, precoding helps.

    ``points`` and ``k_msg`` map each variant to its sweep points and message
    length; alpha = N * d / k is the average variable degree.
    """
    for uni, mind in zip(points["uniform"], points["min-degree"]):
        floor = math.exp(-uni.n_symbols * degree / k_msg["uniform"])
        bits_u = uni.trials * k_msg["uniform"]
        bits_m = mind.trials * k_msg["min-degree"]
        require(
            within_factor(uni.bit_errors, bits_u, floor, 3.0),
            f"uniform {uni.bit_errors} errors in {bits_u} bits not within 3x of e^-alpha {floor:.3e}",
        )
        require(
            ratio_at_most(mind.bit_errors, bits_m, uni.bit_errors, bits_u, 0.1),
            f"min-degree {mind.bit_errors} errors not <= uniform {uni.bit_errors} / 10",
        )
    pre = points["min-degree+precode"][-1]
    mind = points["min-degree"][-1]
    bits_p = pre.trials * k_msg["min-degree+precode"]
    bits_m = mind.trials * k_msg["min-degree"]
    require(
        ratio_at_most(pre.bit_errors, bits_p, mind.bit_errors, bits_m, 1.0),
        f"precoded {pre.bit_errors} errors worse than min-degree {mind.bit_errors}",
    )


# -- weight-set certification ------------------------------------------------


def zero_sum_exists(weights) -> bool:
    """True when some non-zero coefficient vector in {-1,0,1}^n sums to zero.

    Counts coefficient vectors per attainable sum by dynamic programming; the
    all-zero vector accounts for one way to reach 0.
    """
    ways = {Fraction(0): 1}
    for w in weights:
        nxt: dict = {}
        for s, c in ways.items():
            for t in (s - w, s, s + w):
                nxt[t] = nxt.get(t, 0) + c
        ways = nxt
    return ways.get(Fraction(0), 0) > 1


def unique_fraction(weights) -> Fraction:
    """Share of the 2^l sign vectors whose signed sum no other vector attains."""
    counts: dict = {}
    for signs in product((1, -1), repeat=len(weights)):
        s = sum(Fraction(b) * w for b, w in zip(signs, weights))
        counts[s] = counts.get(s, 0) + 1
    return Fraction(sum(1 for c in counts.values() if c == 1), 2 ** len(weights))


def check_witness(check, values) -> None:
    """A failing verdict must carry a signed sub-selection that sums to zero."""
    if check.ok:
        return
    require(check.witness is not None and len(check.witness) > 0, "failing verdict without witness")
    total = sum(Fraction(c) * Fraction(v) for c, v in check.witness)
    require(total == 0, f"witness sums to {total}, not zero")
    pool = [Fraction(v) for v in values]
    for _, v in check.witness:
        require(Fraction(v) in pool, f"witness value {v} not in the weights")
        pool.remove(Fraction(v))


def gaussian_bin_mass(i: int, delta: float) -> float:
    return 0.5 * (math.erfc((i - 1) * delta / math.sqrt(2.0)) - math.erfc(i * delta / math.sqrt(2.0)))


def check_shaping(report, delta: float, eps: float, n_samples: int, q_floor: float = 1e-6) -> None:
    require(report.n_samples == n_samples, f"report covers {report.n_samples} samples, not {n_samples}")
    expected_bins = 0
    while gaussian_bin_mass(expected_bins + 1, delta) >= q_floor:
        expected_bins += 1
    require(len(report.bins) == expected_bins, f"{len(report.bins)} bins, expected {expected_bins}")
    all_ok = True
    mass = 0.0
    for i, b in enumerate(report.bins, start=1):
        q = gaussian_bin_mass(i, delta)
        require(abs(b.q_ref - q) <= 1e-12, f"bin {i}: q_ref {b.q_ref!r} != Gaussian mass {q!r}")
        count = b.p_hat * n_samples
        require(abs(count - round(count)) <= 1e-6 * max(1.0, count), f"bin {i}: p_hat is not a sample share")
        mass += b.p_hat
        tol = math.sqrt(eps) + 3.0 * math.sqrt(q * (1.0 - q) / n_samples)
        all_ok = all_ok and (b.p_hat - q) ** 2 <= tol * tol
    require(mass <= 1.0 + 1e-9, f"bin shares sum to {mass}")
    require(report.satisfied == all_ok, f"satisfied={report.satisfied} but the bins say {all_ok}")
