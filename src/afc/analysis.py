"""Closed-form analysis behind weight-set design.

Covers four related questions about a weight set W = {a_1..a_f} used to form
real-valued coded symbols sum_j b_j w_j with b_j in {-1,+1}:

* how likely a competitor message beats the transmitted one in Euclidean
  distance over AWGN (``pairwise_error_prob``),
* whether any signed sub-selection of weights can sum to zero, the algebraic
  condition that makes a single row pin all of its neighbors
  (``check_nonzero_condition``),
* the probability that the signed binary equation sum b_i w_i = u fails to
  have a unique solution, computed both by a closed-form recursion
  (``ambiguity_recursion``) and by exhaustive counting
  (``unique_solution_oracle``), exactly in rational arithmetic,
* how close the coded-symbol distribution is to a Gaussian, bin by bin
  (``gaussian_fit_check``), plus a search loop that proposes candidate sets
  until both conditions hold (``search_weight_set``).

Every exhaustive count scales the exact values to integers by the LCM of
their denominators and lists the signed sums in numpy (``_signed_sums``),
at most ``_ENUM_CAP`` vectors per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    FactorGraph,
    WeightAssignment,
    WeightSet,
    _DRAW_BLOCK,
    _assign_weights,
    _draw_members,
    reciprocal_weights,
    weight_second_moment,
)

__all__ = [
    "DegenerateEquationError",
    "EnumerationCapError",
    "WeightSearchError",
    "ConditionCheck",
    "UniqueSolutionReport",
    "ShapingBin",
    "ShapingReport",
    "CandidateFamily",
    "q_function",
    "pairwise_error_prob",
    "difference_projection",
    "check_nonzero_condition",
    "extension_collision_prob",
    "ambiguity_recursion",
    "unique_solution_oracle",
    "unique_solution_fraction",
    "signed_sum_table",
    "gaussian_fit_check",
    "search_weight_set",
    "error_floor_bound",
]

_ENUM_CAP = 2_000_000  # enumerated vectors: 3^n for n <= 13, 2^l for l <= 20
_MAX_BINS = 10_000
_Q_FLOOR = 1e-6  # Gaussian bin mass below which the shaping check stops


class DegenerateEquationError(ValueError):
    """Every sign assignment sums to zero; conditional probabilities undefined."""


class EnumerationCapError(ValueError):
    """Exhaustive enumeration would exceed the configured cap."""


class WeightSearchError(RuntimeError):
    """No candidate weight set passed both design conditions within budget."""

    def __init__(self, message: str, attempts: int) -> None:
        super().__init__(message)
        self.attempts = attempts


def q_function(x):
    """Upper-tail probability of the standard normal, Q(x)."""
    from scipy import special  # loaded on first use: importing the CLI does not load scipy

    arr = np.asarray(x, dtype=np.float64)
    out = 0.5 * special.erfc(arr / math.sqrt(2.0))
    if arr.ndim == 0:
        return float(out)
    return out


def error_floor_bound(alpha: float) -> float:
    """Residual error probability floor exp(-alpha) under uniform selection.

    alpha is the average variable-node degree; exp(-alpha) is the chance a
    variable stays disconnected from every coded symbol.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return math.exp(-alpha)


def pairwise_error_prob(
    graph: FactorGraph,
    b: np.ndarray,
    flip_set: Sequence[int],
    sigma: float,
) -> float:
    """Probability that flipping ``flip_set`` bits of b yields a closer competitor.

    Equals Q(sqrt(sum_i (sum_{j in flips} b_j g_ij)^2) / sigma): the noise must
    project far enough along the difference direction between the two
    candidate codewords.
    """
    t = difference_projection(graph, b, flip_set)
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be finite and positive")
    if graph.m == 0:
        return 0.5
    return q_function(math.sqrt(float(np.dot(t, t))) / sigma)


def difference_projection(graph: FactorGraph, b: np.ndarray, flip_set: Sequence[int]) -> np.ndarray:
    """Per-row t_i = sum_{j in flips} b_j g_ij: half the difference between the
    row sums of b and of b with ``flip_set`` flipped. Noise n favors the
    competitor exactly when n . t < -t . t, as likely as n . t > t . t."""
    flips = np.unique(np.asarray(flip_set, dtype=np.int64))
    if flips.size == 0:
        raise ValueError("flip set must be non-empty")
    if flips.min() < 0 or flips.max() >= graph.k:
        raise ValueError("flip index out of range")
    b = np.asarray(b, dtype=np.float64)
    mask = np.zeros(graph.k)
    mask[flips] = 1.0
    return graph.row_sums(graph.weights * b[graph.indices] * mask[graph.indices])


# ---------------------------------------------------------------------------
# exact signed-sum machinery
# ---------------------------------------------------------------------------


def _to_exact(values: Sequence) -> tuple[Fraction, ...]:
    """``values`` as Fractions: Fractions, integers and integer-valued floats.

    Any other value raises ValueError. A float such as 0.1 is a binary
    rational near the one meant, and zero tests on it certify that other
    number, so the caller must pass the rational itself.
    """
    out = []
    for v in values:
        if isinstance(v, Fraction):
            out.append(v)
        elif isinstance(v, (int, np.integer)):
            out.append(Fraction(int(v)))
        elif isinstance(v, float) and v.is_integer():
            out.append(Fraction(int(v)))
        else:
            raise ValueError(f"{v!r} is not an exact rational; pass a Fraction or an integer")
    return tuple(out)


def _exact_probs(ws: WeightSet) -> tuple[Fraction, ...]:
    if ws.uniform:
        return tuple(Fraction(1, ws.f) for _ in range(ws.f))
    return tuple(Fraction(p) for p in ws.probs)


def _check_size(n: int, digits: int) -> None:
    """Refuse an empty enumeration and one of more than ``_ENUM_CAP`` vectors."""
    if n == 0:
        raise ValueError("need at least one weight")
    if digits**n > _ENUM_CAP:
        raise EnumerationCapError(f"{digits}^{n} vectors exceed the enumeration cap of {_ENUM_CAP}")


def _scaled(*groups: Sequence) -> tuple[list[list[int]], int, type]:
    """Every group's exact values as integers over one scale, the scale, and a dtype.

    The scale is the LCM of all the denominators. The dtype is int64 when
    each group's magnitudes sum below 2^63, so no signed sum of a group
    overflows, and object (Python ints) otherwise.
    """
    exact = [_to_exact(g) for g in groups]
    scale = math.lcm(*(v.denominator for g in exact for v in g))
    ints = [[v.numerator * (scale // v.denominator) for v in g] for g in exact]
    dtype = np.int64 if all(sum(map(abs, g)) < 2**63 for g in ints) else object
    return ints, scale, dtype


def _signed_sums(ints: Sequence[int], digits: Sequence[int], dtype) -> np.ndarray:
    """sum_i c_i * ints[i] for every c in digits^n, in the order of
    ``itertools.product(digits, repeat=n)``."""
    sums = np.zeros(1, dtype=dtype)
    for a in ints:
        sums = (sums[:, None] + np.array([c * a for c in digits], dtype=dtype)).ravel()
    return sums


def _sign_sums(weights: Sequence, *others: Sequence) -> tuple[np.ndarray, list[list[int]], int]:
    """sum_i b_i w_i for every b in {1, -1}^l as scaled integers, ``others``
    on the same scale, and the scale."""
    _check_size(len(weights), 2)
    (ints, *rest), scale, dtype = _scaled(weights, *others)
    return _signed_sums(ints, (1, -1), dtype), rest, scale


def signed_sum_table(weights: Sequence) -> dict:
    """Multiplicity of every attainable value of sum_i b_i w_i over b in {-1,1}^l,
    keyed by exact Fractions; at most 20 weights."""
    sums, _, scale = _sign_sums(weights)
    values, counts = np.unique(sums, return_counts=True)
    return {Fraction(int(v), scale): int(c) for v, c in zip(values, counts)}


def unique_solution_oracle(weights: Sequence, u) -> int:
    """Exhaustive count of sign vectors b with sum_i b_i w_i == u."""
    sums, [[target]], _ = _sign_sums(weights, [u])
    return int(np.count_nonzero(sums == target))


def unique_solution_fraction(weights: Sequence) -> Fraction:
    """Fraction of sign vectors whose sum identifies them uniquely."""
    sums, _, _ = _sign_sums(weights)
    _, counts = np.unique(sums, return_counts=True)
    return Fraction(int(np.count_nonzero(counts == 1)), len(sums))


# ---------------------------------------------------------------------------
# zero-sum condition
# ---------------------------------------------------------------------------


class ConditionCheck(NamedTuple):
    ok: bool
    witness: tuple[tuple[int, object], ...] | None

    def __bool__(self) -> bool:  # allows `if check_nonzero_condition(...):`
        return self.ok


_ENUM_SUFFIX = 8  # trailing digits tabulated once: 3^8 columns
_ENUM_BLOCK = 1 << 18  # sums held at once


def _enumerate_coefficients(values: Sequence, max_nonzero: int) -> ConditionCheck:
    """First coefficient vector c in {-1, 0, 1}^n, lexicographic order, with 1
    to ``max_nonzero`` nonzero entries and sum c_i v_i == 0.

    Sums are taken as a block of leading-digit sums plus a table of the
    trailing digits' sums, so the first zero in row-major order is the first
    in lexicographic order.
    """
    n = len(values)
    _check_size(n, 3)
    values = _to_exact(values)
    (ints,), _, dtype = _scaled(values)
    split = max(0, n - _ENUM_SUFFIX)
    halves = (ints[:split], ints[split:])
    pre_sums, suf_sums = (_signed_sums(h, (-1, 0, 1), dtype) for h in halves)
    pre_nnz, suf_nnz = (_signed_sums([1] * len(h), (1, 0, 1), np.int64) for h in halves)
    cols = len(suf_sums)
    step = max(1, _ENUM_BLOCK // cols)
    for lo in range(0, len(pre_sums), step):
        zero = np.flatnonzero(pre_sums[lo : lo + step, None] + suf_sums == 0)
        nnz = pre_nnz[lo + zero // cols] + suf_nnz[zero % cols]
        hits = zero[(nnz >= 1) & (nnz <= max_nonzero)]
        if len(hits):
            rank = lo * cols + int(hits[0])
            digits = [rank // 3 ** (n - 1 - i) % 3 - 1 for i in range(n)]
            witness = tuple((c, v) for c, v in zip(digits, values) if c)
            return ConditionCheck(False, witness)
    return ConditionCheck(True, None)


def check_nonzero_condition(
    weights,
    d: int | None = None,
    assignment: WeightAssignment = WeightAssignment.WITHOUT_REPLACEMENT,
) -> ConditionCheck:
    """Certify that no signed sub-selection of row weights sums to zero.

    Accepts either a WeightSet (rows of degree ``d``, f by default, drawn
    under ``assignment``) or an explicit row template of signed weights,
    possibly with repeats. A (set, d, assignment) the encoder refuses to
    build raises InvalidConfigurationError, a ValueError; with replacement
    any d >= 2 fails, since a row may repeat a member. An empty template
    raises ValueError. Returns the first violating signed assignment, in the
    lexicographic order of coefficient vectors over {-1, 0, 1}, when one exists.
    The check runs in exact rational arithmetic: weights must be Fractions,
    integers or integer-valued floats (a set's ``exact`` values when it has
    them), and any other value raises ValueError.
    """
    if isinstance(weights, WeightSet):
        ws = weights
        d = ws.f if d is None else d
        assignment.check_degrees([d], ws.f)
        if assignment is WeightAssignment.WITH_REPLACEMENT and d >= 2:
            w0 = _to_exact(ws.exact or ws.values)[0]
            return ConditionCheck(False, ((1, w0), (-1, w0)))
        return _enumerate_coefficients(ws.exact or ws.values, d)

    template = list(weights)
    if d is not None and d != len(template):
        raise ValueError("row template length must equal its degree")
    return _enumerate_coefficients(template, len(template))


# ---------------------------------------------------------------------------
# unique-solution probability
# ---------------------------------------------------------------------------


def extension_collision_prob(weights: Sequence, ws: WeightSet):
    """Probability that appending one more set member breaks uniqueness.

    For fixed equation weights w_1..w_l and a fresh weight drawn from ``ws``,
    the appended equation loses uniqueness exactly when the new member
    collides with the magnitude of the running signed sum (and the new sign
    flips it to zero, hence the factor 1/2). The magnitude distribution is
    conditioned on the sum being non-zero.
    """
    if len(weights) < 2:
        raise ValueError("need at least two equation weights")
    sums, [members], _ = _sign_sums(weights, ws.exact or ws.values)
    magnitudes = np.abs(sums)
    nonzero = int(np.count_nonzero(magnitudes))
    if nonzero == 0:
        raise DegenerateEquationError("every sign assignment sums to zero")
    acc = sum(
        q * Fraction(int(np.count_nonzero(magnitudes == a)), nonzero)
        for q, a in zip(_exact_probs(ws), members)
    )
    return acc / 2


@dataclass(frozen=True)
class UniqueSolutionReport:
    """Trace of the non-uniqueness recursion up to equation size l."""

    l: int
    e_l: object
    E_trace: tuple
    e_trace: tuple

    @property
    def unique_fraction(self):
        return 1 - self.e_l


def ambiguity_recursion(weights: Sequence, l_max: int, ws: WeightSet | None = None) -> UniqueSolutionReport:
    """Non-uniqueness probability e_l of sum_{i<=l} b_i w_i = u, built recursively.

    Base case: e_2 = 1/2 if the first two weights are equal, else 0. Each
    growth step multiplies the survival probability by (1 - E) where E is the
    collision probability of the appended weight. With ``ws`` given, E
    averages the appended weight over the set (the ensemble the weights were
    drawn from); otherwise the realized weights[l] is used, which reproduces
    the exhaustive per-tuple count for generic tuples.
    """
    if l_max < 2:
        raise ValueError("l_max must be >= 2")
    if len(weights) < l_max:
        raise ValueError("need l_max weights")
    _check_size(l_max - 1, 2)  # the last step enumerates l_max - 1 weights
    vals = _to_exact(weights[:l_max])
    e = Fraction(1, 2) if vals[0] == vals[1] else Fraction(0)
    e_trace = [e]
    E_trace = []
    for l in range(2, l_max):
        step_ws = ws if ws is not None else WeightSet.uniform_exact((vals[l],))
        E = extension_collision_prob(vals[:l], step_ws)
        e = 1 - (1 - E) * (1 - e)
        E_trace.append(E)
        e_trace.append(e)
    return UniqueSolutionReport(l=l_max, e_l=e, E_trace=tuple(E_trace), e_trace=tuple(e_trace))


# ---------------------------------------------------------------------------
# Gaussian shaping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapingBin:
    index: int
    p_hat: float
    q_ref: float
    gap_sq: float
    tol_sq: float

    @property
    def ok(self) -> bool:
        return self.gap_sq <= self.tol_sq


@dataclass(frozen=True)
class ShapingReport:
    """Per-bin comparison of the standardized coded-symbol law to the Gaussian."""

    delta: float
    eps: float
    n_samples: int
    bins: tuple[ShapingBin, ...]
    satisfied: bool

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bin_index,p_hat,q_ref,gap_sq\n")
            for b in self.bins:
                fh.write(f"{b.index},{b.p_hat!r},{b.q_ref!r},{b.gap_sq!r}\n")


def _sample_symbol_sums(
    ws: WeightSet,
    d: int,
    count: int,
    assignment: WeightAssignment,
    rng: np.random.Generator,
) -> np.ndarray:
    if assignment is WeightAssignment.BALANCED_PERMUTATION or (
        assignment is WeightAssignment.WITHOUT_REPLACEMENT and d == ws.f
    ):
        # every row carries all f values; only the signs matter for the sum
        signs = rng.integers(0, 2, size=(count, d)).astype(np.float64) * 2.0 - 1.0
        return signs @ ws.as_array()
    if assignment is WeightAssignment.WITH_REPLACEMENT:
        # the encoder's member draw, then the same sign draw as below: sign
        # bit b and member i pick the signed value at b * f + i, (2b - 1) * v_i.
        # The signs are drawn a block of rows at a time, after every member:
        # each draw of range 2 takes one 32-bit word and PCG64 keeps the spare
        # half-word between calls, so the blocks give the bits of one draw,
        # and each row is still one length-d sum
        members = _draw_members(ws.probs, count * d, rng)
        signed = np.concatenate((-ws.as_array(), ws.as_array()))
        out = np.empty(count)
        step = max(1, _DRAW_BLOCK // d)
        for s in range(0, count, step):
            e = min(s + step, count)
            picks = rng.integers(0, 2, size=(e - s) * d)
            picks *= ws.f
            picks += members[s * d : e * d]
            out[s:e] = signed.take(picks).reshape(e - s, d).sum(axis=1)
        return out
    if assignment is WeightAssignment.WITHOUT_REPLACEMENT and not ws.uniform:
        # the encoder draws these row by row in Python, too slow for millions of rows
        raise ValueError("non-uniform draw without replacement is not supported here")
    rows = _assign_weights(ws, np.broadcast_to(d, count), assignment, rng).reshape(count, d)
    signs = rng.integers(0, 2, size=(count, d)).astype(np.float64) * 2.0 - 1.0
    return (rows * signs).sum(axis=1)


def _check_shaping_parameters(delta: float, eps: float, n_samples: int, q_floor: float) -> None:
    if not (math.isfinite(delta) and delta > 0 and math.isfinite(eps) and eps > 0):
        raise ValueError("delta and eps must be finite and positive")
    if not 0 < q_floor < 0.5:  # the first bin holds at most 0.5
        raise ValueError("q_floor must lie in (0, 0.5)")
    if n_samples < 1:
        raise ValueError("need at least one sample")


def gaussian_fit_check(
    ws: WeightSet,
    d: int,
    delta: float,
    eps: float,
    n_samples: int,
    rng: np.random.Generator,
    assignment: WeightAssignment = WeightAssignment.WITH_REPLACEMENT,
    q_floor: float = _Q_FLOOR,
) -> ShapingReport:
    """Monte Carlo bin-by-bin Gaussian fit of the standardized symbol sum.

    The signed sum is divided by sqrt(d * E[w^2]) before binning so its
    variance is 1; bin i covers [(i-1)*delta, i*delta) and is compared to the
    Gaussian mass Q((i-1)*delta) - Q(i*delta). Bins are evaluated until the
    Gaussian mass drops below ``q_floor``, which must lie in (0, 0.5); more
    than 10000 such bins raise ValueError. A bin passes when
    |p_hat - q| <= sqrt(eps) + 3 binomial sigma, and the report is satisfied
    when at least one bin was compared and every bin passes.

    The default draws each of the d signed weights i.i.d. from the set, the
    same model under which the symbol variance d * E[w^2] is derived. Forcing
    all d = f members into every row (without replacement at d = f, or the
    balanced permutation, which differs only in where the members go)
    concentrates the sum on 2^f atoms and measurably worsens the Gaussian
    fit. A (set, d, assignment) the encoder refuses to build raises
    InvalidConfigurationError, a ValueError, before any sampling.
    """
    assignment.check_degrees([d], ws.f)
    _check_shaping_parameters(delta, eps, n_samples, q_floor)
    scale = math.sqrt(d * weight_second_moment(ws))
    q_refs = []
    for i in range(1, _MAX_BINS + 2):
        q_i = q_function((i - 1) * delta) - q_function(i * delta)
        if q_i < q_floor:
            break
        q_refs.append(q_i)
    if len(q_refs) > _MAX_BINS:
        raise ValueError(f"delta {delta} and q_floor {q_floor} ask for more than {_MAX_BINS} bins")
    edges = np.arange(len(q_refs) + 1) * delta
    counts = np.zeros(len(q_refs), dtype=np.int64)
    remaining = n_samples
    chunk = 1_000_000
    while remaining > 0:
        take = min(chunk, remaining)
        sums = _sample_symbol_sums(ws, d, take, assignment, rng) / scale
        counts += np.histogram(sums, bins=edges)[0]
        remaining -= take
    bins = []
    all_ok = True
    for idx, (cnt, q_i) in enumerate(zip(counts, q_refs), start=1):
        p_hat = cnt / n_samples
        sigma_bin = math.sqrt(q_i * (1.0 - q_i) / n_samples)
        tol = math.sqrt(eps) + 3.0 * sigma_bin
        rec = ShapingBin(
            index=idx,
            p_hat=float(p_hat),
            q_ref=float(q_i),
            gap_sq=float((p_hat - q_i) ** 2),
            tol_sq=float(tol * tol),
        )
        all_ok = all_ok and rec.ok
        bins.append(rec)
    return ShapingReport(
        delta=delta,
        eps=eps,
        n_samples=n_samples,
        bins=tuple(bins),
        satisfied=bool(bins) and all_ok,  # no bin compared is no evidence of fit
    )


# ---------------------------------------------------------------------------
# weight-set search
# ---------------------------------------------------------------------------


class CandidateFamily(Enum):
    RECIPROCAL_PRIMES = "reciprocal-primes"
    RECIPROCAL_INTEGERS = "reciprocal-integers"
    RANDOM_RATIONAL = "random-rational"


def _primes(count: int) -> list[int]:
    out: list[int] = []
    n = 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


def _propose(family: CandidateFamily, f: int, attempt: int, rng: np.random.Generator) -> WeightSet:
    if family is CandidateFamily.RECIPROCAL_PRIMES:
        primes = _primes(f + attempt)
        return reciprocal_weights(primes[attempt : attempt + f])
    if family is CandidateFamily.RECIPROCAL_INTEGERS:
        dens = rng.choice(np.arange(2, 121), size=f, replace=False)
        return reciprocal_weights(sorted(int(x) for x in dens))
    nums = rng.integers(1, 25, size=f)
    dens = rng.integers(2, 49, size=f)
    fracs = []
    for a, b in zip(nums, dens):
        fr = Fraction(int(a), int(b))
        if fr not in fracs:
            fracs.append(fr)
    while len(fracs) < f:
        fr = Fraction(int(rng.integers(1, 25)), int(rng.integers(2, 49)))
        if fr not in fracs:
            fracs.append(fr)
    fracs.sort(reverse=True)
    return WeightSet.uniform_exact(fracs)


def search_weight_set(
    f: int,
    d: int,
    delta: float,
    eps: float,
    family: CandidateFamily,
    rng: np.random.Generator,
    budget: int = 64,
    n_samples: int = 2_000_000,
) -> WeightSet:
    """Propose candidate sets until one passes both design conditions.

    The zero-sum condition is checked under the encoder's draw policy
    (distinct members per row); the Gaussian fit under the i.i.d. model the
    shaping analysis assumes. Deterministic for a fixed generator state.
    Refuses, before any proposal, a budget below one proposal, a degree the
    set cannot serve without replacement and any parameter
    ``gaussian_fit_check`` refuses. Raises WeightSearchError once the
    proposal budget is exhausted.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1 proposal, got {budget}")
    WeightAssignment.WITHOUT_REPLACEMENT.check_degrees([d], f)  # also refuses f < 1
    _check_shaping_parameters(delta, eps, n_samples, _Q_FLOOR)
    for attempt in range(budget):
        candidate = _propose(family, f, attempt, rng)
        if not check_nonzero_condition(candidate, d).ok:
            continue
        if gaussian_fit_check(candidate, d, delta, eps, n_samples, rng).satisfied:
            return candidate
    raise WeightSearchError(
        f"no weight set with f={f}, d={d} passed both conditions in {budget} proposals",
        attempts=budget,
    )
