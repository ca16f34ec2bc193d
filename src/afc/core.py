"""Core codec types and the weighted sparse encoder.

A coded symbol is a real-valued weighted sum of BPSK information symbols:
row i of the sparse generator holds d variable indices and real weights, and
c_i = sum_j g_ij * b_j. Row degrees come from a degree distribution, weights
from a finite positive weight set, and variable selection is either uniform
or min-degree-first (max - min variable degree <= 1 after every row).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "InvalidConfigurationError",
    "WeightSet",
    "DegreeDistribution",
    "Selection",
    "WeightAssignment",
    "EncoderPolicy",
    "FactorGraph",
    "reciprocal_weights",
    "reciprocal_prime_weights",
    "zero_sum_row_template",
    "bits_to_bpsk",
    "sample_degrees",
    "build_graph",
    "encode",
    "weight_second_moment",
    "row_power",
    "power_scale",
]

_PROB_TOL = 1e-12
# draws per streamed block: 512 KB of float64 uniforms, which fits in one
# core's L2 cache
_DRAW_BLOCK = 2**16


class InvalidConfigurationError(ValueError):
    """Requested encoder configuration cannot produce a valid graph."""


@dataclass(frozen=True)
class WeightSet:
    """Finite set of positive real weights with selection probabilities.

    ``exact`` optionally carries the same values as rationals so analysis
    routines can operate without floating-point zero tests.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]
    exact: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("weight set needs at least one member")
        if len(self.values) != len(self.probs):
            raise ValueError("values and probs length mismatch")
        if not all(0 < v < np.inf for v in self.values):
            raise ValueError("weights must be finite and strictly positive")
        if len(set(self.values)) != len(self.values):
            raise ValueError("weights must be pairwise distinct")
        if not all(0 <= p <= 1 for p in self.probs):
            raise ValueError("selection probabilities must lie in [0, 1]")
        if abs(sum(self.probs) - 1.0) > _PROB_TOL:
            raise ValueError("selection probabilities must sum to 1")
        if self.exact is not None:
            if len(self.exact) != len(self.values):
                raise ValueError("exact values length mismatch")
            if any(float(e) != v for e, v in zip(self.exact, self.values)):
                raise ValueError("exact values disagree with float values")

    @property
    def f(self) -> int:
        return len(self.values)

    @property
    def uniform(self) -> bool:
        return all(abs(p - 1.0 / self.f) <= _PROB_TOL for p in self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    @classmethod
    def uniform_exact(cls, fractions: Sequence[Fraction]) -> "WeightSet":
        """Uniform set over the given rationals, carried as ``exact`` too."""
        exact = tuple(fractions)
        return cls(
            values=tuple(float(e) for e in exact),
            probs=tuple(1.0 / len(exact) for _ in exact),
            exact=exact,
        )


def reciprocal_weights(denominators: Sequence[int]) -> WeightSet:
    """Uniform weight set {1/n : n in denominators}, kept exact."""
    return WeightSet.uniform_exact(Fraction(1, int(n)) for n in denominators)


def reciprocal_prime_weights() -> WeightSet:
    """The designed 8-member set: reciprocals of the first eight primes."""
    return reciprocal_weights([2, 3, 5, 7, 11, 13, 17, 19])


def zero_sum_row_template() -> tuple[float, ...]:
    """Signed degree-8 row template whose full-row sum is zero.

    Baseline from earlier fixed-weight schemes: two each of +/-4 plus
    -2, -1, 1, 2. Every row built from it sums to zero over all-equal
    inputs, which is exactly the ambiguity the positive weight sets are
    designed to rule out.
    """
    return (-4.0, -4.0, -2.0, -1.0, 1.0, 2.0, 4.0, 4.0)


@dataclass(frozen=True)
class DegreeDistribution:
    """Row-degree distribution; omega[i] is the probability of degree i+1."""

    omega: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.omega) < 1:
            raise ValueError("degree distribution needs at least degree 1")
        if not all(0 <= p <= 1 for p in self.omega):
            raise ValueError("degree probabilities must lie in [0, 1]")
        if abs(sum(self.omega) - 1.0) > _PROB_TOL:
            raise ValueError("degree probabilities must sum to 1")

    @staticmethod
    def fixed(d: int) -> "DegreeDistribution":
        """Point mass on a single degree d."""
        if d < 1:
            raise ValueError("degree must be >= 1")
        return DegreeDistribution(tuple([0.0] * (d - 1) + [1.0]))

    @property
    def max_degree(self) -> int:
        return len(self.omega)

    @property
    def mu(self) -> float:
        """Average row degree."""
        return float(sum((d + 1) * p for d, p in enumerate(self.omega)))


class Selection(Enum):
    UNIFORM_RANDOM = "uniform"
    MIN_DEGREE_FIRST = "min-degree"


class WeightAssignment(Enum):
    WITH_REPLACEMENT = "with-replacement"
    WITHOUT_REPLACEMENT = "without-replacement"
    # Permutation chosen degree-aware: within each row the largest remaining
    # magnitudes go to the variables with the least accumulated weight power,
    # so no variable ends up observed only through the small set members.
    BALANCED_PERMUTATION = "balanced-permutation"

    def check_degrees(self, degrees: Iterable[int], ws: WeightSet | int) -> None:
        """Refuse any row degree this assignment cannot fill from ``ws``, a set
        or the size f of a set with no member of probability 0: with
        replacement any d >= 1, without replacement d up to the members of
        nonzero probability, and the balanced permutation, which puts each
        member in every row, d == f."""
        f, live = (ws.f, np.count_nonzero(ws.probs)) if isinstance(ws, WeightSet) else (ws, ws)
        for d in degrees:
            if d < 1:
                raise InvalidConfigurationError(f"row degree must be >= 1, got {d}")
            if self is WeightAssignment.WITHOUT_REPLACEMENT and d > f:
                raise InvalidConfigurationError(f"degree {d} exceeds weight set size {f} for draw without replacement")
            if self is WeightAssignment.WITHOUT_REPLACEMENT and d > live:
                raise InvalidConfigurationError(f"degree {d} exceeds the {live} members of nonzero probability")
            if self is WeightAssignment.BALANCED_PERMUTATION and d != f:
                raise InvalidConfigurationError(f"{self.value} assignment needs degree == weight set size {f}, got {d}")


@dataclass(frozen=True)
class EncoderPolicy:
    """How rows pick their variables and weights."""

    selection: Selection = Selection.MIN_DEGREE_FIRST
    weight_assignment: WeightAssignment = WeightAssignment.WITHOUT_REPLACEMENT


@dataclass(frozen=True)
class FactorGraph:
    """Immutable sparse generator in CSR-like form.

    Row i covers variables ``indices[indptr[i]:indptr[i+1]]`` with matching
    ``weights``. Arrays are marked read-only so a graph can be shared across
    concurrent decodes.
    """

    k: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.indptr, self.indices, self.weights):
            arr.setflags(write=False)

    @property
    def m(self) -> int:
        """Number of check rows."""
        return len(self.indptr) - 1

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for i in range(self.m):
            yield self.row(i)

    @property
    def var_degrees(self) -> np.ndarray:
        return np.bincount(self.indices, minlength=self.k)

    def row_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_sums(self, edge_values: np.ndarray) -> np.ndarray:
        """Per-row sums of values given per edge; an empty row sums to 0."""
        out = np.zeros(self.m)
        starts = self.indptr[:-1]
        full = self.indptr[1:] > starts
        if full.any():  # reduceat would give an empty row the next row's first value
            out[full] = np.add.reduceat(edge_values, starts[full])
        return out

    def dense(self) -> np.ndarray:
        """Dense m-by-k generator matrix (small instances only)."""
        g = np.zeros((self.m, self.k))
        for i in range(self.m):
            idx, w = self.row(i)
            g[i, idx] = w
        return g


def bits_to_bpsk(bits: np.ndarray) -> np.ndarray:
    """Map bit 0 -> +1, bit 1 -> -1 (unit energy)."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def sample_degrees(dist: DegreeDistribution, size: int, rng: np.random.Generator) -> np.ndarray:
    return rng.choice(dist.max_degree, size=size, p=dist.omega).astype(np.int64) + 1


def _select_uniform(k: int, degrees: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Distinct uniform variable picks per row; flat array aligned with degrees.

    Sparse rows (d_max(d_max - 1) <= k/2) are drawn d_max wide with replacement
    and keep their first d_r columns; a row that repeats a variable there is
    redrawn whole, so it follows the without-replacement law. Denser rows take
    the first d_r of a ``_race`` over the k variables: k < 2 d_max^2 keys a row.
    """
    width = int(degrees.max())
    if width * (width - 1) > k // 2:
        return _race(k, degrees, rng).astype(np.int64)
    cols = np.arange(width)
    live = cols < degrees[:, None]
    picks = rng.integers(0, k, size=(len(degrees), width), dtype=np.int64)
    redo, block = np.arange(len(degrees)), picks
    while len(redo):  # padded columns read as distinct negatives, so only live columns can repeat
        srt = np.sort(np.where(live[redo], block, -1 - cols), axis=1)
        redo = redo[(srt[:, 1:] == srt[:, :-1]).any(axis=1)]
        block = picks[redo] = rng.integers(0, k, size=(len(redo), width), dtype=np.int64)
    return _leading(picks, degrees).ravel()


_UNIFORM_BLOCK = 4096


def _select_min_degree(k: int, degrees: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Min-degree-first picks: a row takes its variables uniformly from the
    lowest-degree bucket, and all of it plus the rest from the bucket one
    above when it runs dry, so max-min variable degree stays <= 1 after every
    row. Picks are swap-and-pop driven by uniforms drawn lazily in 4096-blocks;
    each epoch (a run of whole rows the low bucket serves, or one spill row's
    draw from the high one) gets its swap indices from one product. Every
    degree must be <= k, which ``build_graph`` checks.
    """
    low: list[int] = rng.permutation(k).tolist()
    high: list[int] = []
    u, used = rng.random(_UNIFORM_BLOCK), 0

    def pop(pool: list[int], p: int) -> list[int]:
        nonlocal u, used
        while used + p > len(u):  # a block only when picks pass a block edge: later draws depend on it
            u, used = np.concatenate((u[used:], rng.random(_UNIFORM_BLOCK))), 0
        n = len(pool)
        swaps = (u[used : used + p] * (n - np.arange(p))).astype(np.int64).tolist()
        used += p
        for end, j in zip(range(n - 1, n - 1 - p, -1), swaps):
            pool[j], pool[end] = pool[end], pool[j]
        picks = pool[n - p :][::-1]  # in pick order
        del pool[n - p :]
        return picks

    ends = [0, *np.cumsum(degrees).tolist()]
    out: list[int] = []
    row = 0
    while row < len(degrees):
        stop = bisect_right(ends, ends[row] + len(low)) - 1
        if stop > row:  # rows row..stop-1 come whole from low
            picks = pop(low, ends[stop] - ends[row])
            out += picks
            high += picks
            if not low:
                low, high = high, []
            row = stop
        else:  # low runs dry mid-row: promote it whole and spill into high
            spill = pop(high, ends[row + 1] - ends[row] - len(low))
            out += low + spill
            low, high = high + low, spill
            row += 1
    return np.array(out, dtype=np.int64)


def _draw_members(probs: Sequence[float], size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` member indices drawn i.i.d. by ``probs``.

    The same indices as ``rng.choice(len(probs), size, p=probs)``, leaving the
    generator in the same state: the cdf is built as ``choice`` builds it and
    each uniform's index counts the cdf entries at or below it, which is
    ``searchsorted(side='right')`` without the search. The uniforms are drawn
    ``_DRAW_BLOCK`` at a time, which gives the same doubles as one draw of
    ``size``, so only the indices span the whole draw.
    """
    cdf = np.cumsum(np.asarray(probs, dtype=np.float64))
    cdf /= cdf[-1]
    inner = cdf[:-1].tolist()  # the last entry is 1.0, above every uniform
    idx = np.zeros(size, dtype=np.min_scalar_type(len(cdf) - 1))
    below = np.empty(min(size, _DRAW_BLOCK), dtype=bool)
    for s in range(0, size, _DRAW_BLOCK):
        u = rng.random(min(_DRAW_BLOCK, size - s))
        block, hit = idx[s : s + len(u)], below[: len(u)]
        for c in inner:
            np.greater_equal(u, c, out=hit)
            block += hit
    return idx


def _leading(table: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Row r's first ``degrees[r]`` entries: a slice when the rows share one degree, cheaper than a mask."""
    if (degrees == degrees[0]).all():
        return table[:, : degrees[0]]
    return table[np.arange(table.shape[1]) < degrees[:, None]]


def _race(n: int, degrees: np.ndarray, rng: np.random.Generator, probs: np.ndarray | None = None) -> np.ndarray:
    """Each row's first d_r of one exponential race over n candidates, flat
    (Efraimidis & Spirakis): the smallest keys -log(1 - U_i) / p_i, or U_i if
    ``probs`` is None. That is ``rng.choice``'s successive draw without
    replacement; p_i = 0 gives a NaN key, which sorts last. Keys are drawn
    ``_DRAW_BLOCK // n`` rows at a time, the same doubles as one draw."""
    rates = None if probs is None else np.where(probs > 0, -probs, np.nan)
    out = np.empty(int(degrees.sum()), dtype=np.min_scalar_type(n - 1))
    step, pos = max(1, _DRAW_BLOCK // n), 0
    for s in range(0, len(degrees), step):
        rows = degrees[s : s + step]
        keys = rng.random((len(rows), n))
        if rates is not None:
            keys = np.log1p(-keys) / rates
        picks = _leading(np.argsort(keys, axis=1), rows)
        out[pos : pos + picks.size].reshape(picks.shape)[:] = picks
        pos += picks.size
    return out


def _assign_members(
    ws: WeightSet, degrees: np.ndarray, assignment: WeightAssignment, rng: np.random.Generator
) -> np.ndarray:
    """Member indices for a with- or without-replacement policy, flat and
    aligned with ``degrees``, which the caller has checked against the set.
    Without replacement, row r takes the first d_r members of one race over
    the set, so at d == f the likelier members tend to come first."""
    if assignment is WeightAssignment.WITH_REPLACEMENT:
        return _draw_members(ws.probs, int(degrees.sum()), rng)
    return _race(ws.f, degrees, rng, None if ws.uniform else np.asarray(ws.probs))


def _assign_balanced(ws: WeightSet, k: int, indices: np.ndarray) -> np.ndarray:
    """Whole-set row permutations placed so variables collect even weight power.

    Row by row, the weakest variable (least weight power so far, ties to the
    earlier edge) takes the largest magnitude, the next weakest the next, and
    each variable's power grows by its weight squared. The rows are placed
    one run at a time: a run is a maximal stretch of consecutive rows none of
    which shares a variable with an earlier row of the run. Within a run
    each variable gains at most one term, so one stable argsort and one
    scatter give the same comparisons and the same doubles as the row loop.
    Every degree is ``f`` and every row holds distinct variables, as both
    selections guarantee; a repeated variable would lose a term to the
    scatter.
    """
    f = ws.f
    desc = np.sort(ws.as_array())[::-1]
    rows = indices.reshape(-1, f)
    n = len(rows)
    # the last earlier row holding each edge's variable (-1: none): a stable
    # sort keeps each variable's edges in row order
    by_var = np.argsort(indices, kind="stable")
    repeat = indices[by_var[1:]] == indices[by_var[:-1]]
    prev_edge = np.full(len(indices), -1, dtype=np.int64)
    prev_edge[by_var[1:][repeat]] = by_var[:-1][repeat] // f
    prev = prev_edge.reshape(n, f).max(axis=1).tolist()
    starts = [0]
    for r, p in enumerate(prev):
        if p >= starts[-1]:  # row r repeats a variable of the open run
            starts.append(r)
    strength = np.zeros(k)
    out = np.empty((n, f))
    row_ids = np.arange(n)[:, None]
    for s, e in zip(starts, starts[1:] + [n]):
        idx = rows[s:e]
        power = strength[idx]
        order = power.argsort(axis=1, kind="stable")  # weakest variable first
        out[row_ids[s:e], order] = desc  # weakest gets the largest magnitude
        w = out[s:e]
        power += w * w
        strength[idx] = power
    return out.ravel()


def build_graph(
    k: int,
    n_rows: int,
    dist: DegreeDistribution,
    ws: WeightSet,
    policy: EncoderPolicy,
    rng: np.random.Generator,
) -> FactorGraph:
    """Sample a weighted bipartite graph with n_rows check rows over k variables."""
    if n_rows < 1:
        raise InvalidConfigurationError("need at least one row")
    support = [d for d, p in enumerate(dist.omega, start=1) if p > 0]
    if support[-1] > k:
        raise InvalidConfigurationError(f"max degree {support[-1]} exceeds k={k}")
    policy.weight_assignment.check_degrees(support, ws)
    degrees = sample_degrees(dist, n_rows, rng)
    if policy.selection is Selection.MIN_DEGREE_FIRST:
        indices = _select_min_degree(k, degrees, rng)
    else:
        indices = _select_uniform(k, degrees, rng)
    if policy.weight_assignment is WeightAssignment.BALANCED_PERMUTATION:
        weights = _assign_balanced(ws, k, indices)
    else:
        weights = ws.as_array().take(_assign_members(ws, degrees, policy.weight_assignment, rng))
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return FactorGraph(k=k, indptr=indptr, indices=indices, weights=weights)


def encode(graph: FactorGraph, bpsk: np.ndarray) -> np.ndarray:
    """Row sums c_i = sum_j g_ij * b_j. Accepts any real-valued input vector."""
    b = np.asarray(bpsk, dtype=np.float64)
    if b.shape != (graph.k,):
        raise ValueError(f"input length {b.shape} does not match k={graph.k}")
    return graph.row_sums(graph.weights * b[graph.indices])


def weight_second_moment(ws: WeightSet) -> float:
    """E[w^2] under the selection probabilities (signal power per edge)."""
    return float(sum(p * v * v for p, v in zip(ws.probs, ws.values)))


def _inclusion_probs(probs: Sequence[float], d: int) -> np.ndarray:
    """Each member's chance to be among the first d of the exponential race.

    q[S], the chance that the first |S| members drawn are the subset S (bit i
    for member i), is the sum over live i in S of q[S - i] p_i / (1 - p(S - i)),
    taken one subset size at a time up to d. The caller has checked that d
    does not exceed the members of nonzero probability.
    """
    p = np.asarray(probs, dtype=np.float64) / sum(probs)
    f = len(p)
    if f > 20:  # the arrays below hold 2^f entries
        raise InvalidConfigurationError(f"inclusion chances sum over 2^f subsets; f = {f} exceeds 20")
    mass, size = np.zeros(1), np.zeros(1, dtype=np.int64)
    for pi in p:  # subsets in binary order: mass and size of S + i follow those of S
        mass, size = np.concatenate((mass, mass + pi)), np.concatenate((size, size + 1))
    masks, q = np.arange(1 << f), np.zeros(1 << f)
    q[0] = 1.0
    for k in range(1, d + 1):
        layer = masks[size == k]
        for i in np.flatnonzero(p):
            s = layer[layer >> i & 1 == 1]
            t = s ^ (1 << i)
            q[s] += q[t] * (p[i] / (1.0 - mass[t]))
    first = masks[size == d]
    return np.array([q[first[first >> i & 1 == 1]].sum() for i in range(f)])


def row_power(dist: DegreeDistribution, ws: WeightSet, assignment: WeightAssignment) -> float:
    """Mean sum of squared weights in a row: each member's w^2 times its mean
    count in a row. That is mu * E[w^2] for i.i.d. members and for a uniform
    set; the balanced permutation holds every member once, and a row drawn
    without replacement over a non-uniform set holds member i with its
    chance to be among the first d of the race, not d * p_i (refused past
    20 members, since the chances sum over 2^f subsets)."""
    if assignment is WeightAssignment.WITH_REPLACEMENT or ws.uniform:
        return dist.mu * weight_second_moment(ws)
    support = [(d, p) for d, p in enumerate(dist.omega, start=1) if p > 0]
    assignment.check_degrees((d for d, _ in support), ws)
    w2 = np.square(ws.as_array())
    if assignment is WeightAssignment.BALANCED_PERMUTATION:
        return float(w2.sum())
    return float(sum(p * (_inclusion_probs(ws.probs, d) @ w2) for d, p in support))


def power_scale(
    dist: DegreeDistribution,
    ws: WeightSet,
    assignment: WeightAssignment = WeightAssignment.WITH_REPLACEMENT,
) -> float:
    """Scale factor making coded symbols of ``assignment`` unit average power."""
    return 1.0 / np.sqrt(row_power(dist, ws, assignment))
