"""Core codec types and the weighted sparse encoder.

A coded symbol is a real-valued weighted sum of BPSK information symbols:
row i of the sparse generator holds d variable indices and real weights, and
c_i = sum_j g_ij * b_j. Row degrees come from a degree distribution, weights
from a finite positive weight set, and variable selection is either uniform
or min-degree-first (which pins every variable degree to dv or dv-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "InvalidConfigurationError",
    "WeightSet",
    "DegreeDistribution",
    "Selection",
    "WeightAssignment",
    "EncoderPolicy",
    "FactorGraph",
    "SymbolBlock",
    "reciprocal_weights",
    "reciprocal_prime_weights",
    "zero_sum_row_template",
    "bits_to_bpsk",
    "sample_degree",
    "sample_degrees",
    "build_graph",
    "encode",
    "weight_second_moment",
    "power_scale",
    "normalize_power",
]

_PROB_TOL = 1e-12


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
        if any(v <= 0 for v in self.values):
            raise ValueError("weights must be strictly positive")
        if len(set(self.values)) != len(self.values):
            raise ValueError("weights must be pairwise distinct")
        if any(p < 0 for p in self.probs):
            raise ValueError("selection probabilities must be non-negative")
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
        if any(p < 0 for p in self.omega):
            raise ValueError("degree probabilities must be non-negative")
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
    PERMUTATION_OF_SET = "permutation"
    # Permutation chosen degree-aware: within each row the largest remaining
    # magnitudes go to the variables with the least accumulated weight power,
    # so no variable ends up observed only through the small set members.
    BALANCED_PERMUTATION = "balanced-permutation"

    @property
    def whole_set(self) -> bool:
        """Every row carries all members of the set, each once."""
        return self in (WeightAssignment.PERMUTATION_OF_SET, WeightAssignment.BALANCED_PERMUTATION)


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


@dataclass
class SymbolBlock:
    """One frame's worth of signals along the transmit chain."""

    message_bits: np.ndarray
    bpsk: np.ndarray
    coded: np.ndarray
    observed: np.ndarray | None = None

    def validate(self, graph: FactorGraph, tol: float = 1e-12) -> None:
        if not np.all(np.abs(self.bpsk) == 1):
            raise ValueError("bpsk symbols must be exactly +/-1")
        resid = np.max(np.abs(self.coded - encode(graph, self.bpsk)))
        if resid > tol:
            raise ValueError(f"coded symbols deviate from row sums by {resid}")


def bits_to_bpsk(bits: np.ndarray) -> np.ndarray:
    """Map bit 0 -> +1, bit 1 -> -1 (unit energy)."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def sample_degree(dist: DegreeDistribution, rng: np.random.Generator) -> int:
    """Draw one row degree."""
    return int(rng.choice(dist.max_degree, p=dist.omega)) + 1


def sample_degrees(dist: DegreeDistribution, size: int, rng: np.random.Generator) -> np.ndarray:
    return rng.choice(dist.max_degree, size=size, p=dist.omega).astype(np.int64) + 1


def _select_uniform(k: int, degrees: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Distinct uniform variable picks per row; flat array aligned with degrees.

    Fast path for fixed degree: draw with replacement and redraw rows that
    contain duplicates (conditioned distribution equals sampling without
    replacement).
    """
    d0 = int(degrees[0])
    if np.all(degrees == d0) and d0 * (d0 - 1) <= k // 2:
        picks = rng.integers(0, k, size=(len(degrees), d0), dtype=np.int64)
        while True:
            srt = np.sort(picks, axis=1)
            bad = np.nonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))[0]
            if len(bad) == 0:
                break
            picks[bad] = rng.integers(0, k, size=(len(bad), d0), dtype=np.int64)
        return picks.ravel()
    out = np.empty(int(degrees.sum()), dtype=np.int64)
    pos = 0
    for d in degrees:
        out[pos : pos + d] = rng.choice(k, size=int(d), replace=False)
        pos += int(d)
    return out


class _MinDegreePools:
    """Two-bucket pool of variables at the current lowest two degrees.

    Taking a row's variables from the low bucket first (spilling into the
    high bucket when it runs dry) keeps max-min variable degree <= 1 at
    every step. Sampling inside a bucket is uniform via swap-and-pop; the
    uniforms driving it are drawn in blocks to keep per-row cost low.
    """

    _BLOCK = 4096

    def __init__(self, k: int, rng: np.random.Generator) -> None:
        self.low: list[int] = rng.permutation(k).tolist()
        self.high: list[int] = []
        self.rng = rng
        self._uniforms: list[float] = rng.random(self._BLOCK).tolist()
        self._cursor = 0

    def _pop(self, pool: list[int]) -> int:
        if self._cursor == self._BLOCK:
            self._uniforms = self.rng.random(self._BLOCK).tolist()
            self._cursor = 0
        j = int(self._uniforms[self._cursor] * len(pool))
        self._cursor += 1
        pool[j], pool[-1] = pool[-1], pool[j]
        return pool.pop()

    def take_row(self, d: int) -> list[int]:
        if d > len(self.low) + len(self.high):
            raise InvalidConfigurationError(f"row degree {d} exceeds variable count")
        if d <= len(self.low):
            chosen = [self._pop(self.low) for _ in range(d)]
            self.high.extend(chosen)
            if not self.low:
                self.low, self.high = self.high, []
            return chosen
        # Low bucket exhausted mid-row: promote it whole and spill into high.
        promoted = list(self.low)
        spill = [self._pop(self.high) for _ in range(d - len(promoted))]
        self.low = self.high + promoted
        self.high = spill
        return promoted + spill


def _select_min_degree(k: int, degrees: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    pools = _MinDegreePools(k, rng)
    out: list[int] = []
    for d in degrees.tolist():
        out += pools.take_row(d)
    return np.array(out, dtype=np.int64)


def _assign_weights(
    ws: WeightSet,
    degrees: np.ndarray,
    assignment: WeightAssignment,
    rng: np.random.Generator,
) -> np.ndarray:
    values = ws.as_array()
    f = ws.f
    n = len(degrees)
    d0 = int(degrees[0]) if n else 0
    fixed = n > 0 and bool(np.all(degrees == d0))

    if assignment is WeightAssignment.PERMUTATION_OF_SET:
        if not fixed or d0 != f:
            raise InvalidConfigurationError("permutation assignment requires degree == set size")
        order = np.argsort(rng.random((n, f)), axis=1)
        return values[order].ravel()

    if assignment is WeightAssignment.WITHOUT_REPLACEMENT:
        if int(degrees.max(initial=0)) > f:
            raise InvalidConfigurationError("degree exceeds weight set size for draw without replacement")
        if fixed and ws.uniform:
            order = np.argsort(rng.random((n, f)), axis=1)[:, :d0]
            return values[order].ravel()
        out = np.empty(int(degrees.sum()))
        pos = 0
        for d in degrees:
            out[pos : pos + int(d)] = rng.choice(values, size=int(d), replace=False, p=ws.probs)
            pos += int(d)
        return out

    # with replacement
    if fixed:
        return rng.choice(values, size=(n, d0), p=ws.probs).ravel()
    return rng.choice(values, size=int(degrees.sum()), p=ws.probs)


def _assign_balanced(
    ws: WeightSet,
    k: int,
    degrees: np.ndarray,
    indices: np.ndarray,
) -> np.ndarray:
    """Whole-set row permutations placed so variables collect even weight power."""
    f = ws.f
    if not np.all(degrees == f):
        raise InvalidConfigurationError("balanced permutation requires degree == set size")
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
    if dist.max_degree > k:
        raise InvalidConfigurationError(f"max degree {dist.max_degree} exceeds k={k}")
    degrees = sample_degrees(dist, n_rows, rng)
    if policy.selection is Selection.MIN_DEGREE_FIRST:
        indices = _select_min_degree(k, degrees, rng)
    else:
        indices = _select_uniform(k, degrees, rng)
    if policy.weight_assignment is WeightAssignment.BALANCED_PERMUTATION:
        weights = _assign_balanced(ws, k, degrees, indices)
    else:
        weights = _assign_weights(ws, degrees, policy.weight_assignment, rng)
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


def power_scale(dist: DegreeDistribution, ws: WeightSet) -> float:
    """Scale factor making coded symbols unit average power."""
    return 1.0 / np.sqrt(dist.mu * weight_second_moment(ws))


def normalize_power(c: np.ndarray, dist: DegreeDistribution, ws: WeightSet) -> np.ndarray:
    """Rescale coded symbols to unit average power per real symbol."""
    return np.asarray(c, dtype=np.float64) * power_scale(dist, ws)
