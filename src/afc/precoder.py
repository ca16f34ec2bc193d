"""High-rate LDPC outer code: construction, systematic encoder, parity checks.

The construction is greedy progressive-edge-growth style: variables are
regular (degree ``var_degree``) and each new variable attaches to the
currently least-loaded checks while avoiding repeated check pairs, which
keeps the Tanner graph free of 4-cycles whenever the pair budget allows.
When the least-loaded checks would repeat a pair, the variable's remaining
tries are drawn as one block and the first pair-free one wins; when none
is, it takes the least-loaded checks and accepts the short cycle. A
variable's retries cost one array operation, not one draw each. The same
seed gives the same code on every run, but codes differ from versions that
drew each retry separately.
Encoding is systematic (message bits first); the parity positions are the
pivot columns of a right-preferring GF(2) elimination, so a code reloaded
from its serialized parity structure reproduces the identical encoder.
The tanh rule here is the check update that the BP engine of
``afc.decoder`` runs for these checks, on its own in ``ldpc_decode`` and
beside the fountain rows in ``bp_decode_joint``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LdpcCode",
    "LdpcConstructionError",
    "check_var_degree",
    "ldpc_generate",
    "ldpc_encode",
    "ldpc_decode",
    "tanh_rule_messages",
    "syndrome",
    "syndrome_ok",
    "save_code",
    "load_code",
]

_MSG_CLIP = 30.0
_MAG_FLOOR = 1e-12
_TRIES = 50  # check rows a variable may try before it accepts a short cycle
_MAX_ATTEMPTS = 20  # constructions tried before giving up on a full-rank code
_BYTE_PARITY = np.array([bin(b).count("1") & 1 for b in range(256)], dtype=np.uint8)


class LdpcConstructionError(RuntimeError):
    """Could not build a full-rank code with the requested parameters."""


@dataclass(eq=False)
class LdpcCode:
    """Sparse parity structure plus the dense systematic encoder map."""

    n: int
    k_msg: int
    check_rows: list  # list[np.ndarray], sorted var indices per check
    enc_matrix: np.ndarray  # (m, k_msg) uint8; parity = enc_matrix @ msg mod 2
    enc_packed: np.ndarray = field(init=False, repr=False)  # enc_matrix rows packed 8 bits a byte
    edge_var: np.ndarray = field(init=False, repr=False)
    check_ptr: np.ndarray = field(init=False, repr=False)
    edge_check: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        degs = np.array([len(r) for r in self.check_rows], dtype=np.int64)
        if degs.min(initial=1) < 1:
            raise ValueError("empty check row")
        self.enc_packed = np.packbits(self.enc_matrix, axis=1)
        self.edge_var = np.concatenate(self.check_rows).astype(np.int64)
        self.check_ptr = np.zeros(len(self.check_rows) + 1, dtype=np.int64)
        np.cumsum(degs, out=self.check_ptr[1:])
        self.edge_check = np.repeat(np.arange(len(self.check_rows), dtype=np.int64), degs)

    @property
    def m(self) -> int:
        return len(self.check_rows)

    @property
    def rate(self) -> float:
        return self.k_msg / self.n


def _pack_rows(n: int, check_rows: list) -> np.ndarray:
    dense = np.zeros((len(check_rows), n), dtype=np.uint8)
    for i, row in enumerate(check_rows):
        dense[i, row] = 1
    return np.packbits(dense, axis=1)


def _get_bit(packed: np.ndarray, col: int) -> np.ndarray:
    return (packed[:, col >> 3] >> (7 - (col & 7))) & 1


def _rref_from_right(n: int, check_rows: list) -> tuple[np.ndarray, np.ndarray]:
    """Full GF(2) reduction preferring high-index pivot columns.

    Returns (pivot columns ascending, the reduced rows in that order as one
    (m, n) uint8 matrix); raises LdpcConstructionError when the matrix is
    row-rank deficient.
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
        bits[r] = False
        packed[bits] ^= packed[r]
        free_rows[r] = False
        pivot_of_row[r] = col
        if len(pivot_of_row) == m:
            break
    if len(pivot_of_row) < m:
        raise LdpcConstructionError("parity-check matrix is row-rank deficient")
    rows = sorted(pivot_of_row, key=pivot_of_row.get)
    pivots = np.array([pivot_of_row[r] for r in rows], dtype=np.int64)
    return pivots, np.unpackbits(packed[rows], axis=1, count=n)


def _from_check_rows(n: int, check_rows: list) -> LdpcCode:
    """Arrange parity columns last and derive the systematic encoder.

    Every pivot column is cleared from all rows but its own, so parity bit j
    is the sum of the message bits that reduced row j touches: the encoder
    is the reduced rows restricted to the message columns.
    """
    pivots, red = _rref_from_right(n, check_rows)
    msg_cols = np.setdiff1d(np.arange(n), pivots, assume_unique=True)
    new_pos = np.empty(n, dtype=np.int64)
    new_pos[np.concatenate([msg_cols, pivots])] = np.arange(n)
    permuted = [np.sort(new_pos[np.asarray(r)]) for r in check_rows]
    return LdpcCode(n=n, k_msg=len(msg_cols), check_rows=permuted, enc_matrix=red.take(msg_cols, axis=1))


def _least_loaded(check_deg: np.ndarray, dv: int, rng: np.random.Generator) -> np.ndarray:
    """The dv least-loaded checks, ascending; ties broken by one uniform draw.

    Loads are integers and the draw lies in [0, 1), so this is the set that
    ``np.lexsort((draw, check_deg))[:dv]`` selects.
    """
    return np.sort(np.argpartition(check_deg + rng.random(check_deg.size), dv - 1)[:dv])


def _greedy_rows(n: int, m: int, dv: int, rng: np.random.Generator) -> list:
    """Check rows (ascending variable indices) of a variable-regular graph.

    Variables attach in order. A variable first tries the dv least-loaded
    checks. If two of them already share a variable, it draws the other
    ``_TRIES - 1`` tries as one block of dv checks each, with replacement,
    and takes the first row whose checks are distinct and pairwise unused;
    given success, the pick is uniform over such subsets. If no row
    qualifies, it takes the dv least-loaded checks under a fresh tie draw
    and accepts the short cycle (those pairs are not recorded). Codes differ
    from versions before this rule for the same seed, from the first
    variable whose first try fails.
    """
    check_deg = np.zeros(m, dtype=np.int64)
    used = np.zeros((m, m), dtype=bool)  # used[a, b], a < b: checks a and b share a variable
    iu, ju = np.triu_indices(dv, 1)
    picks = np.empty((n, dv), dtype=np.int64)
    for v in range(n):
        cand = _least_loaded(check_deg, dv, rng)
        fresh = not used[cand[iu], cand[ju]].any()
        if not fresh:
            block = np.sort(rng.integers(0, m, (_TRIES - 1, dv)), axis=1)
            ok = (np.diff(block, axis=1) > 0).all(axis=1) & ~used[block[:, iu], block[:, ju]].any(axis=1)
            hit = np.flatnonzero(ok)
            if hit.size:
                cand, fresh = block[hit[0]], True
            else:  # pair budget exhausted; accept a short cycle
                cand = _least_loaded(check_deg, dv, rng)
        if fresh:
            used[cand[iu], cand[ju]] = True
        check_deg[cand] += 1
        picks[v] = cand
    flat = picks.ravel()
    var_of_edge = np.argsort(flat, kind="stable") // dv  # variable-major, so ascending per check
    return np.split(var_of_edge, np.cumsum(np.bincount(flat, minlength=m))[:-1])


def check_var_degree(var_degree: int, m: int) -> None:
    """Refuse a variable degree that can never give a full-rank H with m
    checks: below 1, above m, equal to m > 1 (every bit covers every check,
    so H has rank 1), or even (the checks always sum to zero, so rank < m)."""
    if var_degree < 1:
        raise ValueError(f"variable degree {var_degree} must be >= 1")
    if var_degree > m or var_degree == m > 1:
        raise ValueError(f"variable degree {var_degree} needs more than the outer code's {m} checks")
    if var_degree % 2 == 0:
        raise ValueError(f"variable degree {var_degree} is even: the outer code's checks would sum to zero")


def ldpc_generate(
    n: int,
    rate: float,
    var_degree: int = 3,
    rng: np.random.Generator | None = None,
) -> LdpcCode:
    """Generate a regular-variable-degree sparse code at the requested rate."""
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    m = int(round(n * (1.0 - rate)))
    check_var_degree(var_degree, m)
    if rng is None:
        rng = np.random.default_rng()
    for _ in range(_MAX_ATTEMPTS):
        rows = _greedy_rows(n, m, var_degree, rng)
        try:
            return _from_check_rows(n, rows)
        except LdpcConstructionError:
            continue
    raise LdpcConstructionError(f"no full-rank construction in {_MAX_ATTEMPTS} attempts")


def ldpc_encode(code: LdpcCode, msg: np.ndarray) -> np.ndarray:
    """Systematic codeword: message bits first, then parity."""
    msg = np.asarray(msg)
    if msg.shape != (code.k_msg,):
        raise ValueError(f"message length {msg.shape} != {code.k_msg}")
    if not np.all((msg == 0) | (msg == 1)):
        raise ValueError("message bits must be 0 or 1")
    bits = msg.astype(np.uint8)
    # Parity j is the parity of the AND of encoder row j with the message.
    acc = np.bitwise_xor.reduce(code.enc_packed & np.packbits(bits), axis=1)
    return np.concatenate([bits, _BYTE_PARITY[acc]])


def syndrome(code: LdpcCode, bits: np.ndarray) -> np.ndarray:
    """Per-check parity of the given hard bits."""
    b = np.asarray(bits, dtype=np.int64)
    return np.add.reduceat(b[code.edge_var], code.check_ptr[:-1]) % 2


def syndrome_ok(code: LdpcCode, bits: np.ndarray) -> bool:
    return not syndrome(code, bits).any()


def _phi(x: np.ndarray) -> np.ndarray:
    """Self-inverse log-tanh transform -log(tanh(x/2)) = 2 atanh(e^-x)."""
    return 2.0 * np.arctanh(np.exp(-x))


def tanh_rule_messages(code: LdpcCode, v: np.ndarray) -> np.ndarray:
    """Check-to-variable messages for incoming per-edge LLRs v (tanh rule).

    An exactly-zero incoming LLR is an erasure: any edge whose leave-one-out
    set contains one emits 0 instead of a floored magnitude.
    """
    ptr = code.check_ptr[:-1]
    mag = np.clip(np.abs(v), _MAG_FLOOR, _MSG_CLIP)
    t = _phi(mag)
    t_ex = np.add.reduceat(t, ptr)[code.edge_check] - t
    neg = (v < 0).astype(np.int64)
    neg_ex = np.add.reduceat(neg, ptr)[code.edge_check] - neg
    sign = 1.0 - 2.0 * (neg_ex & 1)
    out = sign * _phi(np.clip(t_ex, _MAG_FLOOR, _MSG_CLIP))
    if not np.all(v):
        zero = (v == 0).astype(np.int64)
        zero_ex = np.add.reduceat(zero, ptr)[code.edge_check] - zero
        out[zero_ex > 0] = 0.0
    return out


def ldpc_decode(code: LdpcCode, llr, max_iters: int = 50) -> tuple[np.ndarray, bool]:
    """Sum-product decoding of the outer code alone; returns (message bits,
    converged).

    One run of the BP engine over the parity checks, with ``llr`` (shape
    ``(n,)``, all finite) as the prior and no damping. It stops once the
    hard decisions satisfy every check with no belief exactly 0, or after
    ``max_iters``; ``converged`` says which. An all-erasure input whose
    zero-tie decisions happen to form a codeword is therefore not reported
    as converged. An iteration that changes no decision and no message bit
    is a fixed point that would last to ``max_iters``, so the decode
    returns there with the bits and the outcome of the full run.
    """
    from .decoder import DecoderConfig, _bp, _finite_vector, _OuterChecks  # afc.decoder imports this module

    prior = _finite_vector(llr, (code.n,), "llr")
    cfg = DecoderConfig(max_iters=max_iters, damping=0.0, stop_on_stable_decisions=False)
    result = _bp([_OuterChecks(code)], prior, cfg, code)
    return result.hard_bits[: code.k_msg], result.stop_reason == "syndrome"


def save_code(code: LdpcCode, path) -> None:
    """Plain-text parity structure: header 'n m', then one check row per line
    of space-separated variable indices."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{code.n} {code.m}\n")
        for row in code.check_rows:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def load_code(path) -> LdpcCode:
    """Rebuild a code (including its encoder) from the serialized structure.

    Raises ValueError unless the file holds a header 'n m' with 0 < m < n
    and then exactly m rows of distinct variable indices in [0, n).
    """
    with open(path, "r", encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines() or [""]
    fields = header.split()
    if len(fields) != 2:
        raise ValueError(f"header must be 'n m', got {header!r}")
    n, m = int(fields[0]), int(fields[1])
    if not 0 < m < n or len(lines) != m:
        raise ValueError(f"header 'n m' = {n} {m} needs 0 < m < n and m rows; the file has {len(lines)}")
    rows = [np.array([int(x) for x in line.split()], dtype=np.int64) for line in lines]
    for i, row in enumerate(rows):
        if row.size == 0 or row.min() < 0 or row.max() >= n or np.unique(row).size < row.size:
            raise ValueError(f"check row {i} must hold distinct indices in [0, {n})")
    return _from_check_rows(n, rows)
