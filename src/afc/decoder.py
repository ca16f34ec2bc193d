"""Belief propagation over the weighted factor graph, plus an exact ML oracle.

Check nodes are marginalized exactly: a row of degree d enumerates all 2^d
sign configurations of its neighbors against the Gaussian likelihood
exp(-(u_i - sum_j g_ij b_j)^2 / (2 sigma^2)), so no Gaussian message
approximation is involved. All likelihood products run in the log domain,
shifted by each row's largest Gaussian term, a bound fixed per frame,
rather than by the maximum over the enumerated configurations (kept only
for clips too large for that bound). Cost per row per iteration is
O(2^d * d), which is cheap for the flagship degree 8 (256 configurations).
Degrees above 14 are refused.

One flooding loop serves three entry points, each handing it a list of check
groups: ``bp_decode`` runs the fountain rows alone, ``bp_decode_joint`` runs
them together with the parity checks of an outer LDPC code, and
``afc.precoder.ldpc_decode`` runs the parity checks alone.

Each iteration's check update is a list of independent tasks (the tanh pass
of the outer checks, then the fountain rows in blocks) that the decoding
thread and a small per-process thread pool pop from one deque, followed by a
serial finish per group; numpy's matmul and exp release the interpreter
lock. The decoding thread waits for every pool thread before the finish. A
task that raises empties the deque, so the update starts no further task,
and the decoding thread raises the error. A process decodes on as many
threads as its affinity CPUs divided by the BLAS thread setting
(``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``): with BLAS unpinned,
BLAS already spreads its calls over the cores and a decode runs serially,
starting no thread. The frame workers of a sweep each
decode on one thread, since the sweep already fills the cores, and updates
smaller than two blocks run serially everywhere. Every task makes the same
BLAS calls on the same shapes wherever it runs, so results do not depend on
the thread count.
"""

from __future__ import annotations

import os
import threading
import typing
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .core import FactorGraph
from .precoder import syndrome_ok, tanh_rule_messages

__all__ = [
    "UnsupportedDegreeError",
    "DecoderConfig",
    "LlrVector",
    "check_to_var_messages",
    "bp_decode",
    "bp_decode_joint",
    "ml_decode_bruteforce",
]

MAX_ENUM_DEGREE = 14
# The underflow floor saturates log ratios near +/-690, so any message clip
# at or below 300 guarantees a fully underflowed side still outweighs the
# subtracted incoming message: extrinsic subtraction cannot flip a saturated
# sign.
_MAX_CLIP = 300.0
_TINY = 1e-300
_ML_MAX_VARS = 20
# Configurations per block of the check update: a block of 2^16 float64
# (512 KB, 256 rows at degree 8) stays in a core's L2 cache across the five
# passes over it, where a whole row group streams from memory on each pass.
_BLOCK_CFGS = 1 << 16
# a block's buffer: at most step + 1 rows of 2^d configurations
_SCRATCH = _BLOCK_CFGS + (1 << MAX_ENUM_DEGREE)
# Under the CPU rule, a check update of fewer fountain-row configurations
# runs serially: waking a pool thread and sharing the interpreter lock then
# cost more than the second core gives back. On 2 vCPUs, precoded k 200
# updates of 0.8 and 1.6 blocks ran 4-50% slower on two threads, and updates
# of 1.9-7.8 blocks at k 1000-4000 ran 12-33% faster.
_THREADED_CFGS = 2 * _BLOCK_CFGS
# The check update shifts each row's log terms by the row's largest Gaussian
# term, fixed per frame, instead of by the largest term of each block. The
# message part |H.s| is at most d*clip/2, so no term exceeds e^(d*clip/2) and
# the row's best term is at least e^(-d*clip/2). A message is unsaturated only
# while its weaker side lies within 2*clip of the stronger one, which is then
# at least e^(-(d/2+2)*clip). While (d/2+2)*clip stays under _BOUND_SHIFT_MAX,
# that side is far above the _TINY floor e^(-690.8), and 2^d terms of at most
# e^(d*clip/2) are far below overflow at e^709.8. Past it a row group keeps
# the per-block row maximum; the default clip of 30 never does (degree 14
# gives 270), clip 300 always does.
_BOUND_SHIFT_MAX = 600.0


class UnsupportedDegreeError(ValueError):
    """Row degree exceeds the exact-enumeration bound."""


# the thread settings the installed BLAS (OpenBLAS) honours, in its order
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _default_workers() -> int:
    """Threads for a decode, and frame workers for a sweep: the CPUs this
    process may run on divided by its BLAS thread setting, at least 1.
    Unpinned BLAS already spreads each call over every core, so without a
    setting decodes and sweeps run serially."""
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value:
            threads = int(value) if value.isdigit() else 0
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            return max(1, cpus // threads) if threads else 1
    return 1


class _Threads:
    """This process's decode threads: a count (None: the ``_default_workers``
    rule, read at each check update of at least ``_THREADED_CFGS``
    configurations) and a pool of count - 1 threads, created by the first
    update that has work for them."""

    def __init__(self) -> None:
        self.count: int | None = None
        self.forget_pool()

    def forget_pool(self) -> None:
        self.pool = None

    def run(self, tasks: list, cfgs: int) -> None:
        """Run every task of an update of ``cfgs`` configurations once. The
        caller, and up to count - 1 pool threads, pop tasks from one deque
        until it is empty; with one thread the caller runs them in order. A
        task that raises clears the deque, so the update starts no further
        task. The caller waits for every helper, since the tasks write into
        arrays it reads next, and then raises the first task error."""
        count = self.count or (_default_workers() if cfgs >= _THREADED_CFGS else 1)
        todo = deque(tasks)

        def drain() -> None:
            while True:
                try:
                    task = todo.popleft()
                except IndexError:  # every task is taken
                    return
                try:
                    task()
                except BaseException:
                    todo.clear()
                    raise

        n_helpers = min(count, len(tasks)) - 1
        if n_helpers > 0 and self.pool is None:
            self.pool = ThreadPoolExecutor(count - 1, thread_name_prefix="afc-decode")
        helpers = [self.pool.submit(drain) for _ in range(n_helpers)]
        try:
            drain()
        finally:
            wait(helpers)
        for helper in helpers:
            helper.result()

    def shutdown(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
        self.forget_pool()


_THREADS = _Threads()
if hasattr(os, "register_at_fork"):
    # a forked child has only the forking thread: the pool it inherits would
    # queue tasks that no thread runs, so the child starts a pool of its own
    os.register_at_fork(after_in_child=_THREADS.forget_pool)


def _use_threads(count: int | None) -> None:
    """Decode on ``count`` threads in this process from now on (None: back to
    the ``_default_workers`` rule). A sweep's frame workers decode on one."""
    _THREADS.shutdown()
    _THREADS.count = count


_local = threading.local()


def _scratch(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) float64 buffer owned by the calling thread, reused by
    each block it runs; rows * cols <= _SCRATCH."""
    buf = getattr(_local, "buf", None)
    if buf is None:
        buf = _local.buf = np.empty(_SCRATCH)
    return buf[: rows * cols].reshape(rows, cols)


@dataclass(frozen=True)
class DecoderConfig:
    """Knobs for the flooding BP loop.

    Damping 0.5 is the working default: undamped exact check updates are so
    sharp that loopy instances ping-pong between complementary fixed points
    instead of converging. llr_clip bounds message magnitude (not the output
    beliefs); 30 keeps dense graphs stable without costing measurable BER.
    """

    max_iters: int = 60
    damping: float = 0.5
    llr_clip: float = 30.0
    stop_on_stable_decisions: bool = True

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if not 0.0 < self.llr_clip <= _MAX_CLIP:
            raise ValueError(f"llr_clip must lie in (0, {_MAX_CLIP}]")


@dataclass(frozen=True)
class LlrVector:
    """Per-variable log p(b=+1|obs)/p(b=-1|obs); ties decide +1."""

    llr: np.ndarray
    iterations: int = 0
    stop_reason: str | None = None  # set by BP: "syndrome", "stable" or "max_iters"

    @property
    def hard(self) -> np.ndarray:
        return np.where(self.llr >= 0, 1.0, -1.0)

    @property
    def hard_bits(self) -> np.ndarray:
        """Bit view under the mapping bit 0 <-> +1."""
        return (self.llr < 0).astype(np.uint8)


@lru_cache(maxsize=32)
def _sign_matrix(d: int) -> np.ndarray:
    cfgs = np.arange(1 << d, dtype=np.int64)
    bits = (cfgs[:, None] >> np.arange(d)) & 1
    signs = np.where(bits == 0, 1.0, -1.0)
    signs.setflags(write=False)
    return signs


def check_to_var_messages(
    weights: np.ndarray,
    u_i: float,
    sigma2: float,
    incoming: np.ndarray,
    clip: float = 30.0,
) -> np.ndarray:
    """Exact outgoing check-to-variable LLRs for one row.

    incoming[t] is the variable-to-check LLR on edge t. The outgoing LLR on
    edge t marginalizes the 2^(d-1) configurations of the other neighbors,
    weighting each by the Gaussian likelihood of u_i and the priors carried
    by the incoming messages. Messages saturate at +/-clip. This is one
    undamped update of the kernel BP runs on whole row groups.
    """
    w = np.asarray(weights, dtype=np.float64)
    d = len(w)
    if d < 1 or d > MAX_ENUM_DEGREE:
        raise UnsupportedDegreeError(f"degree {d} outside [1, {MAX_ENUM_DEGREE}]")
    lam = _finite_vector(incoming, (d,), "incoming messages")
    u = _finite_vector([u_i], (1,), "observation")
    _check_sigma2(sigma2)
    row = _RowGroup(np.arange(d)[None, :], w[None, :], u, sigma2)
    row.update(lam, 0.0, min(float(clip), _MAX_CLIP))
    return row.c_msg[0]


def _damped(old: np.ndarray, new: np.ndarray, damping: float) -> np.ndarray:
    return damping * old + (1.0 - damping) * new if damping > 0.0 else new


class _RowGroup:
    """Fountain rows of one degree batched into dense index/weight matrices."""

    def __init__(self, idx: np.ndarray, w: np.ndarray, u_rows: np.ndarray, sigma2: float):
        signs = _sign_matrix(idx.shape[1])  # (2^d, d)
        self.idx = idx
        self.signs_t = signs.T.copy()
        self.plus = (signs > 0).astype(np.float64)
        self.minus = (signs < 0).astype(np.float64)
        # -(u - sums)^2 / (2 sigma2), built in the product's buffer rather
        # than through four (rows, 2^d) temporaries; a term that overflows
        # is -inf, a configuration of likelihood 0
        resid = w @ self.signs_t
        with np.errstate(over="ignore"):
            np.subtract(u_rows[:, None], resid, out=resid)
            np.square(resid, out=resid)
            resid /= -(2.0 * sigma2)
        top = resid.max(axis=1, keepdims=True)
        if not np.all(np.isfinite(top)):
            raise ValueError("an observation is too far from every row sum for sigma2: all its likelihoods are 0")
        resid -= top
        self.resid = resid
        self.c_msg = np.zeros_like(w)

    @classmethod
    def of_degree(cls, graph: FactorGraph, d: int, u: np.ndarray, sigma2: float) -> "_RowGroup":
        rows = np.nonzero(graph.row_degrees() == d)[0]
        offs = graph.indptr[rows][:, None] + np.arange(d)
        return cls(graph.indices[offs], graph.weights[offs].astype(np.float64), u[rows], sigma2)

    @property
    def cfgs(self) -> int:
        """Configurations one update enumerates: rows x 2^d."""
        return self.resid.size

    def plan(self, belief: np.ndarray, damping: float, clip: float) -> tuple[list, typing.Callable[[], None]]:
        """One check update as block tasks, which may run on any thread in any
        order, and the finish that completes it once they have all run."""
        v = np.clip(belief[self.idx] - self.c_msg, -clip, clip)
        half = v * 0.5
        n, d = v.shape
        row_max = (d / 2 + 2) * clip > _BOUND_SHIFT_MAX
        pos = np.empty_like(v)
        neg = np.empty_like(v)
        step = max(1, _BLOCK_CFGS >> d)
        tasks = []
        s = 0
        while s < n:
            # Never leave a last block of one row: BLAS sums a one-row product
            # in another order, which would move the last bits of its messages.
            e = s + step if n - s > step + 1 else n
            tasks.append(partial(self._block, half, pos, neg, row_max, s, e))
            s = e

        def finish() -> None:
            np.maximum(pos, _TINY, out=pos)
            np.maximum(neg, _TINY, out=neg)
            out = np.log(pos)
            out -= np.log(neg)
            out -= v
            np.clip(out, -clip, clip, out=out)
            self.c_msg = _damped(self.c_msg, out, damping)

        return tasks, finish

    def _block(self, half, pos, neg, row_max: bool, s: int, e: int) -> None:
        """The two sums of rows s:e, written to pos[s:e] and neg[s:e]."""
        base = np.matmul(half[s:e], self.signs_t, out=_scratch(e - s, self.signs_t.shape[1]))
        base += self.resid[s:e]
        if row_max:
            base -= base.max(axis=1, keepdims=True)
        np.exp(base, out=base)
        np.matmul(base, self.plus, out=pos[s:e])
        np.matmul(base, self.minus, out=neg[s:e])  # not tot - pos: that cancellation costs ~6 digits

    def update(self, belief: np.ndarray, damping: float, clip: float) -> None:
        _update([self], belief, damping, clip)

    def accumulate(self, belief: np.ndarray) -> None:
        belief += np.bincount(self.idx.ravel(), weights=self.c_msg.ravel(), minlength=len(belief))


class _OuterChecks:
    """Parity checks of the outer code, updated by the tanh rule."""

    cfgs = 0  # the tanh rule enumerates no configurations

    def __init__(self, code):
        self.code = code
        self.c_msg = np.zeros(len(code.edge_var))

    def plan(self, belief: np.ndarray, damping: float, clip: float) -> tuple[list, typing.Callable[[], None]]:
        """One tanh pass as a single task, and the damping as its finish."""
        new = []

        def tanh_pass() -> None:
            v = np.clip(belief[self.code.edge_var] - self.c_msg, -clip, clip)
            new.append(tanh_rule_messages(self.code, v))

        def finish() -> None:
            self.c_msg = _damped(self.c_msg, new[0], damping)

        return [tanh_pass], finish

    def accumulate(self, belief: np.ndarray) -> None:
        belief += np.bincount(self.code.edge_var, weights=self.c_msg, minlength=len(belief))


def _finite_vector(x, shape: tuple, name: str) -> np.ndarray:
    """``x`` as float64 once it has the given shape and is all finite."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != shape:
        raise ValueError(f"{name} has shape {x.shape}, expected {shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite {name}")
    return x


def _check_sigma2(sigma2: float) -> None:
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValueError("sigma2 must be positive and finite")


def _check_inputs(graph: FactorGraph, u, sigma2: float) -> np.ndarray:
    """The observation as float64 once it and sigma2 fit the graph."""
    u = _finite_vector(u, (graph.m,), "observation")
    _check_sigma2(sigma2)
    d_max = int(graph.row_degrees().max(initial=0))
    if d_max > MAX_ENUM_DEGREE:
        raise UnsupportedDegreeError(f"row degree {d_max} exceeds enumeration bound {MAX_ENUM_DEGREE}")
    return u


def _update(groups: list, belief: np.ndarray, damping: float, clip: float) -> None:
    """One check update of every group against the same beliefs: all their
    tasks on this process's decode threads, then their finishes in order."""
    plans = [g.plan(belief, damping, clip) for g in groups]
    _THREADS.run([task for tasks, _ in plans for task in tasks], sum(g.cfgs for g in groups))
    for _, finish in plans:
        finish()


def _row_groups(graph: FactorGraph, u: np.ndarray, sigma2: float) -> list:
    return [_RowGroup.of_degree(graph, int(d), u, sigma2) for d in np.unique(graph.row_degrees())]


def _bp(groups: list, prior: np.ndarray, cfg: DecoderConfig, code) -> LlrVector:
    """The flooding loop: every check group updates against the same beliefs,
    then the beliefs are rebuilt as prior plus all check messages.

    Stops once the hard decisions satisfy every check of ``code`` (when
    given) with no belief exactly 0, or on hard decisions unchanged for 2
    straight iterations (4 with a code); ``stop_reason`` names the rule that
    fired, or ``"max_iters"`` when none did.

    An iteration that leaves the hard decisions unchanged and every group's
    check messages bit for bit as they were is an exact fixed point: every
    later iteration repeats it. The loop then returns at once what running
    on would return: the same beliefs, with ``iterations`` and
    ``stop_reason`` of the stop rule that would fire next.
    """
    stable_run = 2 if code is None else 4
    belief = prior
    prev_bits: np.ndarray | None = None
    stable = 0
    reason = "max_iters"
    for iterations in range(1, cfg.max_iters + 1):
        prev_msgs = [g.c_msg for g in groups]  # a finish rebinds c_msg, so these stay as they are
        _update(groups, belief, cfg.damping, cfg.llr_clip)
        belief = prior.copy()
        for g in groups:
            g.accumulate(belief)
        bits = (belief < 0).astype(np.uint8)
        if code is not None and syndrome_ok(code, bits) and np.all(belief != 0):
            reason = "syndrome"
            break
        unchanged = prev_bits is not None and np.array_equal(bits, prev_bits)
        if cfg.stop_on_stable_decisions:
            stable = stable + 1 if unchanged else 0
            if stable >= stable_run:
                reason = "stable"
                break
        if unchanged and all(_same_bits(g.c_msg, msg) for g, msg in zip(groups, prev_msgs)):
            stop = iterations + stable_run - stable  # where the stable rule would fire
            if cfg.stop_on_stable_decisions and stop <= cfg.max_iters:
                return LlrVector(llr=belief, iterations=stop, stop_reason="stable")
            return LlrVector(llr=belief, iterations=cfg.max_iters, stop_reason="max_iters")
        prev_bits = bits
    return LlrVector(llr=belief, iterations=iterations, stop_reason=reason)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal float64 arrays bit for bit: +0 and -0 differ, as the next
    iteration's arithmetic may tell them apart."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def bp_decode(
    graph: FactorGraph,
    u: np.ndarray,
    sigma2: float,
    cfg: DecoderConfig | None = None,
    prior: np.ndarray | None = None,
) -> LlrVector:
    """Flooding-schedule BP over the fountain rows, returning posterior LLRs
    for every variable.

    ``prior`` supplies per-variable input LLRs (zeros when absent).
    Deterministic given its inputs.
    """
    u = _check_inputs(graph, u, sigma2)
    prior = np.zeros(graph.k) if prior is None else _finite_vector(prior, (graph.k,), "prior")
    return _bp(_row_groups(graph, u, sigma2), prior, cfg or DecoderConfig(), None)


def ml_decode_bruteforce(graph: FactorGraph, u: np.ndarray) -> np.ndarray:
    """Exact minimizer of ||u - G b||^2 over b in {-1,+1}^k.

    Refuses k > 20 (2^k candidates). Ties resolve to the lexicographically
    smallest vector counting +1 before -1, so the all-(+1) word wins when
    everything is equivalent.
    """
    if graph.k > _ML_MAX_VARS:
        raise ValueError(f"brute force limited to k <= {_ML_MAX_VARS}, got {graph.k}")
    u = _finite_vector(u, (graph.m,), "observation")
    k = graph.k
    g_dense = graph.dense()
    best_val = np.inf
    best: np.ndarray | None = None
    shifts = k - 1 - np.arange(k)
    chunk = 1 << 16
    for start in range(0, 1 << k, chunk):
        cand = np.arange(start, min(start + chunk, 1 << k), dtype=np.int64)
        bits = (cand[:, None] >> shifts) & 1
        b = 1.0 - 2.0 * bits
        resid = u[None, :] - b @ g_dense.T
        d2 = np.einsum("ij,ij->i", resid, resid)
        i = int(np.argmin(d2))
        if best is None or d2[i] < best_val:
            best_val = float(d2[i])
            best = b[i]
    return best


def bp_decode_joint(
    graph: FactorGraph,
    u: np.ndarray,
    sigma2: float,
    code,
    cfg: DecoderConfig | None = None,
) -> LlrVector:
    """BP over the combined graph: fountain rows plus outer parity checks.

    Both kinds of check nodes update every iteration against the shared
    variable beliefs. The hard parity constraints resolve variables the
    analog rows leave ambiguous, which is what lets the system run close
    to capacity instead of stalling at the per-bit marginal limit of
    decoding the two codes one after the other.
    """
    if code.n != graph.k:
        raise ValueError(f"outer codeword length {code.n} != graph variables {graph.k}")
    u = _check_inputs(graph, u, sigma2)
    groups = [_OuterChecks(code), *_row_groups(graph, u, sigma2)]
    return _bp(groups, np.zeros(graph.k), cfg or DecoderConfig(), code)
