"""Seeded Monte Carlo experiment driver.

Two sweep types: BER versus rate at fixed SNR (three encoder variants), and
achievable rate versus SNR at a target BER (bisection over the number of
coded symbols). Every random draw comes from a named substream of the run
seed, so re-running a config reproduces its CSV byte for byte and extending
a sweep never disturbs completed points.
"""

from __future__ import annotations

import math
import os
import typing
from collections import deque
from contextlib import closing, contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .channel import ChannelParams, capacity_bits, pair_complex, transmit
from .core import (
    DegreeDistribution,
    EncoderPolicy,
    Selection,
    WeightAssignment,
    WeightSet,
    bits_to_bpsk,
    build_graph,
    encode,
    power_scale,
    reciprocal_prime_weights,
)
from .decoder import MAX_ENUM_DEGREE, DecoderConfig, _default_workers, _use_threads, bp_decode, bp_decode_joint
from .precoder import LdpcCode, check_var_degree, ldpc_decode, ldpc_encode, ldpc_generate

__all__ = [
    "ExperimentConfig",
    "SweepPoint",
    "SweepResult",
    "VARIANTS",
    "run_ber_sweep",
    "run_throughput_sweep",
    "check_outer_code",
    "emit_csv",
    "parse_csv",
    "parse_config_file",
    "parse_weights",
    "resolve_weight_set",
]

VARIANTS = ("uniform", "min-degree", "min-degree+precode")

# noiseless frames are decoded at a tiny fixed variance; exact recovery only
# needs sigma well below the minimum gap between distinct row sums
NOISELESS_DECODE_SIGMA2 = 1e-12

# config spellings of a bool, matched case-insensitively
_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}

CSV_COLUMNS = ("snr_db", "n_symbols", "rate_bits_per_cu", "ber", "fer", "trials", "seed")


@dataclass(frozen=True)
class ExperimentConfig:
    k_msg: int = 1000
    precode_rate: float = 0.95
    degree: int = 8
    weight_set: str = "reciprocal-primes"
    assignment: str = "balanced-permutation"
    variants: tuple[str, ...] = VARIANTS
    snr_db: tuple[float, ...] = (15.0,)
    rates: tuple[float, ...] | None = None
    target_ber: float = 1e-4
    trials: int = 100
    seed: int = 0
    out: str | None = None
    noiseless: bool = False
    per_complex_noise: bool = False
    gnuplot: bool = False
    max_iters: int = 150
    damping: float = 0.5
    ldpc_var_degree: int = 3
    min_error_events: int = 50
    max_trial_factor: int = 10
    n_budget_factor: int = 8

    def __post_init__(self) -> None:
        for name, low in (("k_msg", 1), ("trials", 1), ("seed", 0), ("ldpc_var_degree", 1),
                          ("min_error_events", 0), ("n_budget_factor", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if not 0.0 < self.precode_rate < 1.0:
            raise ValueError("precode_rate must lie in (0, 1)")
        if self.rates is not None and any(b <= a for a, b in zip(self.rates, self.rates[1:])):
            raise ValueError("rate grid must be strictly increasing")
        if self.rates and not all(0.0 < r < math.inf for r in self.rates):
            raise ValueError("rates must be finite and > 0 bits per channel use")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"unknown variant {v!r}")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise ValueError("snr_db entries must be finite")
        for s in self.snr_db:
            try:
                cap = capacity_bits(s, self.per_complex_noise)
                sigma2 = ChannelParams(s, per_complex_noise=self.per_complex_noise).sigma2
            except OverflowError:
                cap = sigma2 = math.inf
            if not (math.isfinite(cap) and 0.0 < sigma2 < math.inf):
                raise ValueError(
                    f"snr_db {s} is out of range: its capacity and noise variance must be finite, the variance > 0"
                )
        if not 0.0 < self.target_ber < 1.0:
            raise ValueError("target_ber must lie in (0, 1)")
        assignment = WeightAssignment(self.assignment)  # ValueError for an unknown name
        if self.degree > MAX_ENUM_DEGREE:
            raise ValueError(f"degree must be <= {MAX_ENUM_DEGREE}")
        assignment.check_degrees([self.degree], resolve_weight_set(self.weight_set).f)
        if self.degree > self.k_msg and any(not v.endswith("+precode") for v in self.variants):
            raise ValueError(f"degree {self.degree} exceeds k_msg {self.k_msg}")
        if "min-degree+precode" in self.variants:
            check_outer_code(self)
        DecoderConfig(max_iters=self.max_iters, damping=self.damping)  # ValueError out of bounds


@dataclass
class SweepPoint:
    snr_db: float
    n_symbols: int
    rate_bits_per_cu: float
    ber: float
    fer: float
    trials: int
    seed: int
    bit_errors: int = 0
    frame_errors: int = 0
    avg_iters: float = 0.0
    low_confidence: bool = False
    reached: bool = True

    def csv_row(self) -> tuple:
        return (
            self.snr_db,
            self.n_symbols,
            self.rate_bits_per_cu,
            self.ber,
            self.fer,
            self.trials,
            self.seed,
        )


@dataclass
class SweepResult:
    variant: str
    points: list[SweepPoint] = field(default_factory=list)


def parse_weights(text: str) -> list[Fraction]:
    """Exact weights from comma-separated values like '1/2,1/3'; ValueError if unparsable."""
    try:
        return [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in weights {text!r}") from None


def resolve_weight_set(spec: str) -> WeightSet:
    """Weight set from its config name: 'reciprocal-primes' or values like '1/2,1/3'."""
    if spec == "reciprocal-primes":
        return reciprocal_prime_weights()
    return WeightSet.uniform_exact(parse_weights(spec))


def _outer_code_size(k_msg: int, precode_rate: float) -> tuple[int, int]:
    """(n, m) of the outer code a precoded variant builds: n coded bits, m checks."""
    n = int(round(k_msg / precode_rate))
    return n, int(round(n * (1.0 - precode_rate)))


def check_outer_code(cfg: ExperimentConfig) -> None:
    """Refuse a config whose outer code can never be built (by the rule of
    ``check_var_degree``), or has fewer bits than the fountain rows' degree."""
    n, m = _outer_code_size(cfg.k_msg, cfg.precode_rate)
    check_var_degree(cfg.ldpc_var_degree, m)
    if cfg.degree > n:
        raise ValueError(f"degree {cfg.degree} exceeds the outer code's {n} bits")


class _VariantSetup:
    """Frozen per-variant objects shared by all trials of a sweep."""

    def __init__(self, cfg: ExperimentConfig, variant: str):
        self.variant = variant
        self.ws = resolve_weight_set(cfg.weight_set)
        self.dist = DegreeDistribution.fixed(cfg.degree)
        self.scale = power_scale(self.dist, self.ws)
        selection = Selection.UNIFORM_RANDOM if variant == "uniform" else Selection.MIN_DEGREE_FIRST
        self.policy = EncoderPolicy(selection, WeightAssignment(cfg.assignment))
        self.precoded = variant.endswith("+precode")
        if self.precoded:
            n, _ = _outer_code_size(cfg.k_msg, cfg.precode_rate)
            code_rng = rngmod.substream(cfg.seed, rngmod.GRAPH, 0xC0DE)
            self.code: LdpcCode | None = ldpc_generate(n, cfg.precode_rate, cfg.ldpc_var_degree, code_rng)
            self.k_afc = self.code.n
            self.k_msg = self.code.k_msg
        else:
            self.code = None
            self.k_afc = cfg.k_msg
            self.k_msg = cfg.k_msg
        self.dec_cfg = DecoderConfig(max_iters=cfg.max_iters, damping=cfg.damping)


def _run_frame(
    cfg: ExperimentConfig,
    setup: _VariantSetup,
    n_symbols: int,
    snr_db: float,
    point_tag: int,
    trial: int,
) -> tuple[int, int]:
    """One frame; returns (bit errors in the message, decoder iterations)."""
    seed = cfg.seed
    graph_rng = rngmod.substream(seed, rngmod.GRAPH, point_tag, trial)
    msg_rng = rngmod.substream(seed, rngmod.MESSAGE, point_tag, trial)
    noise_rng = rngmod.substream(seed, rngmod.NOISE, point_tag, trial)

    graph = build_graph(setup.k_afc, n_symbols, setup.dist, setup.ws, setup.policy, graph_rng)
    msg = msg_rng.integers(0, 2, setup.k_msg).astype(np.uint8)
    codeword = ldpc_encode(setup.code, msg) if setup.code is not None else msg
    bpsk = bits_to_bpsk(codeword)
    coded = encode(graph, bpsk) * setup.scale
    params = ChannelParams(snr_db, noiseless=cfg.noiseless, per_complex_noise=cfg.per_complex_noise)
    observed = transmit(coded, params, noise_rng)

    if cfg.noiseless:
        sigma2_eff = NOISELESS_DECODE_SIGMA2
    else:
        sigma2_eff = params.sigma2 / (setup.scale * setup.scale)
    u_eff = observed / setup.scale

    if setup.code is not None:
        result = bp_decode_joint(graph, u_eff, sigma2_eff, setup.code, setup.dec_cfg)
        bits, _ = ldpc_decode(setup.code, result.llr)
        errors = int(np.sum(bits != msg))
    else:
        result = bp_decode(graph, u_eff, sigma2_eff, setup.dec_cfg)
        errors = int(np.sum(result.hard_bits != msg))
    return errors, result.iterations


# what a frame calls by this module's names; a caller that rebinds one (to
# trace or count the calls, say) sees only the calls made in its own process
_FRAME_CALLS = {
    name: globals()[name]
    for name in ("build_graph", "encode", "transmit", "bp_decode", "bp_decode_joint", "ldpc_encode", "ldpc_decode")
}

# set only in pool workers, by the pool initializer: the config and variant
# setups they inherit from their sweep at fork
_worker_sweep: tuple[ExperimentConfig, list[_VariantSetup]] | None = None


def _adopt_sweep(cfg: ExperimentConfig, setups: list[_VariantSetup], sweep_pid: int) -> None:
    """Pool initializer: take the sweep's config and setups, decode on one
    thread (the workers already fill the cores), let go of the sweep's
    stdout, and exit once the sweep process is gone. A killed sweep would
    otherwise leave its workers blocked on the task queue for good, holding
    the pipe a reader of the sweep's output waits on."""
    import threading
    import time

    global _worker_sweep
    _worker_sweep = (cfg, setups)
    _use_threads(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    def exit_with_sweep() -> None:
        while os.getppid() == sweep_pid:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=exit_with_sweep, daemon=True).start()


def _pool_frame(setup_index: int, n_symbols: int, snr_db: float, point_tag: int, trial: int) -> tuple[int, int]:
    cfg, setups = _worker_sweep
    return _run_frame(cfg, setups[setup_index], n_symbols, snr_db, point_tag, trial)


def _point_frame_cap(cfg: ExperimentConfig) -> int:
    """The most frames a point without ``abort_ber`` runs: cfg.trials, then
    up to max_trial_factor x (a factor below 1 adds none)."""
    return cfg.trials * max(1, cfg.max_trial_factor)


@contextmanager
def _frame_source(cfg: ExperimentConfig, setups: list[_VariantSetup]):
    """The frames of one sweep: ``frames(setup, n_symbols, snr_db, point_tag,
    max_trials)`` iterates the (errors, iterations) of trials 0, 1, 2, ...

    They run in the sweep's own process when it has one worker, no point of
    more than one frame, no fork, or a frame call the caller has rebound.
    Otherwise forked workers, which inherit the config and setups, run them
    up to 2 x workers ahead of the trial read; closing the iterator cancels
    the rest. The executor forks every worker at its first submit, before it
    starts any thread of its own.
    """
    workers = min(_default_workers(), _point_frame_cap(cfg))
    serial = workers < 2 or any(globals()[name] is not fn for name, fn in _FRAME_CALLS.items())
    if not serial:  # a serial sweep never imports multiprocessing
        import multiprocessing

        serial = "fork" not in multiprocessing.get_all_start_methods()
    if serial:

        def frames(setup, n_symbols, snr_db, point_tag, max_trials):
            return (_run_frame(cfg, setup, n_symbols, snr_db, point_tag, trial) for trial in range(max_trials))

        yield frames
        return

    from concurrent.futures import ProcessPoolExecutor

    executor = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_sweep,
        initargs=(cfg, setups, os.getpid()),
    )

    def frames(setup, n_symbols, snr_db, point_tag, max_trials):
        index = setups.index(setup)
        pending: deque = deque()
        submitted = 0
        try:
            while pending or submitted < max_trials:
                while submitted < max_trials and len(pending) < 2 * workers:
                    pending.append(executor.submit(_pool_frame, index, n_symbols, snr_db, point_tag, submitted))
                    submitted += 1
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()

    try:
        yield frames
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def _measure_point(
    cfg: ExperimentConfig,
    setup: _VariantSetup,
    n_symbols: int,
    snr_db: float,
    point_tag: int,
    frames: typing.Callable[..., typing.Iterator[tuple[int, int]]],
    abort_ber: float | None = None,
) -> SweepPoint:
    """Monte Carlo BER at one (variant, N, SNR) point with adaptive trials.

    Runs cfg.trials frames, then keeps going up to max_trial_factor x until
    the point holds min_error_events bit errors; points still short of that
    are flagged low-confidence. A bisection probe passes ``abort_ber``: it
    runs at most cfg.trials frames and stops early once the error count
    already forces the estimate above it, discarding hopeless points quickly.
    The frames come from the sweep's ``_frame_source`` in trial order, so a
    point stops after the same trials wherever they run.
    """
    bit_errors = 0
    frame_errors = 0
    iters_total = 0
    max_trials = cfg.trials if abort_ber is not None else _point_frame_cap(cfg)
    with closing(frames(setup, n_symbols, snr_db, point_tag, max_trials)) as results:
        for trials_run, (errors, iters) in enumerate(results, 1):
            bit_errors += errors
            frame_errors += int(errors > 0)
            iters_total += iters
            if abort_ber is not None and trials_run >= 8:
                # even error-free remaining trials cannot pull the estimate back
                floor_est = bit_errors / (cfg.trials * setup.k_msg)
                if floor_est > 4.0 * abort_ber:
                    break
            if trials_run < cfg.trials:
                continue
            ber_so_far = bit_errors / (trials_run * setup.k_msg)
            if bit_errors >= cfg.min_error_events or ber_so_far > 1e-3:
                break
    ber = bit_errors / (trials_run * setup.k_msg)
    return SweepPoint(
        snr_db=snr_db,
        n_symbols=n_symbols,
        rate_bits_per_cu=setup.k_msg / pair_complex(n_symbols),
        ber=ber,
        fer=frame_errors / trials_run,
        trials=trials_run,
        seed=cfg.seed,
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        avg_iters=iters_total / trials_run,
        low_confidence=(ber < 1e-3 and bit_errors < cfg.min_error_events),
    )


def run_ber_sweep(cfg: ExperimentConfig) -> list[SweepResult]:
    """BER versus rate at fixed SNR for each configured encoder variant.

    The rate grid is in delivered message bits per complex channel use; each
    point transmits N = 2 * ceil(k_msg / rate) real symbols. Writes one CSV
    per variant when cfg.out is set. Frames run on as many worker processes
    as the CPUs over the BLAS thread setting allow; results and CSV bytes do
    not depend on that number.
    """
    if cfg.rates is None:
        raise ValueError("ber sweep needs a rate grid")
    if len(cfg.snr_db) != 1:
        raise ValueError("ber sweep runs at a single SNR")
    snr_db = cfg.snr_db[0]
    setups = [_VariantSetup(cfg, variant) for variant in cfg.variants]
    results = []
    with _frame_source(cfg, setups) as frames:
        for vi, setup in enumerate(setups):
            res = SweepResult(variant=setup.variant)
            for pi, rate in enumerate(cfg.rates):
                n_symbols = 2 * math.ceil(setup.k_msg / rate)
                point_tag = vi * 10000 + pi
                res.points.append(_measure_point(cfg, setup, n_symbols, snr_db, point_tag, frames))
            results.append(res)
    if cfg.out:
        for res in results:
            emit_csv(res, _variant_path(cfg.out, res.variant), gnuplot=cfg.gnuplot)
    return results


def run_throughput_sweep(cfg: ExperimentConfig, target_ber: float | None = None) -> SweepResult:
    """Max rate with measured BER <= target at each SNR (bisection over N).

    Always uses the min-degree + precode variant (the full system). The
    bisection brackets [N_feasible, N_infeasible) and narrows to 2% of N;
    the capacity-implied N is taken as the infeasible end (channel coding
    converse). Points that stay above target within the N budget are
    flagged unreached. Frames run on workers as in ``run_ber_sweep``.
    """
    target = cfg.target_ber if target_ber is None else target_ber
    if not 0.0 < target < 1.0:
        raise ValueError("target BER must lie in (0, 1)")
    for snr_db in cfg.snr_db:
        # the bisection starts from k_msg / capacity
        if capacity_bits(snr_db, cfg.per_complex_noise) == 0.0:
            raise ValueError(f"snr_db {snr_db} has zero capacity: a throughput sweep needs capacity > 0")
    check_outer_code(cfg)
    setup = _VariantSetup(cfg, "min-degree+precode")
    res = SweepResult(variant="throughput")
    with _frame_source(cfg, [setup]) as frames:
        for si, snr_db in enumerate(cfg.snr_db):
            res.points.append(_max_rate_point(cfg, setup, snr_db, 0x7A0000 + si, target, frames))
    if cfg.out:
        emit_csv(res, cfg.out, gnuplot=cfg.gnuplot)
    return res


def _max_rate_point(
    cfg: ExperimentConfig,
    setup: _VariantSetup,
    snr_db: float,
    point_tag: int,
    target: float,
    frames: typing.Callable[..., typing.Iterator[tuple[int, int]]],
) -> SweepPoint:
    """The throughput sweep's reported point at one SNR."""

    def measure(n_symbols: int, abort_ber: float | None = None) -> SweepPoint:
        return _measure_point(cfg, setup, n_symbols, snr_db, point_tag, frames, abort_ber)

    cap_true = capacity_bits(snr_db, cfg.per_complex_noise)
    n_cap = 2 * math.ceil(setup.k_msg / cap_true)
    n_budget = cfg.n_budget_factor * setup.k_msg

    n_hi = 2 * math.ceil(setup.k_msg / (0.55 * cap_true))
    feasible: SweepPoint | None = None
    while n_hi <= n_budget:
        pt = measure(n_hi, abort_ber=target)
        if pt.ber <= target:
            feasible = pt
            break
        n_hi = int(n_hi * 1.4)
    if feasible is None:
        pt = measure(n_budget)
        pt.reached = pt.ber <= target
        return pt

    n_lo = n_cap  # infeasible by the channel coding converse
    n_hi = feasible.n_symbols
    while n_hi - n_lo > max(2, int(0.02 * n_hi)):
        mid = (n_lo + n_hi) // 2
        pt = measure(mid, abort_ber=target)
        if pt.ber <= target:
            n_hi, feasible = mid, pt
        else:
            n_lo = mid
    # the reported point carries the full error-event confidence budget;
    # if the better-sampled estimate lands above target, back off in 2%
    # steps until it clears
    final = measure(n_hi)
    while final.ber > target and final.n_symbols < n_budget:
        bigger = min(n_budget, final.n_symbols + max(2, int(0.02 * final.n_symbols)))
        final = measure(bigger)
    final.reached = final.ber <= target
    return final


def _variant_path(out: str, variant: str) -> str:
    p = Path(out)
    safe = variant.replace("+", "-")
    return str(p.with_name(f"{p.stem}_{safe}{p.suffix or '.csv'}"))


def emit_csv(result: SweepResult, path, gnuplot: bool = False) -> None:
    """One header row then one data row per point; floats use repr so a
    parse round-trips exactly and a rerun is byte-identical."""
    table = [CSV_COLUMNS, *([str(x) for x in pt.csv_row()] for pt in result.points)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(row) + "\n" for row in table)
    if gnuplot:
        with open(str(path) + ".gnuplot.dat", "w", encoding="utf-8") as fh:
            fh.write("# ")
            fh.writelines(" ".join(row) + "\n" for row in table)


def parse_csv(path) -> list[SweepPoint]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected columns {header}")
        points = []
        for line in fh:
            if not line.strip():
                continue
            vals = line.strip().split(",")
            points.append(
                SweepPoint(
                    snr_db=float(vals[0]),
                    n_symbols=int(vals[1]),
                    rate_bits_per_cu=float(vals[2]),
                    ber=float(vals[3]),
                    fer=float(vals[4]),
                    trials=int(vals[5]),
                    seed=int(vals[6]),
                )
            )
    return points


def parse_config_file(path) -> dict:
    """key = value lines; '#' comments; commas make tuples."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def _parse_value(hint, value):
    """A config value of type ``hint`` from its string form; values that
    already carry their type (CLI flags) pass through the same rules."""
    args = typing.get_args(hint)
    if type(None) in args:
        hint = next(a for a in args if a is not type(None))
        args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        items = value if isinstance(value, (tuple, list)) else str(value).split(",")
        return tuple(_parse_value(args[0], x.strip() if isinstance(x, str) else x) for x in items)
    if hint is bool and not isinstance(value, bool):
        word = str(value).lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"not a boolean: {value!r}")
        return _BOOL_WORDS[word]
    return hint(value)


def config_from_mapping(mapping: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Build a config from string values (file or CLI), overriding ``base``.

    Keys and their types come from the fields of ``ExperimentConfig``."""
    hints = typing.get_type_hints(ExperimentConfig)
    kwargs = {}
    for key, value in mapping.items():
        if key not in hints:
            raise ValueError(f"unknown config key {key!r}")
        if value is not None:
            try:
                kwargs[key] = _parse_value(hints[key], value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    return replace(base or ExperimentConfig(), **kwargs)
