"""One benchmark process: set up a workload, then run it in a closed loop.

Started by ``run.py``, never by hand. It prints ``READY`` once set-up is done
(imports, shared objects, warm-up). With ``--setup-only`` it exits there;
otherwise it runs whole rounds of the workload's operations until
``--seconds`` of wall time have passed, checks every output, and prints
``RESULT <json>`` as its last line.

Each round holds the workload's own operations plus one operation of each
kind it lacks (a weight-set certification, a noiseless probe sweep), so
every run reports both frames/s and certifications/s and every layer is
entered. Every operation is timed on its own; the correctness checks run
between operations and are not timed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import afc  # noqa: E402
import afc.harness  # noqa: E402
from afc import (  # noqa: E402
    ChannelParams,
    DegreeDistribution,
    EncoderPolicy,
    Selection,
    WeightAssignment,
    bits_to_bpsk,
    power_scale,
    reciprocal_prime_weights,
    zero_sum_row_template,
)
from afc import analysis, channel, core, decoder, precoder  # noqa: E402
from afc.decoder import DecoderConfig  # noqa: E402
from afc.harness import ExperimentConfig  # noqa: E402

import checks  # noqa: E402
from spans import Tracer, decode_attrs, per_layer_metrics  # noqa: E402

SNR_DB = 15.0
DEGREE = 8
MAX_ITERS = 150
PRECODE_RATE = 0.95
LDPC_VAR_DEGREE = 3
LLR_CLIP = 30.0

PAPER_N = 10000  # rate-0.95 outer code: k_msg 9500
PAPER_RATES = (5.0, 5.5, 6.0)  # bits/cu; N = 3800, 3456, 3168
ZERO_ERROR_RATE = 5.0  # 83% of the 6.0 bits/cu true capacity

C6_RATES = (2.5, 3.0)
C6_TRIALS = 30
C6_VARIANTS = (("uniform", 1000), ("min-degree", 1000), ("min-degree+precode", 950))

PROBE_RATE = 1.0
PROBE_VARIANTS = (("uniform", 200), ("min-degree", 200), ("min-degree+precode", 190))

SHAPING_DELTA = 0.2
SHAPING_EPS = 1e-4
CERT_SAMPLES = 500_000
WARMUP_CERT_SAMPLES = 20_000

# seed-path tags for the benchmark's own input streams
CODE, FRAME, CERT, SWEEP, PROBE = range(1, 6)
WARMUP_ROUND = 2**31 - 1  # the warm-up's round index, past any timed round

# per workload: (kinds of one round, kind counted in frames_per_s,
# rounds every run completes, op kinds in per-layer priority order)
WORKLOADS = {
    "paper-frames": (("frame", "frame", "frame", "cert", "probe"), "frame", 4, ("frame", "setup", "cert", "probe")),
    "floor-sweep": (("sweep", "cert"), "sweep", 1, ("sweep", "setup", "cert")),
    "weight-design": (("cert", "probe"), "probe", 4, ("cert", "setup", "probe")),
}


def stream(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] & 0x7FFFFFFF)


class Library:
    """The afc calls the benchmark makes, wrapped in spans when tracing."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer

        def wrap(name, fn, on_result=None):
            return fn if tracer is None else tracer.wrap(name, fn, on_result)

        self.build_graph = wrap("core.build_graph", core.build_graph)
        self.encode = wrap("core.encode", core.encode)
        self.transmit = wrap("channel.transmit", channel.transmit)
        self.bp_decode = wrap("decoder.bp_decode", decoder.bp_decode, decode_attrs)
        self.bp_decode_joint = self._joint(decoder.bp_decode_joint)
        self.ldpc_generate = wrap("precoder.ldpc_generate", precoder.ldpc_generate)
        self.ldpc_encode = wrap("precoder.ldpc_encode", precoder.ldpc_encode)
        self.ldpc_decode = wrap("precoder.ldpc_decode", precoder.ldpc_decode)
        self.run_ber_sweep = wrap("harness.run_ber_sweep", afc.harness.run_ber_sweep)
        self.check_nonzero_condition = wrap("analysis.check_nonzero_condition", analysis.check_nonzero_condition)
        self.check_template = wrap("analysis.check_nonzero_condition.template", analysis.check_nonzero_condition)
        self.ambiguity_recursion = wrap("analysis.ambiguity_recursion", analysis.ambiguity_recursion)
        self.gaussian_fit_check = wrap(
            "analysis.gaussian_fit_check",
            analysis.gaussian_fit_check,
            lambda rec, args, _: rec.update(samples=int(args[4])),
        )

    def _joint(self, joint):
        """Joint decode; when tracing, one tanh-rule pass on the frame's edge
        LLRs follows it in a span of its own."""
        tracer = self.tracer
        if tracer is None:
            return joint
        traced = tracer.wrap("decoder.bp_decode_joint", joint, decode_attrs)

        def joint_then_tanh(graph, u, sigma2, code, cfg=None):
            result = traced(graph, u, sigma2, code, cfg)
            v = np.clip(result.llr[code.edge_var], -LLR_CLIP, LLR_CLIP)
            with tracer.span("precoder.tanh_rule_messages"):
                precoder.tanh_rule_messages(code, v)
            return result

        return joint_then_tanh

    def patch_harness(self) -> None:
        """Route the names afc.harness binds through the same spans; each
        frame the harness starts opens with its build_graph call."""
        tracer = self.tracer
        if tracer is None:
            return
        build = self.build_graph

        def build_frame(*args, **kwargs):
            tracer.new_frame()
            return build(*args, **kwargs)

        afc.harness.build_graph = build_frame
        for name in ("encode", "transmit", "bp_decode", "bp_decode_joint", "ldpc_generate", "ldpc_encode", "ldpc_decode"):
            setattr(afc.harness, name, getattr(self, name))


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.tracer = Tracer() if trace else None
        self.lib = Library(self.tracer)
        self.lib.patch_harness()
        self.out_dir = out_dir
        self.kinds, self.frame_kind, self.min_rounds, self.op_priority = WORKLOADS[workload]
        self.ops: list[dict] = []
        self.failures: list[str] = []
        self.round0_csv: bytes | None = None

        self.ws = reciprocal_prime_weights()
        self.dist = DegreeDistribution.fixed(DEGREE)
        self.policy = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.BALANCED_PERMUTATION)
        self.scale = power_scale(self.dist, self.ws)
        self.params = ChannelParams(SNR_DB, per_complex_noise=True)
        self.dec_cfg = DecoderConfig(max_iters=MAX_ITERS)
        self.code = None

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Shared objects and one warm-up of every operation kind in a round."""
        if self.workload == "paper-frames":
            self.code = self.lib.ldpc_generate(PAPER_N, PRECODE_RATE, LDPC_VAR_DEGREE, stream(self.seed, CODE))
        if self.tracer is not None:
            self.tracer.enabled = False
        for kind in dict.fromkeys(self.kinds):
            if kind == "frame":
                self.paper_frame(WARMUP_ROUND, 0, self.message(WARMUP_ROUND, 0))
            elif kind == "sweep":
                self.sweep(SWEEP, WARMUP_ROUND, C6_VARIANTS, C6_RATES, 1, noiseless=False)
            elif kind == "cert":
                self.certify(WARMUP_ROUND, WARMUP_CERT_SAMPLES)
            else:
                self.probe(WARMUP_ROUND)
        if self.tracer is not None:
            self.tracer.enabled = True

    def prepare_checks(self) -> None:
        """Reference values the checks compare against, computed apart from afc."""
        if self.code is not None:
            self.parity = checks.parity_matrix(self.code.n, self.code.check_rows)
        exact = list(self.ws.exact)
        self.ref_set_has_zero_sum = checks.zero_sum_exists(exact)
        self.ref_template_has_zero_sum = checks.zero_sum_exists([Fraction(v) for v in zero_sum_row_template()])
        self.ref_unique_fraction = checks.unique_fraction(exact)

    # -- operations ---------------------------------------------------------

    def message(self, r: int, q: int) -> np.ndarray:
        return stream(self.seed, FRAME, r, q, 1).integers(0, 2, self.code.k_msg).astype(np.uint8)

    def paper_frame(self, r: int, q: int, msg: np.ndarray):
        rate = PAPER_RATES[q]
        code = self.code
        n_symbols = 2 * math.ceil(code.k_msg / rate)
        lib = self.lib
        graph = lib.build_graph(code.n, n_symbols, self.dist, self.ws, self.policy, stream(self.seed, FRAME, r, q, 0))
        codeword = lib.ldpc_encode(code, msg)
        bpsk = bits_to_bpsk(codeword)
        row_sums = lib.encode(graph, bpsk)
        coded = row_sums * self.scale
        observed = lib.transmit(coded, self.params, stream(self.seed, FRAME, r, q, 2))
        sigma2_eff = self.params.sigma2 / (self.scale * self.scale)
        result = lib.bp_decode_joint(graph, observed / self.scale, sigma2_eff, code, self.dec_cfg)
        bits, _ = lib.ldpc_decode(code, result.llr)
        return rate, msg, graph, codeword, bpsk, row_sums, coded, observed, result, bits

    def check_paper_frame(self, out) -> tuple[int, int]:
        rate, msg, graph, codeword, bpsk, row_sums, coded, observed, result, bits = out
        checks.require(bool(np.all(np.diff(graph.indptr) == DEGREE)), "row degree is not 8")
        checks.check_codeword(self.parity, msg, codeword)
        checks.check_encode(graph, bpsk, row_sums)
        checks.check_noise(observed - coded, self.params.sigma2)
        checks.check_decode(result.llr, result.iterations, MAX_ITERS)
        errors = int(np.count_nonzero(bits != msg))
        if rate == ZERO_ERROR_RATE:
            checks.require(errors == 0, f"rate-{rate} frame decoded with {errors} message errors")
        return result.iterations, errors

    def sweep(self, tag: int, r: int, variants, rates, trials: int, noiseless: bool, csv_stem=None) -> dict:
        seed = derived_seed(self.seed, tag, r)
        points = {}
        for variant, k_msg in variants:
            cfg = ExperimentConfig(
                k_msg=k_msg,
                snr_db=(SNR_DB,),
                rates=rates,
                trials=trials,
                seed=seed,
                variants=(variant,),
                max_iters=MAX_ITERS,
                max_trial_factor=1,
                noiseless=noiseless,
                out=None if csv_stem is None else str(self.out_dir / f"{csv_stem}.csv"),
            )
            points[variant] = self.lib.run_ber_sweep(cfg)[0].points
        return points

    def c6_sweep(self, r: int) -> dict:
        return self.sweep(SWEEP, r, C6_VARIANTS, C6_RATES, C6_TRIALS, noiseless=False, csv_stem="c6")

    def csv_bytes(self) -> bytes:
        return b"".join(
            (self.out_dir / f"c6_{variant.replace('+', '-')}.csv").read_bytes() for variant, _ in C6_VARIANTS
        )

    def check_sweep(self, points: dict, variants, rates, trials: int) -> tuple[int, int]:
        iterations = errors = 0
        for variant, k in variants:
            pts = points[variant]
            checks.require(len(pts) == len(rates), f"{variant}: {len(pts)} points for {len(rates)} rates")
            for pt, rate in zip(pts, rates):
                checks.require(pt.trials == trials, f"{variant} rate {rate}: {pt.trials} trials, not {trials}")
                n_symbols = 2 * math.ceil(k / rate)
                checks.require(pt.n_symbols == n_symbols, f"{variant} rate {rate}: N={pt.n_symbols}, not {n_symbols}")
                checks.require(pt.bit_errors == round(pt.ber * trials * k), f"{variant}: BER disagrees with its count")
                iterations += round(pt.avg_iters * pt.trials)
                errors += pt.bit_errors
        return iterations, errors

    def probe(self, r: int) -> dict:
        return self.sweep(PROBE, r, PROBE_VARIANTS, (PROBE_RATE,), 1, noiseless=True)

    def check_probe(self, points: dict) -> tuple[int, int]:
        iterations, errors = self.check_sweep(points, PROBE_VARIANTS, (PROBE_RATE,), 1)
        checks.require(errors == 0, f"noiseless probe decoded with {errors} bit errors")
        return iterations, errors

    def certify(self, r: int, samples: int = CERT_SAMPLES):
        lib = self.lib
        verdict = lib.check_nonzero_condition(self.ws, DEGREE, WeightAssignment.WITHOUT_REPLACEMENT)
        template = lib.check_template(zero_sum_row_template())
        recursion = lib.ambiguity_recursion(list(self.ws.exact), DEGREE)
        shaping = lib.gaussian_fit_check(self.ws, DEGREE, SHAPING_DELTA, SHAPING_EPS, samples, stream(self.seed, CERT, r))
        return verdict, template, recursion, shaping

    def check_cert(self, out) -> tuple[int, int]:
        verdict, template, recursion, shaping = out
        checks.require(verdict.ok == (not self.ref_set_has_zero_sum), f"zero-sum verdict {verdict.ok} disagrees")
        checks.check_witness(verdict, self.ws.exact)
        checks.require(template.ok == (not self.ref_template_has_zero_sum), "template verdict disagrees")
        checks.check_witness(template, zero_sum_row_template())
        unique = 1 - Fraction(recursion.e_l)
        checks.require(unique == self.ref_unique_fraction, f"1 - e_l = {unique}, brute force {self.ref_unique_fraction}")
        checks.check_shaping(shaping, SHAPING_DELTA, SHAPING_EPS, CERT_SAMPLES)
        checks.require(shaping.satisfied, "the designed set fails the Gaussian shaping check")
        return 0, 0

    # -- the closed loop ----------------------------------------------------

    def run_op(self, kind: str, r: int, call, check, units) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.op, tracer.round = kind, r
            if kind == "frame":
                tracer.new_frame()
        rec = {"kind": kind, "round": r, "units": 0, "iterations": 0, "bit_errors": 0, "ok": False}
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"op.{kind}"):
                    out = call()
            else:
                out = call()
        except Exception:  # a raising operation is a failed operation; the run goes on
            rec["seconds"] = time.perf_counter() - t0
            self.fail(rec, traceback.format_exc())
            return
        rec["seconds"] = time.perf_counter() - t0
        try:
            rec["units"] = units(out)
            rec["iterations"], rec["bit_errors"] = check(out)
            rec["ok"] = True
        except Exception:  # a failed or crashing check fails the operation
            self.fail(rec, traceback.format_exc())
            return
        self.ops.append(rec)

    def fail(self, rec: dict, message: str) -> None:
        self.ops.append(rec)
        self.failures.append(f"{rec['kind']} round {rec['round']}: {message.strip().splitlines()[-1]}")
        print(f"FAILED {rec['kind']} round {rec['round']}:\n{message}", file=sys.stderr)

    def round_ops(self, r: int):
        q = 0
        for kind in self.kinds:
            if kind == "frame":
                msg = self.message(r, q)  # made before the operation's clock starts
                yield kind, (lambda q=q, msg=msg: self.paper_frame(r, q, msg)), self.check_paper_frame, lambda _: 1
                q += 1
            elif kind == "sweep":
                yield kind, lambda: self.c6_sweep(r), lambda pts: self.check_c6(r, pts), sweep_frames
            elif kind == "cert":
                yield kind, lambda: self.certify(r), self.check_cert, lambda _: 1
            else:
                yield kind, lambda: self.probe(r), self.check_probe, sweep_frames

    def check_c6(self, r: int, points: dict) -> tuple[int, int]:
        if r == 0:
            self.round0_csv = self.csv_bytes()
        work = self.check_sweep(points, C6_VARIANTS, C6_RATES, C6_TRIALS)
        checks.check_floor_sweep(points, dict(C6_VARIANTS), DEGREE)
        return work

    def run(self, seconds: float) -> int:
        t_start = time.perf_counter()
        r = 0
        while r < self.min_rounds or time.perf_counter() - t_start < seconds:
            for kind, call, check, units in self.round_ops(r):
                self.run_op(kind, r, call, check, units)
            r += 1
        if self.workload == "floor-sweep":
            self.recheck_sweep_determinism()
        return r

    def recheck_sweep_determinism(self) -> None:
        """Re-run round 0's sweep at its seed; its CSV bytes must not change."""
        if self.tracer is not None:
            self.tracer.enabled = False
        first = next(op for op in self.ops if op["kind"] == "sweep" and op["round"] == 0)
        try:
            self.c6_sweep(0)
            same = self.csv_bytes() == self.round0_csv
            message = "a second sweep at the round-0 seed wrote different CSV bytes"
        except Exception:  # the rerun failing fails round 0's sweep
            same, message = False, traceback.format_exc()
        if not same and first["ok"]:
            first["ok"] = False
            self.failures.append(f"sweep round 0: {message.strip().splitlines()[-1]}")
            print(f"FAILED sweep round 0: {message}", file=sys.stderr)

    # -- results ------------------------------------------------------------

    def result(self, rounds: int) -> dict:
        def rate(kind: str) -> float:
            ops = [op for op in self.ops if op["kind"] == kind]
            return sum(op["units"] for op in ops) / sum(op["seconds"] for op in ops)

        frame_ops = [op for op in self.ops if op["kind"] == self.frame_kind]
        head = [op for op in frame_ops if op["round"] < self.min_rounds]
        by_kind = {}
        for op in self.ops:
            k = by_kind.setdefault(op["kind"], {"ops": 0, "failed": 0, "seconds": 0.0, "units": 0})
            k["ops"] += 1
            k["failed"] += int(not op["ok"])
            k["seconds"] += op["seconds"]
            k["units"] += op["units"]
            k.setdefault("op_seconds", []).append(op["seconds"])
        failed = sum(1 for op in self.ops if not op["ok"])
        res = {
            "workload": self.workload,
            "seed": self.seed,
            "rounds": rounds,
            "attempted": len(self.ops),
            "failed": failed,
            "failures": self.failures,
            "frames_per_s": rate(self.frame_kind),
            "certs_per_s": rate("cert"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_by_kind": by_kind,
            "work": {
                "prefix_rounds": self.min_rounds,
                "prefix_iterations": sum(op["iterations"] for op in head),
                "prefix_bit_errors": sum(op["bit_errors"] for op in head),
                "iterations": sum(op["iterations"] for op in frame_ops),
                "bit_errors": sum(op["bit_errors"] for op in frame_ops),
            },
            "environment": environment(),
        }
        if self.tracer is not None:
            res["per_layer"] = per_layer_metrics(self.tracer.spans, self.op_priority, self.min_rounds)
        return res


def sweep_frames(points: dict) -> int:
    return sum(p.trials for pts in points.values() for p in pts)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "afc": afc.__version__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if Path(afc.__file__).resolve().parent != ROOT / "src" / "afc":
        print(f"afc was imported from {afc.__file__}, not from this checkout", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    bench = Bench(args.workload, args.seed, bool(args.trace), out_dir)
    bench.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    bench.prepare_checks()
    rounds = bench.run(args.seconds)
    res = bench.result(rounds)
    if bench.tracer is not None:
        bench.tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.spans.json")
    print("RESULT " + json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
