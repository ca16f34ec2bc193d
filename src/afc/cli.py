"""Command-line front end: sweeps, weight-set checks, and analysis reports."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np

from . import rng as rngmod
from .analysis import (
    CandidateFamily,
    WeightSearchError,
    ambiguity_recursion,
    check_nonzero_condition,
    difference_projection,
    gaussian_fit_check,
    pairwise_error_prob,
    search_weight_set,
)
from .channel import snr_to_sigma
from .core import (
    DegreeDistribution,
    EncoderPolicy,
    Selection,
    WeightAssignment,
    build_graph,
    zero_sum_row_template,
)
from .harness import (
    VARIANTS,
    ExperimentConfig,
    check_outer_code,
    config_from_mapping,
    parse_config_file,
    resolve_weight_set,
    run_ber_sweep,
    run_throughput_sweep,
)


def _sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--trials", type=int)
    p.add_argument("--noiseless", action="store_const", const=True, default=None)
    p.add_argument("--k-msg", type=int, dest="k_msg")
    p.add_argument("--snr-db", dest="snr_db", help="comma-separated dB values")
    p.add_argument("--precode-rate", type=float, dest="precode_rate")
    p.add_argument("--weight-set", dest="weight_set")
    p.add_argument("--assignment", choices=[a.value for a in WeightAssignment])
    p.add_argument("--per-complex-noise", action="store_const", const=True, default=None,
                   dest="per_complex_noise",
                   help="quoted SNR sets noise variance per complex sample")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--damping", type=float)
    p.add_argument("--gnuplot", action="store_const", const=True, default=None)


def _build_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> ExperimentConfig:
    """Config file values, overridden by every flag named after a config field.

    A refused configuration exits through ``parser.error`` (code 2).
    """
    mapping = parse_config_file(args.config) if args.config else {}
    for f in fields(ExperimentConfig):
        if getattr(args, f.name, None) is not None:
            mapping[f.name] = getattr(args, f.name)
    try:
        cfg = config_from_mapping(mapping)
        if args.command == "throughput-sweep":  # it builds the outer code whatever cfg.variants holds
            check_outer_code(cfg)
        return cfg
    except ValueError as exc:
        parser.error(str(exc))


def _parse_weights(text: str):
    return [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="afc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ber = sub.add_parser("ber-sweep", help="BER vs rate at fixed SNR")
    _sweep_flags(p_ber)
    p_ber.add_argument("--rates", help="comma-separated rate grid (message bits per complex use)")
    p_ber.add_argument("--variants", help="subset of: " + ",".join(VARIANTS))

    p_thr = sub.add_parser("throughput-sweep", help="achievable rate vs SNR at target BER")
    _sweep_flags(p_thr)
    p_thr.add_argument("--target-ber", type=float, dest="target_ber")

    p_w = sub.add_parser("weights", help="weight-set design conditions")
    wsub = p_w.add_subparsers(dest="action", required=True)
    p_wc = wsub.add_parser("check", help="zero-sum condition for a set or row template")
    p_wc.add_argument("--values", help="comma-separated weights, fractions allowed")
    p_wc.add_argument("--zero-sum-template", action="store_true", help="check the signed baseline row")
    p_wc.add_argument("--degree", type=int, default=None)
    p_wc.add_argument("--assignment", choices=[a.value for a in WeightAssignment],
                      default=WeightAssignment.WITHOUT_REPLACEMENT.value)
    p_ws = wsub.add_parser("search", help="search for a set passing both conditions")
    p_ws.add_argument("--size", type=int, required=True)
    p_ws.add_argument("--degree", type=int, required=True)
    p_ws.add_argument("--delta", type=float, default=0.2)
    p_ws.add_argument("--eps", type=float, default=1e-4)
    p_ws.add_argument("--family", choices=[f.value for f in CandidateFamily],
                      default=CandidateFamily.RECIPROCAL_PRIMES.value)
    p_ws.add_argument("--seed", type=int, default=0)
    p_ws.add_argument("--samples", type=int, default=2_000_000)
    p_ws.add_argument("--budget", type=int, default=64)

    p_a = sub.add_parser("analyze", help="closed-form analysis reports")
    asub = p_a.add_subparsers(dest="action", required=True)
    p_au = asub.add_parser("unique-solution", help="non-uniqueness recursion trace")
    p_au.add_argument("--weights", required=True, help="comma-separated, fractions allowed")
    p_au.add_argument("--l-max", type=int, dest="l_max", default=None)
    p_ap = asub.add_parser("pairwise", help="pairwise error probability on a seeded instance")
    p_ap.add_argument("--k", type=int, default=16)
    p_ap.add_argument("--rows", type=int, default=32)
    p_ap.add_argument("--snr-db", type=float, dest="snr_db", default=15.0)
    p_ap.add_argument("--flips", default="0", help="comma-separated bit indices to flip")
    p_ap.add_argument("--seed", type=int, default=0)
    p_ap.add_argument("--mc-draws", type=int, dest="mc_draws", default=0,
                      help="optionally cross-check with this many noise draws")
    p_as = asub.add_parser("shaping", help="Gaussian shaping report for a weight set")
    p_as.add_argument("--weight-set", dest="weight_set", default="reciprocal-primes")
    p_as.add_argument("--degree", type=int, default=8)
    p_as.add_argument("--delta", type=float, default=0.2)
    p_as.add_argument("--eps", type=float, default=1e-4)
    p_as.add_argument("--samples", type=int, default=10_000_000)
    p_as.add_argument("--seed", type=int, default=0)
    p_as.add_argument("--out", default=None, help="write the per-bin CSV here")

    args = parser.parse_args(argv)

    if args.command == "ber-sweep":
        results = run_ber_sweep(_build_config(parser, args))
        for res in results:
            for pt in res.points:
                flag = " low-confidence" if pt.low_confidence else ""
                print(
                    f"{res.variant}: rate {pt.rate_bits_per_cu:.4g} N={pt.n_symbols} "
                    f"BER {pt.ber:.3e} FER {pt.fer:.3e} trials {pt.trials}{flag}"
                )
        return 0

    if args.command == "throughput-sweep":
        res = run_throughput_sweep(_build_config(parser, args))
        for pt in res.points:
            status = "" if pt.reached else " (unreached)"
            print(
                f"snr {pt.snr_db} dB: rate {pt.rate_bits_per_cu:.4g} bits/cu "
                f"N={pt.n_symbols} BER {pt.ber:.3e}{status}"
            )
        return 0

    if args.command == "weights" and args.action == "check":
        assignment = WeightAssignment(args.assignment)
        if args.zero_sum_template:
            target = zero_sum_row_template()
            check = check_nonzero_condition(target)
        else:
            if not args.values:
                parser.error("weights check needs --values or --zero-sum-template")
            try:  # a set or degree the encoder refuses is a usage error
                check = check_nonzero_condition(resolve_weight_set(args.values), args.degree, assignment)
            except ValueError as exc:
                parser.error(str(exc))
        if check.ok:
            print("PASS: no signed sub-selection sums to zero")
            return 0
        terms = " ".join(f"{c:+d}*({w})" for c, w in check.witness)
        print(f"FAIL: zero sum witness: {terms} = 0")
        return 1

    if args.command == "weights" and args.action == "search":
        rng = rngmod.substream(args.seed, rngmod.SEARCH)
        try:
            ws = search_weight_set(
                args.size, args.degree, args.delta, args.eps,
                CandidateFamily(args.family), rng,
                budget=args.budget, n_samples=args.samples,
            )
        except WeightSearchError as exc:
            print(f"FAILED: {exc}")
            return 1
        except ValueError as exc:  # a size, degree or shaping parameter the search refuses
            parser.error(str(exc))
        pretty = ", ".join(str(e) for e in (ws.exact or ws.values))
        print(f"FOUND: {{{pretty}}}")
        return 0

    if args.command == "analyze" and args.action == "unique-solution":
        try:  # unparsable weights, an l_max the recursion refuses or one past the cap
            weights = _parse_weights(args.weights)
            l_max = args.l_max or len(weights)
            rep = ambiguity_recursion(weights, l_max)
        except ValueError as exc:
            parser.error(str(exc))
        print(f"e_{l_max} = {rep.e_l} (unique-solution fraction {rep.unique_fraction})")
        for l, (E, e) in enumerate(zip(rep.E_trace, rep.e_trace[1:]), start=2):
            print(f"  step {l} -> {l + 1}: collision prob {E}, e = {e}")
        return 0

    if args.command == "analyze" and args.action == "pairwise":
        ws = resolve_weight_set("reciprocal-primes")
        dist = DegreeDistribution.fixed(8)
        policy = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.WITHOUT_REPLACEMENT)
        rng = rngmod.substream(args.seed, rngmod.GRAPH)
        try:  # a size, row count, flip index or SNR the instance refuses
            graph = build_graph(args.k, args.rows, dist, ws, policy, rng)
            flips = [int(x) for x in args.flips.split(",")]
            b = np.ones(args.k)
            sigma = float(np.sqrt(snr_to_sigma(args.snr_db)))
            p = pairwise_error_prob(graph, b, flips, sigma)
        except ValueError as exc:
            parser.error(str(exc))
        print(f"pairwise error probability (closed form): {p:.6e}")
        if args.mc_draws:
            noise_rng = rngmod.substream(args.seed, rngmod.NOISE)
            t = difference_projection(graph, b, flips)
            wins = 0
            thresh = float(np.dot(t, t))
            for _ in range(args.mc_draws):
                n = noise_rng.normal(0.0, sigma, graph.m)
                wins += int(np.dot(n, t) > thresh)
            print(f"Monte Carlo estimate over {args.mc_draws} draws: {wins / args.mc_draws:.6e}")
        return 0

    if args.command == "analyze" and args.action == "shaping":
        rng = rngmod.substream(args.seed, rngmod.SEARCH, 1)
        try:  # a set, degree or shaping parameter the check refuses is a usage error
            ws = resolve_weight_set(args.weight_set)
            report = gaussian_fit_check(ws, args.degree, args.delta, args.eps, args.samples, rng)
        except ValueError as exc:
            parser.error(str(exc))
        print(f"satisfied: {report.satisfied} over {len(report.bins)} bins")
        for b in report.bins:
            mark = "ok " if b.ok else "BAD"
            print(f"  bin {b.index:2d} [{mark}] p={b.p_hat:.6f} q={b.q_ref:.6f} gap^2={b.gap_sq:.3e}")
        if args.out:
            report.write_csv(args.out)
            print(f"wrote {args.out}")
        return 0

    parser.error("unhandled command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
