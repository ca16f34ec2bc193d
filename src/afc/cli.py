"""Command-line front end: sweeps, weight-set checks, and analysis reports."""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import fields

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
    ExperimentConfig,
    config_from_mapping,
    parse_config_file,
    parse_weights,
    resolve_weight_set,
    run_ber_sweep,
    run_throughput_sweep,
)


def _sweep_parser(sub, name: str, summary: str) -> None:
    """A sweep subcommand: ``--config`` plus one dashed flag per config key."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--config", help="key = value config file; flags override it")
    hints = typing.get_type_hints(ExperimentConfig)
    for f in fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        if hints[f.name] is bool:
            p.add_argument(flag, dest=f.name, action="store_const", const=True)
        else:
            shown = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else f.default
            p.add_argument(flag, dest=f.name, help=f"default {shown}")


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """Config file values, overridden by every flag given."""
    mapping = parse_config_file(args.config) if args.config else {}
    for f in fields(ExperimentConfig):
        if getattr(args, f.name) is not None:
            mapping[f.name] = getattr(args, f.name)
    return config_from_mapping(mapping)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="afc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _sweep_parser(sub, "ber-sweep", "BER vs rate at fixed SNR")
    _sweep_parser(sub, "throughput-sweep", "achievable rate vs SNR at target BER")

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

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. A refused input (a ValueError) is a usage error, exit 2."""
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:
        parser.error(str(exc))


def _run(args: argparse.Namespace) -> int:
    if args.command == "ber-sweep":
        results = run_ber_sweep(_config(args))
        for res in results:
            for pt in res.points:
                flag = " low-confidence" if pt.low_confidence else ""
                print(
                    f"{res.variant}: rate {pt.rate_bits_per_cu:.4g} N={pt.n_symbols} "
                    f"BER {pt.ber:.3e} FER {pt.fer:.3e} trials {pt.trials}{flag}"
                )
        return 0

    if args.command == "throughput-sweep":
        res = run_throughput_sweep(_config(args))
        for pt in res.points:
            status = "" if pt.reached else " (unreached)"
            print(
                f"snr {pt.snr_db} dB: rate {pt.rate_bits_per_cu:.4g} bits/cu "
                f"N={pt.n_symbols} BER {pt.ber:.3e}{status}"
            )
        return 0

    if args.command == "weights" and args.action == "check":
        if args.zero_sum_template:
            check = check_nonzero_condition(zero_sum_row_template())
        elif args.values:
            ws = resolve_weight_set(args.values)
            check = check_nonzero_condition(ws, args.degree, WeightAssignment(args.assignment))
        else:
            raise ValueError("weights check needs --values or --zero-sum-template")
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
        pretty = ", ".join(str(e) for e in (ws.exact or ws.values))
        print(f"FOUND: {{{pretty}}}")
        return 0

    if args.command == "analyze" and args.action == "unique-solution":
        weights = parse_weights(args.weights)
        l_max = len(weights) if args.l_max is None else args.l_max
        rep = ambiguity_recursion(weights, l_max)
        print(f"e_{l_max} = {rep.e_l} (unique-solution fraction {rep.unique_fraction})")
        for l, (E, e) in enumerate(zip(rep.E_trace, rep.e_trace[1:]), start=2):
            print(f"  step {l} -> {l + 1}: collision prob {E}, e = {e}")
        return 0

    if args.command == "analyze" and args.action == "pairwise":
        if args.mc_draws < 0:
            raise ValueError("mc_draws must be >= 0")
        ws = resolve_weight_set("reciprocal-primes")
        dist = DegreeDistribution.fixed(8)
        policy = EncoderPolicy(Selection.MIN_DEGREE_FIRST, WeightAssignment.WITHOUT_REPLACEMENT)
        rng = rngmod.substream(args.seed, rngmod.GRAPH)
        graph = build_graph(args.k, args.rows, dist, ws, policy, rng)
        flips = [int(x) for x in args.flips.split(",")]
        b = np.ones(args.k)
        sigma = float(np.sqrt(snr_to_sigma(args.snr_db)))
        p = pairwise_error_prob(graph, b, flips, sigma)
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

    # analyze shaping, the one command left
    rng = rngmod.substream(args.seed, rngmod.SEARCH, 1)
    ws = resolve_weight_set(args.weight_set)
    report = gaussian_fit_check(ws, args.degree, args.delta, args.eps, args.samples, rng)
    print(f"satisfied: {report.satisfied} over {len(report.bins)} bins")
    for b in report.bins:
        mark = "ok " if b.ok else "BAD"
        print(f"  bin {b.index:2d} [{mark}] p={b.p_hat:.6f} q={b.q_ref:.6f} gap^2={b.gap_sq:.3e}")
    if args.out:
        report.write_csv(args.out)
        print(f"wrote {args.out}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
