"""Command-line front end.

Subcommands: run, validate, codec (encode/decode/stats), sweep-report.
Exit codes: 0 success, 1 scenario invalid, 2 run-time assertion failure,
3 acceptance-threshold violation.  GMETRO_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import codec, engine
from .codec import MgmtFrame, MsgType
from .engine import DeadlockError, EngineError, SafetyViolation
from .scenario import ScenarioError, parse_scenario, render_scenario

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_THRESHOLD = 3


def _load_scenario(path: str):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    try:
        return parse_scenario(text)
    except ScenarioError as err:
        for issue in err.issues:
            print(f"{path}:{issue}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _effective_seed(args, scenario):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GMETRO_SEED")
    if env is None:
        return scenario.run.seed
    try:
        return int(env)
    except ValueError:
        print("error: GMETRO_SEED must be an integer", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _with_seed(scenario, seed):
    return dataclasses.replace(scenario, run=dataclasses.replace(scenario.run, seed=seed))


def cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    scenario = _with_seed(scenario, _effective_seed(args, scenario))
    try:
        trace, metrics = engine.run(scenario)
    except (SafetyViolation, DeadlockError, EngineError) as err:
        print(f"run aborted: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.trace:
        with open(args.trace, "w") as f:
            f.write(trace.render())
    if args.metrics:
        with open(args.metrics, "w") as f:
            f.write(metrics.to_lines())
    if args.json:
        with open(args.json, "w") as f:
            f.write(metrics.to_json())
    if not args.quiet:
        sys.stdout.write(metrics.to_lines())
    if args.require_all_locked:
        locked = set(metrics.time_to_lock_s)
        wanted = {r.name for r in scenario.rus}
        if locked != wanted:
            print(f"threshold violation: unlocked RUs {sorted(wanted - locked)}",
                  file=sys.stderr)
            return EXIT_THRESHOLD
    if args.max_offset_ghz is not None and \
            metrics.max_locked_offset_ghz > args.max_offset_ghz:
        print(f"threshold violation: max offset {metrics.max_locked_offset_ghz:.2f} GHz",
              file=sys.stderr)
        return EXIT_THRESHOLD
    if args.min_margin_db is not None and \
            math.isfinite(metrics.min_crosstalk_margin_db) and \
            metrics.min_crosstalk_margin_db < args.min_margin_db:
        print(f"threshold violation: crosstalk margin "
              f"{metrics.min_crosstalk_margin_db:.1f} dB", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = _load_scenario(args.scenario)
    print(f"{args.scenario}: ok "
          f"({len(scenario.rus)} RU(s), {len(scenario.cos)} CO(s), "
          f"{scenario.plan.channel_count} channels)")
    if args.render:
        sys.stdout.write(render_scenario(scenario))
    return EXIT_OK


def cmd_codec_encode(args) -> int:
    try:
        msg_type = MsgType[args.type.upper()]
        payload = bytes.fromhex(args.payload) if args.payload else b""
        frame = MgmtFrame(msg_type, args.seq, payload)
    except (KeyError, ValueError, codec.PayloadTooLong) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    print(codec.bits_to_hex(codec.frame_pack(frame)))
    return EXIT_OK


def cmd_codec_decode(args) -> int:
    try:
        bits = codec.hex_to_bits(args.hex)
        frame, stats = codec.frame_unpack(bits)
    except (ValueError, codec.CodecError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    print(f"type={frame.msg_type.name} seq={frame.seq} "
          f"payload={frame.payload.hex() or '-'} "
          f"blocks={stats.blocks} corrected={stats.corrected}")
    return EXIT_OK


def cmd_codec_stats(args) -> int:
    try:
        analytic = codec.expected_message_loss_interval(args.ber)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    print(f"ber={args.ber:g}")
    print(f"block_loss_probability={codec.block_loss_probability(args.ber):.6e}")
    print(f"analytic_interval_s={analytic:.6e}")
    print(f"analytic_interval_h={analytic / 3600.0:.3f}")
    if args.bits:
        rng = np.random.default_rng(args.mc_seed)
        try:
            mc = codec.simulate_message_loss_interval(args.ber, args.bits, rng)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_INVALID
        print(f"monte_carlo_interval_s={mc:.6e}")
        if math.isfinite(mc):
            print(f"relative_error={abs(mc - analytic) / analytic:.4f}")
    return EXIT_OK


def cmd_sweep_report(args) -> int:
    scenario = _load_scenario(args.scenario)
    base = _effective_seed(args, scenario)
    seeds = [base + i for i in range(args.seeds)]
    names = [r.name for r in scenario.rus]
    rows = []
    for seed in seeds:
        try:
            _, metrics = engine.run(_with_seed(scenario, seed))
        except (SafetyViolation, DeadlockError, EngineError) as err:
            print(f"seed {seed}: run aborted: {err}", file=sys.stderr)
            return EXIT_RUNTIME
        rows.append((seed, metrics))
    width = max(len(n) for n in names)
    header = "seed  " + "  ".join(f"{n:>{max(width, 7)}}" for n in names) + "   worst"
    print(header)
    for seed, metrics in rows:
        cells = []
        for n in names:
            t = metrics.time_to_lock_s.get(n)
            cells.append(f"{t:>{max(width, 7)}.3f}" if t is not None
                         else f"{'-':>{max(width, 7)}}")
        worst = max(metrics.time_to_lock_s.values()) if metrics.time_to_lock_s else float("nan")
        print(f"{seed:<5} " + "  ".join(cells) + f"  {worst:6.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmetro",
        description="Deterministic simulator for self-tuning WDM transceivers")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--trace", help="write the event trace to this file")
    run_p.add_argument("--metrics", help="write key=value metrics to this file")
    run_p.add_argument("--json", help="write metrics as JSON to this file")
    run_p.add_argument("--quiet", action="store_true")
    run_p.add_argument("--require-all-locked", action="store_true",
                       help="exit 3 unless every RU locked")
    run_p.add_argument("--max-offset-ghz", type=float,
                       help="exit 3 if the max locked offset exceeds this")
    run_p.add_argument("--min-margin-db", type=float,
                       help="exit 3 if the crosstalk margin fell below this")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="parse and validate a scenario file")
    val_p.add_argument("scenario")
    val_p.add_argument("--render", action="store_true",
                       help="print the canonical form")
    val_p.set_defaults(func=cmd_validate)

    codec_p = sub.add_parser("codec", help="management-channel codec tools")
    codec_sub = codec_p.add_subparsers(dest="codec_command", required=True)
    enc = codec_sub.add_parser("encode", help="pack a frame to wire bits (hex)")
    enc.add_argument("--type", required=True,
                     help="message type name, e.g. HELLO or TUNE_REQ")
    enc.add_argument("--seq", type=int, default=0)
    enc.add_argument("--payload", default="", help="payload bytes as hex")
    enc.set_defaults(func=cmd_codec_encode)
    dec = codec_sub.add_parser("decode", help="unpack wire bits given as <bitlen>:<hex>")
    dec.add_argument("hex")
    dec.set_defaults(func=cmd_codec_decode)
    stats = codec_sub.add_parser("stats", help="message-loss statistics at a BER")
    stats.add_argument("--ber", type=float, required=True)
    stats.add_argument("--bits", type=int, default=0,
                       help="also Monte-Carlo over this many simulated bits")
    stats.add_argument("--mc-seed", type=int, default=1)
    stats.set_defaults(func=cmd_codec_stats)

    rep = sub.add_parser("sweep-report",
                         help="tabulate time-to-lock across consecutive seeds")
    rep.add_argument("scenario")
    rep.add_argument("--seeds", type=int, default=5)
    rep.add_argument("--seed", type=int, help="first seed (default: scenario seed)")
    rep.set_defaults(func=cmd_sweep_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
