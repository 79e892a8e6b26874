"""Command line front end.

Exit codes: 0 success, 2 config rejection, 3 silent corruption detected.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, emit_outputs, load_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratelessnc",
        description="Monte Carlo experiments for rateless network error correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment and write trials.csv / summary.json")
    run_p.add_argument("--config", required=True, help="experiment config (YAML)")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--trials", type=int, default=None, help="override trial count")
    run_p.add_argument("--seed", type=int, default=None, help="override base seed")
    run_p.add_argument("--scheme", choices=["sc", "rs"], default=None, help="override scheme")

    val_p = sub.add_parser("validate", help="check a config against all parameter rules")
    val_p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {k: getattr(args, k, None) for k in ("trials", "seed", "scheme")}
    try:
        cfg = load_config(args.config, overrides=overrides)
    except ConfigError as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("config OK")
        return 0

    records, summary = run_experiment(cfg)
    csv_path, summary_path = emit_outputs(records, summary, args.out)
    print(f"wrote {csv_path} and {summary_path}")
    print(
        f"trials={summary.trials} mean_rate={summary.mean_rate:.4f} "
        f"bound={summary.theoretical_rate_bound:.4f} "
        f"outcomes={summary.outcome_counts} "
        f"silent_corruption={summary.silent_corruption_count}"
    )
    if summary.silent_corruption_count > 0:
        print("SILENT CORRUPTION DETECTED", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
