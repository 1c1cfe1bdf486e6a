"""Command-line entry point.

Subcommands: ``synth`` (generate a synthetic dataset CSV), ``validate``
(check a config file against every rule that ``run`` and ``attack``
apply), ``run`` (full repeated experiment), ``attack`` (re-attack the
stored models and rewrite the scores and both reports), ``report``
(render an existing report as CSV tables or an SVG ROC plot). Exit
codes: 0 success, 1 usage/config error, 2 runtime failure, which
includes a ``run`` or ``attack`` that finished only some repetitions.
"""

from __future__ import annotations

import argparse
import logging
import sys

from leakaudit.config import ConfigError, validate_config
from leakaudit.data import save_dataset
from leakaudit.pipeline import report_render, rerun_attacks, run_experiment
from leakaudit.synth import SynthSpec, synth_dataset

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakaudit",
        description="Membership-inference privacy audit for binary classifiers.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--positive-fraction", type=float, required=True)
    p.add_argument("--separation", type=float, default=SynthSpec.separation)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("validate", help="validate a config file")
    p.add_argument("config")

    p = sub.add_parser("run", help="run the repeated experiment")
    p.add_argument("config")

    p = sub.add_parser("attack", help="re-run attacks on stored artifacts")
    p.add_argument("config")

    p = sub.add_parser("report", help="render an existing report")
    p.add_argument("--report", required=True, help="path to report.json")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on bad usage
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "synth":
            try:
                spec = SynthSpec(
                    n=args.n,
                    dim=args.dim,
                    positive_fraction=args.positive_fraction,
                    separation=args.separation,
                    seed=args.seed,
                )
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            save_dataset(synth_dataset(spec), args.out)
            print(f"wrote {args.out}")
            return EXIT_OK

        if args.command in ("validate", "run", "attack"):
            try:
                cfg = validate_config(args.config)
            except ConfigError as exc:
                for err in exc.errors:
                    print(f"config error: {err}", file=sys.stderr)
                return EXIT_USAGE

        if args.command == "validate":
            print(f"config ok: {args.config} (repetitions={cfg.repetitions}, "
                  f"shadows={cfg.shadow.count}, p_member={cfg.game.p_member})")
            return EXIT_OK

        if args.command in ("run", "attack"):
            report = run_experiment(cfg) if args.command == "run" else rerun_attacks(cfg)
            n_done = report["n_repetitions_completed"]
            verb = "completed" if args.command == "run" else "refreshed"
            print(f"{verb} {n_done}/{cfg.repetitions} repetitions; "
                  f"report at {cfg.output_dir}/report.json")
            return EXIT_OK if n_done == cfg.repetitions else EXIT_RUNTIME

        if args.command == "report":
            written = report_render(args.report, args.format)
            for path in written:
                print(f"wrote {path}")
            return EXIT_OK
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - runtime failure with message
        log.exception("command failed")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
