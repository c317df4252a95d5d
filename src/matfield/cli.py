"""`matfield` command line interface.

One subcommand per harness mode.  Exit codes: 0 all checks passed,
1 invariant failure in the report, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._version import __version__
from .errors import ConfigError, MatfieldError
from .experiments import _MODE_TABLE, build_config, load_config_file, render_csv, render_table, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matfield",
        description="Weighted-MSE transceiver design experiments and verification.",
    )
    parser.add_argument("--version", action="version", version=f"matfield {__version__}")
    sub = parser.add_subparsers(dest="mode", metavar="mode")
    for mode, (summary, _, _) in _MODE_TABLE.items():
        p = sub.add_parser(mode, help=summary)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, metavar="N", help="master seed")
        p.add_argument("--trials", type=int, metavar="N", help="number of trials")
        p.add_argument("--budget", type=int, metavar="N", help="oracle sample budget")
        p.add_argument("--out", metavar="PATH", help="write the JSON report here")
        p.add_argument("--csv", metavar="PATH", help="write per-trial CSV here")
        p.add_argument(
            "--jitter-pi",
            action="store_true",
            default=None,
            help="regularize a singular offset matrix in log-det designs",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.mode is None:
        build_parser().print_help()
        return 2
    try:
        data = load_config_file(args.config) if args.config else {}
        cfg = build_config(
            data,
            mode=args.mode,
            seed=args.seed,
            trials=args.trials,
            budget=args.budget,
            jitter_pi=args.jitter_pi,
        )
        report = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MatfieldError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    print(render_table(report))
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(render_csv(report))
    except OSError as exc:
        print(f"config error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return 0 if report["pass"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
