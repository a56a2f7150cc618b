"""Command-line interface.

Subcommands: analytic, simulate, sweep, bounds, plan, reproduce.  Each takes
a JSON config file; --seed/--trials/--threads/--out override config fields.
Exit codes: 0 success, 2 config error, 3 runtime error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Optional, Sequence

from twisim.config import ConfigError, ExperimentConfig, config_from_json, load_config
from twisim.core import ParameterError
from twisim.harness import execute

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

# subcommand -> allowed config kinds
_SUBCOMMAND_KINDS = {
    "analytic": ("analytic",),
    "simulate": ("chain_sim", "fanout_sim"),
    "sweep": ("chain_sim",),
    "bounds": ("bounds_check",),
    "plan": ("plan",),
    "reproduce": ("reproduce",),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twisim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kinds in _SUBCOMMAND_KINDS.items():
        p = sub.add_parser(name, help=f"run a config of kind {' or '.join(kinds)}")
        if name == "reproduce":
            p.add_argument("config", nargs="?", help="JSON config file, or none with --figure")
            p.add_argument("--figure", type=int, choices=(7, 8), help="reference curve to rebuild, without a config file")
        else:
            p.add_argument("config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--threads", type=int, help="override the worker thread count")
        p.add_argument("--out", help="override the CSV output path")
    return parser


def _load(args) -> ExperimentConfig:
    if args.command == "reproduce" and args.figure is not None:
        if args.config is not None:
            raise ConfigError("reproduce takes a config file or --figure, not both")
        doc = {"kind": "reproduce", "params": {"figure": args.figure}}
        cfg = config_from_json(json.dumps(doc, separators=(",", ":")).encode())
    elif args.config is None:
        raise ConfigError("reproduce needs a config file or --figure")
    else:
        cfg = load_config(args.config)
    kinds = _SUBCOMMAND_KINDS[args.command]
    if cfg.kind not in kinds:
        raise ConfigError(
            f"kind: subcommand {args.command!r} expects {' or '.join(kinds)}, got {cfg.kind!r}"
        )
    if args.command == "sweep" and not cfg.w_sweep:
        raise ConfigError("w_sweep: sweep subcommand needs a nonempty w_sweep list")

    overrides = {} if args.out is None else {"output": args.out}
    for name, minimum in (("seed", 0), ("trials", 1), ("threads", 1)):
        value = getattr(args, name)
        if value is not None:
            if value < minimum:
                raise ConfigError(f"--{name} must be >= {minimum}, got {value}")
            overrides[name] = value
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        execute(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ParameterError, ArithmeticError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
