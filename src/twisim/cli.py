"""Command-line interface.

Commands: analytic, simulate, sweep, bounds, plan, reproduce.  Each reads a
JSON config file; --seed, --trials, --threads and --out override its fields.
reproduce --figure 7 or 8 rebuilds a reference curve without a config file.
Options may come before or after the config, as --name VALUE or --name=VALUE,
and a long option may be cut to a unique prefix (--thr for --threads); --
ends the options.  -h or --help prints this text.
Exit codes: 0 success, 2 usage or config error, 3 runtime error, 4 I/O error.
"""

from __future__ import annotations

import getopt
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
_MINIMUM = {"seed": 0, "trials": 1, "threads": 1}  # the integer overrides and their least values
_OPTIONS = ("out=", "figure=", "seed=", "trials=", "threads=")
_USAGE = "usage: twisim COMMAND [CONFIG] [--seed N] [--trials N] [--threads N] [--out CSV] [--figure {7,8}]"


def _load(argv: Sequence[str]) -> Optional[ExperimentConfig]:
    """The checked config that ``argv`` names, with its overrides in place,
    or None if it asks for help.  A usage error raises ``GetoptError``."""
    cut = argv.index("--") if "--" in argv else len(argv)
    if any(a == "-h" or a.startswith("--h") and "--help".startswith(a) for a in argv[:cut]):
        return None
    opts, args, rest = [], [], argv[:cut]
    while rest:  # getopt stops at each non-option; gnu_getopt would stop for good under POSIXLY_CORRECT
        found, rest = getopt.getopt(rest, "", _OPTIONS)
        opts += found
        args, rest = args + list(rest[:1]), rest[1:]
    args += argv[cut + 1 :]
    options = {opt[2:]: value for opt, value in opts}  # the last of a repeated option wins
    command = args[0] if args else None
    if command not in _SUBCOMMAND_KINDS:
        raise getopt.GetoptError(f"expected a command, one of {', '.join(_SUBCOMMAND_KINDS)}")
    if len(args) > 2 or (len(args) == 1 and command != "reproduce"):
        raise getopt.GetoptError(f"{command} takes one config file, got {len(args) - 1}")
    overrides = {"output": options.pop("out")} if "out" in options else {}
    for name, text in options.items():
        try:
            overrides[name] = int(text)
        except ValueError:
            raise getopt.GetoptError(f"option --{name}: invalid int value: {text!r}") from None
    figure = overrides.pop("figure", None)
    if figure is not None and command != "reproduce":
        raise getopt.GetoptError(f"option --figure: only reproduce takes it, not {command}")
    for name, minimum in _MINIMUM.items():
        if overrides.get(name, minimum) < minimum:
            raise ConfigError(f"--{name} must be >= {minimum}, got {overrides[name]}")
    if figure is not None:
        if len(args) == 2:
            raise ConfigError("reproduce takes a config file or --figure, not both")
        cfg = config_from_json(b'{"kind":"reproduce","params":{"figure":%d}}' % figure, **overrides)
    elif len(args) == 1:
        raise ConfigError("reproduce needs a config file or --figure")
    else:
        cfg = load_config(args[1], **overrides)
    kinds = _SUBCOMMAND_KINDS[command]
    if cfg.kind not in kinds:
        raise ConfigError(f"kind: subcommand {command!r} expects {' or '.join(kinds)}, got {cfg.kind!r}")
    if command == "sweep" and not cfg.w_sweep:
        raise ConfigError("w_sweep: sweep subcommand needs a nonempty w_sweep list")
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = _load(sys.argv[1:] if argv is None else argv)
        if cfg is None:
            print(f"{_USAGE}\n\n{__doc__ or ''}", end="")
            return EXIT_OK
        execute(cfg)
    except getopt.GetoptError as exc:
        print(f"{_USAGE}\ntwisim: error: {exc.msg}", file=sys.stderr)
        return EXIT_CONFIG
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
