"""Command line front end: the parser and the exit-code contract.

Exit codes: 0 on success, 2 for configuration problems (bad flags,
malformed or inconsistent config files, an output path that cannot be
written), 3 for data problems (missing or unreadable inputs).
Diagnostics go to stderr as a single JSON object so callers can parse
failures; result summaries go to stdout.

This module imports only the standard library, `__version__` and the
two error classes. The commands live in `earpipe.commands`, which
`main` imports once argparse has accepted a command, so `--version`,
`--help` and usage errors load no numpy and no processing layer.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import ConfigError, DataError


class _Parser(argparse.ArgumentParser):
    """Usage errors are ConfigErrors, reported as one JSON object; subparsers share it."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="earpipe",
        description="Around-the-ear EEG/ECG processing: parse, clean, "
        "score bands, recover heartbeats, compare and analyze.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", default=None, help="pipeline INI config (used by run)")
    parser.add_argument(
        "--seed", type=int, default=None, help="override a synth spec's seed (run ignores it)"
    )
    parser.add_argument(
        "--line-freq",
        type=float,
        choices=(50.0, 60.0),
        default=None,
        help="override the mains frequency from the config",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="decode a raw amplifier byte stream to a session CSV")
    p.add_argument("--raw", required=True, help="raw packet stream file")
    p.add_argument("--rate", type=float, default=125.0, help="nominal frame rate in Hz")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("synth", help="generate synthetic sessions from a spec file")
    p.add_argument("--spec", required=True, help="INI spec with [synth] kind/seed")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("run", help="run the full cleaning and scoring chain")
    p.add_argument("--config", default=argparse.SUPPRESS, help="pipeline INI config")
    p.add_argument("--out-dir", default=None, help="override [output] dir")

    p = sub.add_parser("bands", help="band powers from a session CSV without cleaning")
    p.add_argument("--session", required=True)
    p.add_argument("--events", default=None)
    p.add_argument("--bands", default=None, help="name:lo:hi[,name:lo:hi...]")
    p.add_argument("--segment", type=int, default=256)
    p.add_argument("--overlap", type=int, default=64)
    p.add_argument("--participant", default="P01")
    p.add_argument("--out", required=True)

    p = sub.add_parser("ecg", help="detect beats on one channel and write R-R intervals")
    p.add_argument("--session", required=True)
    p.add_argument("--channel", required=True, help="channel label or 1-based index")
    p.add_argument("--out", required=True)

    p = sub.add_parser("agree", help="compare two R-R series (Bland-Altman)")
    p.add_argument("--ref", required=True, help="reference rr.csv")
    p.add_argument("--alt", required=True, help="alternative rr.csv")
    p.add_argument("--tolerance", type=float, default=0.15, help="beat match tolerance in s")
    p.add_argument("--out", default=None, help="also write the report to this JSON file")

    p = sub.add_parser("analyze", help="group regressions and contrasts over band tables")
    p.add_argument("--bands", required=True, nargs="+", help="one or more band table CSVs")
    p.add_argument("--scores", default=None, help="questionnaire scores CSV")
    p.add_argument(
        "--exclude-condition",
        action="append",
        default=None,
        help="condition left out of the score regressions, repeatable "
        "(default: eyes_open and eyes_closed; contrasts always keep all)",
    )
    p.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        from . import commands

        return getattr(commands, f"cmd_{args.command}")(args)
    except (ConfigError, DataError, OSError) as exc:
        # inputs are read through load_input and read_ini, so an OSError
        # here is a write to a path named by a flag or by [output] dir
        if isinstance(exc, OSError):
            exc = ConfigError(f"cannot write {exc.filename}: {exc.strerror}")
        kind, code = ("data", 3) if isinstance(exc, DataError) else ("config", 2)
        print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
