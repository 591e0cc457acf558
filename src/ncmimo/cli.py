"""Command-line front end.

Subcommands: constants, gain-table, sample, validate.  Output goes to
stdout or --out as CSV (default, '#'-prefixed metadata lines) or JSON,
written to its sink as it is formatted, with bytes fixed by the command's
arguments whatever the sink (--out is not echoed); timing goes to stderr
only.  Every `sample` kind is one `_KINDS` entry: its required options,
the column prefix of a real vector draw and its stacked draw.  An SNR
whose linear value is not a positive finite float is a domain error.
The parser is built once per process: every in-process `main` call
after the first reuses it.

Exit codes: 0 success, 1 usage error or an --out or stdout that cannot
be written, 2 rejected input (DomainError or ConfluenceError), 3
validation suite failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .params import (
    ChannelDims,
    ConfluenceError,
    DomainError,
    derive,
    rho_from_db,
)
from .capacity import (asymptotic_gain_constant, bstm_constant, constant_gap, gain_ratio,
                       ustm_constant)
from .randmat import (
    RNG_ALGORITHM,
    RngHandle,
    chunks,
    sample_isotropic_unitary,
    sample_matrix_beta,
    sample_wishart,
)
from .bstm import noiseless_sv_sample, sample_gain, sample_input
from .statcheck import SUITES, TestReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VALIDATION = 3

_ERRORS = (DomainError, ConfluenceError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# a flat row's items on their own lines at depth 3 of json.dump(indent=2);
# without `indent` the encoder runs in C
_JSON_ROW = json.JSONEncoder(separators=(",\n      ", ": "))


def _config_echo(args) -> dict:
    return {k: v for k, v in vars(args).items()
            if not k.startswith("_") and k not in ("func", "out")}


def _emit(args, columns, rows, warnings_list=()) -> None:
    if args.out == "-" and sys.stdout is None:  # started with descriptor 1 closed
        raise OSError("stdout is closed")
    config = _config_echo(args)
    tool = f"ncmimo {__version__}"
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", encoding="utf-8", newline="")) as fh:
        if args.format == "json":
            # the bytes of json.dump(..., indent=2, sort_keys=True), each row
            # through json's C encoder; "rows" sorts last, so head ends '[]\n}'
            head = json.dumps({"meta": {"tool": tool, "rng": RNG_ALGORITHM, "config": config,
                                        "columns": list(columns),
                                        "warnings": list(warnings_list)},
                               "rows": []}, indent=2, sort_keys=True)
            fh.write(head[:-4])
            sep = "["
            for row in rows:
                fh.write(f"{sep}\n    [\n      {_JSON_ROW.encode(row)[1:-1]}\n    ]")
                sep = ","
            fh.write("[]\n}\n" if sep == "[" else "\n  ]\n}\n")
        else:
            fh.write(f"# tool: {tool}\n# rng: {RNG_ALGORITHM}\n"
                     f"# config: {json.dumps(config, sort_keys=True)}\n{','.join(columns)}\n")
            for row in rows:
                fh.write(",".join(map(_cell, row)) + "\n")
            for w in warnings_list:
                fh.write(f"# warning: {w}\n")


def _dims(args):
    return derive(ChannelDims(T=args.T, M=args.M, N=args.N))


def cmd_constants(args) -> int:
    dp = _dims(args)
    b = bstm_constant(dp)
    u = ustm_constant(dp)
    scale = 1.0 / math.log(2.0) if args.bits else 1.0
    columns = ["T", "M", "N", "prelog", "c_bstm", "c_ustm", "c_gap", "c_gain_limit"]
    row = [args.T, args.M, args.N, b.prelog, b.constant * scale, u.constant * scale,
           constant_gap(dp) * scale, asymptotic_gain_constant(args.T, args.M) * scale]
    for scheme, br in (("bstm", b), ("ustm", u)):
        for name, val in br.terms:
            columns.append(f"{scheme}_{name}")
            row.append(val * scale)
    _emit(args, columns, [row])
    return EXIT_OK


def cmd_gain_table(args) -> int:
    rho_from_db(args.snr_db)  # an SNR out of rho_from_db's domain fails the whole table
    rows = []
    warnings_list = []
    for T in args.T_list:
        for N in args.N_list:
            M = args.M if args.M is not None else min(T // 2, N)
            try:
                dp = derive(ChannelDims(T=T, M=M, N=N))
                g = gain_ratio(dp, args.snr_db)
                rows.append([T, N, M, g])
            except _ERRORS as exc:
                rows.append([T, N, M, None])
                warnings_list.append(f"T={T} N={N} M={M}: {exc}")
    _emit(args, ["T", "N", "M", "gain"], rows, warnings_list)
    return EXIT_OK


# kind -> (required options, column prefix of a real vector draw, stacked draw)
_KINDS = {
    "gain": ("TMN", "d", lambda a, rng: sample_gain(_dims(a), rng, a.count, a.ustm)),
    "input": ("TMN", None, lambda a, rng: sample_input(_dims(a), rng, a.count, a.ustm)),
    "unitary": ("TM", None, lambda a, rng: sample_isotropic_unitary(a.T, a.M, rng, a.count)),
    "wishart": ("mn", None, lambda a, rng: sample_wishart(a.m, a.n, a.scale, rng, a.count)),
    "beta": ("mpn", None, lambda a, rng: sample_matrix_beta(a.m, a.p, a.n, rng, a.count)),
    "noiseless-sv": ("TMN", "sv", lambda a, rng: noiseless_sv_sample(_dims(a), rng, a.count)),
}


class _Rows:
    """The rows of a 2-D array, one per draw: its index, then its entries as
    Python numbers, converted randmat.CHUNK_ENTRIES // width rows at a time
    (one row at least), so the stack is never held whole a second time as
    Python floats."""

    def __init__(self, flat: np.ndarray):
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat)

    def __iter__(self):
        for start, stop in chunks(len(self._flat), self._flat.shape[1]):
            for i, row in enumerate(self._flat[start:stop].tolist(), start):
                yield [i, *row]


def _table(draws: np.ndarray, prefix: str | None) -> tuple[list[str], _Rows]:
    """Columns and rows of a stacked draw, one row per draw: its index, then
    a real vector's entries as prefix1, prefix2, ... or a complex matrix's
    as re_i_j, im_i_j in row-major order."""
    flat = np.ascontiguousarray(draws.reshape(len(draws), -1))
    if np.iscomplexobj(flat):
        columns = [f"{part}_{i}_{j}" for i, j in np.ndindex(draws.shape[1:])
                   for part in ("re", "im")]
        flat = flat.view(flat.real.dtype)
    else:
        columns = [f"{prefix}{i + 1}" for i in range(flat.shape[1])]
    return ["draw"] + columns, _Rows(flat)


def cmd_sample(args) -> int:
    if args.count < 1:
        args._parser.error("--count must be a positive integer")
    if args.ustm and args.kind not in ("gain", "input"):
        args._parser.error("--ustm applies only to --kind gain and input")
    options, prefix, draw = _KINDS[args.kind]
    missing = [f"--{o}" for o in options if getattr(args, o) is None]
    if missing:
        args._parser.error(f"kind '{args.kind}' requires {', '.join(missing)}")
    _emit(args, *_table(draw(args, RngHandle(args.seed)), prefix))
    return EXIT_OK


def cmd_validate(args) -> int:
    reports = SUITES[args.suite](n=args.n, seed=args.seed)
    fields = [f.name for f in dataclasses.fields(TestReport)]
    # the fields are scalars: read them, without astuple's deep copy
    rows = [[args.suite, *(getattr(r, f) for f in fields), args.seed] for r in reports]
    _emit(args, ["suite", *fields, "seed"], rows)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VALIDATION


def _add_common(sub) -> None:
    sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    sub.add_argument("--out", default="-", help="output path (default '-', stdout)")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every later
    call in the process; callers must not modify it."""
    parser = _Parser(prog="ncmimo",
                     description="High-SNR noncoherent block-fading MIMO toolkit")
    parser.add_argument("--version", action="version", version=f"ncmimo {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("constants", help="capacity expansion constants for one (T, M, N)")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--bits", action="store_true",
                   help="report constants in bits instead of nats")
    _add_common(p)
    p.set_defaults(func=cmd_constants)

    p = subs.add_parser("gain-table", help="relative rate gain over a (T, N) grid")
    p.add_argument("--T-list", dest="T_list", type=_int_list, required=True,
                   help="comma-separated block lengths")
    p.add_argument("--N-list", dest="N_list", type=_int_list, required=True,
                   help="comma-separated receive antenna counts")
    p.add_argument("--snr-db", dest="snr_db", type=float, default=30.0)
    p.add_argument("--M", type=int, default=None,
                   help="transmit antennas; default min(floor(T/2), N) per cell")
    _add_common(p)
    p.set_defaults(func=cmd_gain_table)

    p = subs.add_parser("sample", help="draw from the random-matrix building blocks")
    p.add_argument("--kind", required=True, choices=tuple(_KINDS))
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--ustm", action="store_true",
                   help="force the constant equal-gain diagonal (kinds gain and input)")
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("validate", help="run a statistical or numerical check suite")
    # the live registry: a suite registered after the parser is built is accepted
    p.add_argument("--suite", required=True, choices=SUITES.keys())
    p.add_argument("--n", type=int, default=None,
                   help="sample or case count, >= 1 (suite-specific default; "
                        "fixed-size suites take none)")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    for action in subs.choices.values():
        action.set_defaults(_parser=action)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except (*_ERRORS, OSError) as exc:  # OSError: an unwritable --out or stdout
        print(f"ncmimo: error: {exc}", file=sys.stderr)
        code = EXIT_USAGE if isinstance(exc, OSError) else EXIT_DOMAIN
    finally:
        elapsed = time.perf_counter() - t0
        print(f"[ncmimo] wall clock: {elapsed:.3f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
