"""Command-line front end.

Subcommands: coeffs | spectrum | stats | diagnose | sweep | verify.
Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 resource guard, solver failure or a failed exactness check (ArithmeticError).
All configuration is explicit flags; no environment variables are consulted.

``build_parser`` declares coeffs, spectrum, stats and diagnose, the commands
of one input, from one table, so each of their flags is declared once. Each
command reads the parsed arguments once ``_check`` has parsed --n and
--ladder. ``_input`` reads an edge list or names a family member as a
``FamilySpec``, not built, and each command hands either to one route
(``family_coefficients``, ``family_member`` or ``diagnostics.diagnose``)
without asking which it is. All three go through ``families.route``, which
takes a spec by the closed form wherever the family has one, or else to an
engine, and checks every guard on the way it chose before any work, so an
over-budget member exits 3 before any graph is built; a sweep routes every
ladder entry so before its first row.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import diagnostics, limits, serialize, spectra
from .corpus import run_verification
from .errors import ConvergenceError, GuardExceeded, InputError
from .families import FAMILIES, FamilySpec, family_coefficients, family_member
from .graphs import Graph, read_edge_list


JOBS_HELP = ("accepted for existing invocations and must be >= 1; "
             "the work runs serially whatever the value")


def _ints(flag: str, text: str, sep: str = ",") -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(sep))
    except ValueError:
        raise InputError(f"{flag} expects integers, got {text!r}") from None


def _ladder(text: str) -> tuple[int | tuple[int, ...], ...]:
    """Comma-separated entries; an entry is one integer for every size
    parameter or colon-joined values, one per parameter."""
    entries = (_ints("--ladder", part, ":") for part in text.split(","))
    return tuple(e[0] if len(e) == 1 else e for e in entries)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapstats",
        description="Exact Laplacian coefficients, spectra, and coefficient-distribution diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=Path, help="output path (default: stdout)")

    # the commands of one input: name, help, handler, and whether the command
    # takes --closed-form and --signless
    for name, text, run, variants in (
        ("coeffs", "Laplacian (or signless) coefficient vector", cmd_coeffs, True),
        ("spectrum", "eigenvalues, descending", cmd_spectrum, True),
        ("stats", "mean and variance of the coefficient distribution", cmd_stats, False),
        ("diagnose", "one diagnostic row: stats, distances, verdict", cmd_diagnose, False),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--family", choices=sorted(FAMILIES))
        p.add_argument("--n", help="size parameter(s); two comma-separated values for two-parameter families")
        p.add_argument("--edge-list", type=Path, help="path to an 'n m' edge-list file")
        p.add_argument("--seed", type=int, help="seed, required for random families")
        if variants:
            p.add_argument("--closed-form", action="store_true",
                           help="require the family's closed form, which is used wherever "
                                "one exists; exit 2 if there is none")
            p.add_argument("--signless", action="store_true", help="use the signless Laplacian")
        add_output(p)
        p.set_defaults(run=run)

    p = sub.add_parser("sweep", help="diagnostic rows over a size ladder")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--ladder", required=True,
                   help="comma-separated sizes; colon-joined values give each size parameter, "
                        "e.g. 10:3,12:3")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    add_output(p)
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("verify", help="run the invariant corpus; exit 1 on any failure")
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--out", type=Path)
    p.set_defaults(run=cmd_verify)

    return parser


def _check(args: argparse.Namespace) -> None:
    """Parse --n and --ladder in place; require exactly one input, --n and
    --seed only with a --family, a closed form only of a --family that has
    one and never signless, and --jobs >= 1.
    The work runs serially whatever --jobs is; the flag is accepted so
    existing invocations work."""
    if getattr(args, "jobs", 1) < 1:
        raise InputError("--jobs must be >= 1")
    if "edge_list" in args:  # a command of one input
        if args.family is not None:
            if args.n is None:
                raise InputError("--family needs --n")
            args.n = _ints("--n", args.n)
        if (args.family is None) == (args.edge_list is None):
            raise InputError("give exactly one input: --family or --edge-list")
        if args.edge_list is not None and (args.n is not None or args.seed is not None):
            raise InputError("--edge-list takes neither --n nor --seed")
        if getattr(args, "closed_form", False):
            if args.signless:
                raise InputError("--closed-form has no signless variant")
            if args.family is None:
                raise InputError("--closed-form needs a --family")
            what = "spectrum" if args.command == "spectrum" else "coefficients"
            if getattr(FAMILIES[args.family], what) is None:
                raise InputError(f"--closed-form: no closed-form {what} for family {args.family!r}")
    elif args.command == "sweep":
        args.ladder = _ladder(args.ladder)


def _input(args: argparse.Namespace) -> Graph | FamilySpec:
    """The edge list as read, or the named family member, not built."""
    if args.edge_list is not None:
        return read_edge_list(args.edge_list)
    return FamilySpec(args.family, args.n, args.seed)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out is not None:
        try:
            args.out.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def cmd_coeffs(args: argparse.Namespace) -> int:
    coeffs = family_coefficients(_input(args), args.signless)
    text = serialize.coefficients_json(coeffs) if args.format == "json" else serialize.coefficients_csv(coeffs)
    _emit(args, text)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    g, s = family_member(_input(args), args.signless)
    residual = spectra.trace_check(s, g)
    text = serialize.spectrum_json(s, residual) if args.format == "json" else serialize.spectrum_csv(s)
    _emit(args, text)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    g, s = family_member(_input(args))
    stats = limits.mean_variance(s)
    payload = {"family": args.family, "n": g.n, "mu": stats.mu, "sigma2": stats.sigma2}
    text = serialize.stats_json(payload) if args.format == "json" else serialize.stats_csv(payload)
    _emit(args, text)
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    rows = [diagnostics.diagnose(_input(args))]
    text = serialize.rows_json(rows) if args.format == "json" else serialize.rows_csv(rows)
    _emit(args, text)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = diagnostics.run_sweep(args.family, args.ladder, args.seed)
    text = serialize.rows_json(rows) if args.format == "json" else serialize.rows_csv(rows)
    _emit(args, text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification()
    text = "".join(r.line() + "\n" for r in results)
    ok = all(r.ok for r in results)
    text += f"verification: {'PASS' if ok else 'FAIL'} ({sum(r.ok for r in results)}/{len(results)} checks)\n"
    _emit(args, text)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check(args)
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GuardExceeded, ConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the downstream consumer closed the pipe; park stdout on devnull so
        # interpreter shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
