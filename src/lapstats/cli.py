"""Command-line front end.

Subcommands: coeffs | spectrum | stats | diagnose | sweep | verify.
Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 resource guard or solver failure. All configuration is explicit flags; no
environment variables are consulted.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import diagnostics, exact, limits, serialize, spectra
from .corpus import run_verification
from .errors import ConvergenceError, GuardExceeded, InputError
from .families import (
    FAMILIES,
    FamilySpec,
    closed_form_coefficients,
    family_member,
    make_family,
)
from .graphs import Graph, read_edge_list

_INPUT_COMMANDS = ("coeffs", "spectrum", "stats", "diagnose")


@dataclass
class RunConfig:
    command: str
    family: str | None = None
    params: tuple[int, ...] | None = None
    edge_list: Path | None = None
    ladder: tuple[int | tuple[int, ...], ...] = ()
    seed: int | None = None
    fmt: str = "json"
    out: Path | None = None
    signless: bool = False
    closed_form: bool = False
    jobs: int = 1

    def validate(self) -> None:
        if self.command in _INPUT_COMMANDS:
            if (self.family is None) == (self.edge_list is None):
                raise InputError("give exactly one input: --family or --edge-list")
        if self.command == "sweep":
            if self.family is None:
                raise InputError("sweep needs --family")
            if not self.ladder:
                raise InputError("sweep needs a nonempty --ladder")
        if self.jobs < 1:
            raise InputError("--jobs must be >= 1")


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

    def add_io(p: argparse.ArgumentParser, closed_form: bool = False) -> None:
        p.add_argument("--family", choices=sorted(FAMILIES))
        p.add_argument("--n", help="size parameter(s); two comma-separated values for two-parameter families")
        p.add_argument("--edge-list", type=Path, help="path to an 'n m' edge-list file")
        p.add_argument("--seed", type=int, help="seed, required for random families")
        if closed_form:
            p.add_argument("--closed-form", action="store_true",
                           help="use the closed-form family formula instead of the exact pipeline")

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=Path, help="output path (default: stdout)")

    p = sub.add_parser("coeffs", help="Laplacian (or signless) coefficient vector")
    add_io(p, closed_form=True)
    p.add_argument("--signless", action="store_true", help="use the signless Laplacian")
    add_output(p)

    p = sub.add_parser("spectrum", help="eigenvalues, descending")
    add_io(p, closed_form=True)
    p.add_argument("--signless", action="store_true", help="use the signless Laplacian")
    add_output(p)

    p = sub.add_parser("stats", help="mean and variance of the coefficient distribution")
    add_io(p)
    add_output(p)

    p = sub.add_parser("diagnose", help="one diagnostic row: stats, distances, verdict")
    add_io(p)
    add_output(p)

    p = sub.add_parser("sweep", help="diagnostic rows over a size ladder")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--ladder", required=True,
                   help="comma-separated sizes; colon-joined values give each size parameter, "
                        "e.g. 10:3,12:3")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    add_output(p)

    p = sub.add_parser("verify", help="run the invariant corpus; exit 1 on any failure")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", type=Path)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.family = getattr(args, "family", None)
    cfg.edge_list = getattr(args, "edge_list", None)
    cfg.seed = getattr(args, "seed", None)
    cfg.fmt = getattr(args, "format", "json")
    cfg.out = getattr(args, "out", None)
    cfg.signless = bool(getattr(args, "signless", False))
    cfg.closed_form = bool(getattr(args, "closed_form", False))
    cfg.jobs = getattr(args, "jobs", 1)
    if cfg.family is not None:
        raw = getattr(args, "n", None)
        if raw is None and args.command != "sweep":
            raise InputError("--family needs --n")
        if raw is not None:
            cfg.params = _ints("--n", raw)
    if args.command == "sweep":
        cfg.ladder = _ladder(args.ladder)
    cfg.validate()
    return cfg


def _spec(cfg: RunConfig) -> FamilySpec:
    return FamilySpec(cfg.family, cfg.params, cfg.seed)


def _input_graph(cfg: RunConfig) -> Graph:
    if cfg.edge_list is not None:
        return read_edge_list(cfg.edge_list)
    return make_family(_spec(cfg))


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is not None:
        try:
            cfg.out.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {cfg.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def cmd_coeffs(cfg: RunConfig) -> int:
    if cfg.closed_form:
        if cfg.signless:
            raise InputError("--closed-form has no signless variant")
        if cfg.family is None:
            raise InputError("--closed-form needs a --family")
        coeffs = closed_form_coefficients(cfg.family, *cfg.params)
    else:
        g = _input_graph(cfg)
        coeffs = exact.signless_coefficients(g) if cfg.signless else exact.laplacian_coefficients(g)
    text = serialize.coefficients_json(coeffs) if cfg.fmt == "json" else serialize.coefficients_csv(coeffs)
    _emit(cfg, text)
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    if cfg.closed_form:
        if cfg.signless:
            raise InputError("--closed-form has no signless variant")
        if cfg.family is None or FAMILIES[cfg.family].spectrum is None:
            raise InputError("--closed-form needs a supported --family")
        g, s = family_member(_spec(cfg))
    else:
        g = _input_graph(cfg)
        matrix = exact.signless_laplacian_matrix(g) if cfg.signless else exact.laplacian_matrix(g)
        s = spectra.numeric_spectrum(matrix)
    residual = spectra.trace_check(s, g)
    text = serialize.spectrum_json(s, residual) if cfg.fmt == "json" else serialize.spectrum_csv(s, residual)
    _emit(cfg, text)
    return 0


def cmd_stats(cfg: RunConfig) -> int:
    if cfg.family is not None:
        g, s = family_member(_spec(cfg))
    else:
        g = read_edge_list(cfg.edge_list)
        s = spectra.numeric_spectrum(exact.laplacian_matrix(g))
    stats = limits.mean_variance(s)
    payload = {"family": cfg.family, "n": g.n, "mu": stats.mu, "sigma2": stats.sigma2}
    text = serialize.stats_json(payload) if cfg.fmt == "json" else serialize.stats_csv(payload)
    _emit(cfg, text)
    return 0


def cmd_diagnose(cfg: RunConfig) -> int:
    if cfg.family is not None:
        row = diagnostics.diagnose_family(cfg.family, cfg.params, cfg.seed)
    else:
        row = diagnostics.diagnose_graph(read_edge_list(cfg.edge_list))
    rows = [row]
    text = serialize.rows_json(rows) if cfg.fmt == "json" else serialize.rows_csv(rows)
    _emit(cfg, text)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    rows = diagnostics.run_sweep(cfg.family, cfg.ladder, cfg.seed, jobs=cfg.jobs)
    text = serialize.rows_json(rows) if cfg.fmt == "json" else serialize.rows_csv(rows)
    _emit(cfg, text)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    results = run_verification(jobs=cfg.jobs)
    text = "".join(r.line() + "\n" for r in results)
    ok = all(r.ok for r in results)
    text += f"verification: {'PASS' if ok else 'FAIL'} ({sum(r.ok for r in results)}/{len(results)} checks)\n"
    _emit(cfg, text)
    return 0 if ok else 1


_DISPATCH = {
    "coeffs": cmd_coeffs,
    "spectrum": cmd_spectrum,
    "stats": cmd_stats,
    "diagnose": cmd_diagnose,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _DISPATCH[cfg.command](cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GuardExceeded, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the downstream consumer closed the pipe; park stdout on devnull so
        # interpreter shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
