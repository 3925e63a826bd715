"""Checkers of lapstats CLI outputs against precomputed references.

Each ``check_*`` function takes a child's stdout and the reference and
returns None when they match, or a one-line reason when they do not.
Integers, strings, field names and row order must match exactly; floats
within FLOAT_TOL. Standard library only, so the process that runs the
children stays small (a child's peak RSS counts its parent's at fork).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

# the tolerance lapstats.corpus uses for float agreement between routes
FLOAT_TOL = 1e-8


def _close(got, want) -> bool:
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and math.isclose(got, want, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL))


def _compare_record(got: dict, want: dict, where: str) -> str | None:
    if not isinstance(got, dict) or set(got) != set(want):
        return f"{where}: fields {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
    for key, value in want.items():
        if isinstance(value, float):
            ok = _close(got[key], value)
        else:
            ok = type(got[key]) is type(value) and got[key] == value
        if not ok:
            return f"{where}: {key} = {got[key]!r}, want {value!r}"
    return None


def _parse_json(stdout: bytes):
    try:
        return json.loads(stdout.decode("utf-8")), None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, f"output is not JSON: {exc}"


def check_rows(stdout: bytes, want: list[dict]) -> str | None:
    """``diagnose``/``sweep`` JSON: the rows, in order."""
    rows, err = _parse_json(stdout)
    if err:
        return err
    if not isinstance(rows, list) or len(rows) != len(want):
        return f"expected {len(want)} rows"
    for i, (got, expected) in enumerate(zip(rows, want)):
        err = _compare_record(got, expected, f"row {i}")
        if err:
            return err
    return None


def check_stats(stdout: bytes, want: dict) -> str | None:
    payload, err = _parse_json(stdout)
    if err:
        return err
    return _compare_record(payload, want, "stats")


def check_coeffs_json(stdout: bytes, want: list[int]) -> str | None:
    got, err = _parse_json(stdout)
    if err:
        return err
    if not isinstance(got, list) or not all(isinstance(c, str) for c in got):
        return "coefficients must be a JSON list of decimal strings"
    if [str(c) for c in want] != got:
        return "coefficients differ from the reference charpoly"
    return None


def _csv_rows(stdout: bytes, header: list[str]) -> tuple[list[list[str]] | None, str | None]:
    try:
        rows = list(csv.reader(io.StringIO(stdout.decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        return None, f"output is not CSV: {exc}"
    if not rows or rows[0] != header:
        return None, f"CSV header is not {header}"
    rows = rows[1:]
    if [r[0] if r else None for r in rows] != [str(i) for i in range(len(rows))]:
        return None, "CSV rows are not numbered 0, 1, 2, ..."
    return rows, None


def check_coeffs_csv(stdout: bytes, want: list[int]) -> str | None:
    rows, err = _csv_rows(stdout, ["k", "c_k"])
    if err:
        return err
    if len(rows) != len(want) or any(len(r) != 2 or r[1] != str(c) for r, c in zip(rows, want)):
        return "coefficients differ from the closed form"
    return None


def check_spectrum_csv(stdout: bytes, want: list[float]) -> str | None:
    rows, err = _csv_rows(stdout, ["i", "lambda"])
    if err:
        return err
    if len(rows) != len(want):
        return f"expected {len(want)} eigenvalues, got {len(rows)}"
    for r, value in zip(rows, want):
        try:
            got = float(r[1])
        except (IndexError, ValueError):
            return f"row {r!r} has no eigenvalue"
        if not _close(got, value):
            return f"eigenvalue {r[0]} = {got!r}, eigvalsh gives {value!r}"
    return None


_CHECK_LINE = re.compile(r"^.+?: PASS \(.*\)$")
_SUMMARY_LINE = re.compile(r"^verification: PASS \((\d+)/(\d+) checks\)$")


def check_verify(stdout: bytes, want=None) -> str | None:
    """Every check line PASS, and a PASS summary that counts them all."""
    del want  # the check lines carry their own verdicts
    lines = stdout.decode("utf-8", "replace").splitlines()
    if len(lines) < 2:
        return "verify printed no checks"
    for line in lines[:-1]:
        if not _CHECK_LINE.match(line):
            return f"check did not pass: {line}"
    summary = _SUMMARY_LINE.match(lines[-1])
    if not summary or not (int(summary[1]) == int(summary[2]) == len(lines) - 1):
        return f"bad summary line: {lines[-1]}"
    return None
