"""JSON and CSV encoders for CLI outputs.

Exact integers are always serialized as decimal strings so coefficients
never lose bits to a 53-bit float mantissa. Floats render via repr, which
both encoders share, so the two formats of one run carry identical values
and repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import fields

from .diagnostics import DiagnosticsRow
from .spectra import Spectrum

_ROW_FIELDS = tuple(f.name for f in fields(DiagnosticsRow))
_OPTIONAL_ROW_FIELDS = ("poisson_distance", "mu_per_vertex_err", "sigma2_per_vertex_err")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextmanager
def _any_int_digits():
    """Lift CPython's cap on str() of large ints (4300 digits by default)
    for the duration, and restore it after."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7 there is no cap
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def coefficients_json(coeffs: list[int]) -> str:
    with _any_int_digits():
        return _dump_json([str(c) for c in coeffs])


def coefficients_csv(coeffs: list[int]) -> str:
    with _any_int_digits():
        return _csv_text([["k", "c_k"]] + [[str(k), str(c)] for k, c in enumerate(coeffs)])


def spectrum_json(s: Spectrum, trace_residual: float) -> str:
    return _dump_json({"values": s.values.tolist(), "exact": s.exact,
                       "trace_residual": trace_residual})


def spectrum_csv(s: Spectrum) -> str:
    """One row per eigenvalue; the trace residual is in the JSON form only."""
    return _csv_text([["i", "lambda"]] + [[str(i), repr(v)] for i, v in enumerate(s.values.tolist())])


def stats_json(payload: dict) -> str:
    return _dump_json(payload)


def stats_csv(payload: dict) -> str:
    keys = list(payload)
    return _csv_text([keys, [_cell(payload[k]) for k in keys]])


def _row_dict(row: DiagnosticsRow) -> dict:
    out = {}
    for field in _ROW_FIELDS:
        value = getattr(row, field)
        if field in _OPTIONAL_ROW_FIELDS and value is None:
            continue
        out[field] = value
    return out


def rows_json(rows: list[DiagnosticsRow]) -> str:
    return _dump_json([_row_dict(r) for r in rows])


def rows_csv(rows: list[DiagnosticsRow]) -> str:
    dicts = [_row_dict(r) for r in rows]
    columns = [f for f in _ROW_FIELDS if any(f in d for d in dicts)]
    table = [columns]
    for d in dicts:
        table.append([_cell(d.get(c)) for c in columns])
    return _csv_text(table)
