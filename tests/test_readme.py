import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import lapstats

README = Path(__file__).resolve().parents[1] / "README.md"
# math notation in the prose, such as `c(G, k)` and `det(xI + L)`
MATH = {"c", "det"}


def _what_is_inside() -> str:
    text = README.read_text()
    start = text.index("## What is inside")
    return text[start:text.index("\n## ", start)]


def test_what_is_inside_calls_resolve():
    # every `name(` call form names an attribute of a lapstats module or a
    # builtin, so a renamed or deleted function cannot stay in the prose
    modules = [importlib.import_module(f"lapstats.{m.name}")
               for m in pkgutil.iter_modules(lapstats.__path__) if m.name != "__main__"]
    names = set(vars(builtins)).union(*map(vars, modules))
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", _what_is_inside()))
    assert {"Graph", "numeric_spectra", "route"} <= called
    assert sorted(called - MATH - names) == []
