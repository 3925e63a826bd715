"""Run one lapstats CLI invocation in-process, with a span around every call
into a package module, and write the per-function totals at exit.

    PYTHONPATH=src python3 perfbench/trace_runner.py SPANS.json coeffs --family path --n 20

Everything after the spans path is the ``lapstats`` argv. Stdout and the exit
code are those of ``python -m lapstats`` with the same argv; the spans file
is the only addition. Nothing in the package is edited: each public function
of each package module is replaced by a timing wrapper at every module
attribute that refers to it, which covers names bound by ``from .x import f``.
``cli.main`` is the root span.

Each thread keeps its own span stack. A span's self time is its duration
minus its children on the same thread. Time the calling thread spends
blocked on a pool (``Future.result`` and executor shutdown) is recorded as
``wait`` of the function it blocks in, not as that function's self time, so
work done by pool threads is counted once, on the threads that did it. The
self times of all functions add up to the root span (see ``report``).
Spans are kept in memory as per-thread totals and written once, at exit.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import json
import math
import pkgutil
import sys
import threading
import time

PACKAGE = "lapstats"
ROOT = "cli.main"
# results kept (by reference, outside the timed region) for the counters
# computed at exit
_KEEP_PREFIXES = ("exact.", "serialize.")
_KEEP_NAMES = ("spectra.numeric_spectrum",)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._main = threading.get_ident()
        # one {name: [calls, self_s, wait_s]} per thread, merged at exit
        self._totals: list[tuple[bool, dict[str, list]]] = []
        self.kept: list[tuple[str, tuple, object]] = []
        self.root_s = 0.0

    def _thread_state(self) -> tuple[list, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            totals: dict[str, list] = {}
            self._totals.append((threading.get_ident() == self._main, totals))
            state = self._local.state = ([], totals)
        return state

    def wrap(self, name: str, fn):
        keep = name.startswith(_KEEP_PREFIXES) or name in _KEEP_NAMES
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, totals = self._thread_state()
            frame = [0.0, 0.0]  # child time, wait time
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                elif name == ROOT:
                    self.root_s += duration
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame[0] - frame[1]
                entry[2] += frame[1]
            if keep:
                self.kept.append((name, args, result))
            return result

        return traced

    def waiting(self, fn):
        """Wrap a blocking pool call so its time counts as the caller's wait."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def blocked(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stack, _ = self._thread_state()
                if stack:
                    stack[-1][1] += clock() - start

        return blocked

    def counters(self) -> dict:
        """Counters computed from kept call inputs and results."""
        bits = 0
        residual = 0.0
        output_bytes = 0
        for name, args, result in self.kept:
            if name.startswith("exact.") and isinstance(result, list) and result \
                    and isinstance(result[0], int):
                bits = max(bits, max(abs(c).bit_length() for c in result))
            elif name == "spectra.numeric_spectrum":
                matrix = args[0]
                trace = math.fsum(float(matrix[i][i]) for i in range(len(matrix)))
                residual = max(residual, abs(math.fsum(result.values) - trace))
            elif name.startswith("serialize.") and isinstance(result, str):
                output_bytes += len(result.encode("utf-8"))
        return {
            "exact.max_coeff_bits": bits,
            "spectra.numeric_spectrum.trace_residual_max": residual,
            "serialize.output_bytes": output_bytes,
        }

    def report(self) -> dict:
        """Per-function totals whose self times partition the root span.

        Pool threads run while the calling thread waits, and under the GIL
        their wall-clock self times overlap each other. Their self times are
        therefore scaled so that together they fill exactly the calling
        thread's wait; ``pool_self_s`` keeps the unscaled sum.
        """
        functions: dict[str, dict] = {}
        for on_main, totals in self._totals:
            for name, (calls, self_s, wait_s) in totals.items():
                f = functions.setdefault(
                    name, {"calls": 0, "self_s": 0.0, "wait_s": 0.0, "pool_self_s": 0.0})
                f["calls"] += calls
                f["wait_s"] += wait_s
                f["self_s" if on_main else "pool_self_s"] += self_s
        wait = math.fsum(f["wait_s"] for f in functions.values())
        pool = math.fsum(f["pool_self_s"] for f in functions.values())
        for f in functions.values():
            f["self_s"] += f["pool_self_s"] * wait / pool if pool else 0.0
        return {
            "root_s": self.root_s,
            "attributed_s": math.fsum(f["self_s"] for f in functions.values()),
            "unattributed_wait_s": 0.0 if pool else wait,
            "functions": dict(sorted(functions.items())),
            "counters": self.counters(),
        }


def _traced_executor(tracer: Tracer, base):
    class TracedExecutor(base):
        def submit(self, fn, /, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            future.result = tracer.waiting(future.result)
            return future

        shutdown = tracer.waiting(base.shutdown)

    TracedExecutor.__name__ = base.__name__
    return TracedExecutor


def instrument(tracer: Tracer) -> None:
    """Replace every public function of every package module by a traced
    wrapper, at every attribute of every package module that names it."""
    package = importlib.import_module(PACKAGE)
    modules = [package] + [
        importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    ]
    replacements = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        for attr, obj in vars(module).items():
            if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                continue
            if attr.startswith("_") or (layer == "cli" and attr != "main"):
                continue
            replacements[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    executors = {
        base: _traced_executor(tracer, base)
        for base in (concurrent.futures.ThreadPoolExecutor, concurrent.futures.ProcessPoolExecutor)
    }
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(module, attr, replacements[obj])
            elif isinstance(obj, type) and obj in executors:
                setattr(module, attr, executors[obj])


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: trace_runner.py SPANS.json [lapstats args...]", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    instrument(tracer)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
