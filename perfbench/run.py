"""The lapstats benchmark: fixed workloads of real ``python -m lapstats`` runs.

    python3 perfbench/run.py --workload family-scale --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 0

It imports nothing from ``src/`` itself and runs the package from ``src/``
in child processes. This driver process runs a workload's ops one child at a
time, each after the previous one has ended (a closed loop with one client),
and repeats the whole list (a pass) at least MIN_PASSES times. After that it
starts an op only while the op's median time so far still fits in
``--seconds``, so the last pass may stop part way and every op gets as many
samples as the run length allows. Inputs and references are made before the
timed passes, in a separate process and without lapstats
(``workloads.py``); every output is checked against them (``checks.py``). A
wrong output, an unexpected exit code or a timeout fails the op.

``--trace 0`` reports the end-to-end metrics of the untraced passes: the wall
time and child CPU time of a typical pass (the sum over ops of each op's
median), the largest per-op median peak RSS, the median wall time of
``lapstats --help`` (set-up paid by every op) and the share of ops that
succeeded. ``--trace 1`` alternates untraced passes with passes through
``trace_runner.py``, which wraps each package module's public functions from
outside, and reports per-layer self times, waits and counters instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it give each metric's median and quartiles, the
seed and the SHA-256 of every generated input, and the machine's state.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_RUNNER = HERE / "trace_runner.py"
WORK_DIR = ROOT / ".bench_work"

# each driver invocation must end within 180 s; ops get whatever is left
RUN_LIMIT_S = 165.0
HELP_TIMEOUT_S = 30.0
REFERENCE_TIMEOUT_S = 60.0
# `lapstats --help` timings per pass, spread over the run so that one burst of
# machine noise does not set the median
SETUP_PER_PASS = 3
# untraced passes per run, even when they take longer than --seconds
MIN_PASSES = 2
# BLAS/OpenMP threads per child (at most nproc). On the matrices the workloads
# use (n <= 128) a second BLAS thread only spins: on a 2-core VM diag-rr128
# took the same wall time with 1 and 2 threads and 1.1 s more CPU with 2. One
# thread keeps each child's numpy on one core and leaves the other to the
# program's own --jobs threads.
CHILD_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Callable[[bytes], str | None]
    timeout_s: float
    # an earlier op of the same pass whose stdout this one must repeat byte for byte
    same_as: str | None = None


CHECKS = {
    "verify": checks.check_verify,
    "rows": checks.check_rows,
    "stats": checks.check_stats,
    "coeffs_json": checks.check_coeffs_json,
    "coeffs_csv": checks.check_coeffs_csv,
    "spectrum_csv": checks.check_spectrum_csv,
}
WORKLOADS = ("verify-corpus", "family-scale", "unstructured-mid")
OP_NAMES = ("verify-j1", "verify-j2", "diag-path", "diag-star", "stats-complete", "diag-kmm",
            "sweep-wheel-j2", "coeffs-path-csv", "coeffs-rr64", "coeffs-rt48-signless",
            "diag-rt60", "diag-rr128", "spectrum-rr96-csv")


def load_workload(workload: str, seed: int, env: dict, work: Path) -> tuple[list[Op], dict]:
    """Generate the workload's inputs and references in a separate process."""
    outcome = run_child([sys.executable, str(HERE / "workloads.py"), workload, str(seed),
                         str(work)], env, REFERENCE_TIMEOUT_S, work)
    if outcome.returncode != 0:
        raise SystemExit("error: building the workload's references failed:\n"
                         + outcome.stderr.decode("utf-8", "replace")[-2000:])
    spec = json.loads(outcome.stdout)
    ops = [Op(o["name"], tuple(o["argv"]), functools.partial(CHECKS[o["check"]], want=o["want"]),
              o["timeout_s"], o["same_as"]) for o in spec["ops"]]
    return ops, spec


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def _kill_group(pid: int, fired: threading.Event) -> None:
    fired.set()
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], env: dict, timeout_s: float, work: Path) -> Outcome:
    """Run argv to completion (or kill its process group at the timeout) and
    take its wall time, and its CPU time and peak RSS from wait4."""
    out_path, err_path = work / "stdout", work / "stderr"
    fired = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=env, start_new_session=True)
        killer = threading.Timer(max(timeout_s, 0.0), _kill_group, (proc.pid, fired))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid, fired)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        returncode=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        timed_out=fired.is_set(),
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(CHILD_THREADS)
    return env


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    outcomes: dict[str, Outcome] = field(default_factory=dict)
    traces: dict[str, dict] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    # False when the pass stopped before an op that would end after --seconds
    complete: bool = True

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes.values())

    def stdout(self, op: str) -> bytes | None:
        outcome = self.outcomes.get(op)
        return None if outcome is None else outcome.stdout


def _op_error(op: Op, outcome: Outcome, done: Pass, untraced: Pass | None) -> str | None:
    if outcome.timed_out:
        return f"timed out after {outcome.wall_s:.1f} s"
    if outcome.returncode != 0:
        tail = outcome.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return f"exit code {outcome.returncode}: {tail[0] if tail else op.check(outcome.stdout)}"
    if op.same_as is not None and outcome.stdout != done.stdout(op.same_as):
        return f"stdout differs from {op.same_as}"
    if untraced is not None and outcome.stdout != untraced.stdout(op.name):
        return "traced stdout differs from the untraced run"
    return op.check(outcome.stdout)


def run_pass(ops: list[Op], env: dict, work: Path, deadline: float,
             untraced: Pass | None = None, stop_at: float = float("inf"),
             expected: dict[str, float] | None = None) -> Pass:
    """One run of every op; with ``untraced`` given, through the trace runner,
    whose stdout must repeat that pass byte for byte. With ``expected`` op
    times given, the pass ends before the first op that would end after
    ``stop_at``."""
    done = Pass()
    spans = work / "spans.json"
    for op in ops:
        now = time.perf_counter()
        if expected is not None and now + expected[op.name] > stop_at:
            done.complete = False
            break
        done.attempted += 1
        remaining = deadline - now
        if remaining <= 0:
            done.failures.append(f"{op.name}: not started, run time limit reached")
            continue
        if untraced is None:
            argv = [sys.executable, "-m", "lapstats", *op.argv]
        else:
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(TRACE_RUNNER), str(spans), *op.argv]
        outcome = run_child(argv, env, min(op.timeout_s, remaining), work)
        done.outcomes[op.name] = outcome
        error = _op_error(op, outcome, done, untraced)
        if error is None and untraced is not None:
            error = read_trace(spans, done.traces, op.name)
        if error is not None:
            done.failures.append(f"{op.name}: {error}")
    return done


def read_trace(spans: Path, traces: dict, name: str) -> str | None:
    try:
        report = json.loads(spans.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"no trace: {exc}"
    calls = sum(f["calls"] for f in report["functions"].values())
    accounted = report["attributed_s"] + report["unattributed_wait_s"]
    if abs(report["root_s"] - accounted) > 1e-6 + 1e-9 * calls:
        return (f"per-function self times sum to {accounted:.6f} s, "
                f"not the traced {report['root_s']:.6f} s")
    traces[name] = report
    return None


# ---------------------------------------------------------------------------
# per-layer metrics from the trace reports

LAYERS = ("graphs", "exact", "spectra", "limits", "diagnostics", "corpus")
# metric -> functions whose self time it sums
SELF_TIMES = {
    "cli.main.self_s": ("cli.main",),
    "graphs.make_family.self_s": ("graphs.make_family",),
    "graphs.read_edge_list.self_s": ("graphs.read_edge_list",),
    "graphs.max_degree.self_s": ("graphs.max_degree",),
    "exact.charpoly_monic.self_s": ("exact.charpoly_monic",),
    "exact.closed_form_coefficients.self_s": ("exact.closed_form_coefficients",),
    "exact.oracles.self_s": ("exact.forest_sum_oracle", "exact.matching_counts",
                             "exact.spanning_tree_count", "exact.wiener_index"),
    "spectra.numeric_spectrum.self_s": ("spectra.numeric_spectrum",),
    "spectra.closed_form_spectrum.self_s": ("spectra.closed_form_spectrum",),
    "spectra.expand_from_spectrum.self_s": ("spectra.expand_from_spectrum",),
    "limits.probabilities_from_spectrum.self_s": ("limits.probabilities_from_spectrum",),
    "limits.normalized_probabilities.self_s": ("limits.normalized_probabilities",),
    "limits.distances.self_s": ("limits.clt_distance", "limits.llt_distance",
                                "limits.poisson_distance", "limits.poisson_reference"),
    "limits.mean_variance.self_s": ("limits.mean_variance",),
    "diagnostics.diagnose.self_s": ("diagnostics.diagnose_family", "diagnostics.diagnose_graph"),
    "corpus.corpus_graphs.self_s": ("corpus.corpus_graphs",),
    "corpus.run_verification.self_s": ("corpus.run_verification",),
}
WAITS = {
    "diagnostics.run_sweep.wait_s": "diagnostics.run_sweep",
    "corpus.run_verification.wait_s": "corpus.run_verification",
}
CALLS = {
    "exact.charpoly_monic.calls": "exact.charpoly_monic",
    "spectra.numeric_spectrum.calls": "spectra.numeric_spectrum",
}
# counters that must repeat exactly between traced passes
EXACT_COUNTERS = tuple(CALLS) + ("exact.max_coeff_bits", "serialize.output_bytes")


def layer_metrics(traces: dict[str, dict]) -> dict[str, float]:
    """Per-layer values of one traced pass, summed (maxima for the residual
    and bit length) over its ops."""
    out: dict[str, float] = {}
    for report in traces.values():
        functions = report["functions"]

        def add(metric: str, value: float) -> None:
            out[metric] = out.get(metric, 0) + value

        for metric, names in SELF_TIMES.items():
            add(metric, sum(functions.get(n, {}).get("self_s", 0.0) for n in names))
        for layer in LAYERS:
            add(f"{layer}.self_s", sum(f["self_s"] for n, f in functions.items()
                                       if n.startswith(layer + ".")))
        add("serialize.encode.self_s", sum(f["self_s"] for n, f in functions.items()
                                           if n.startswith("serialize.")))
        for metric, name in WAITS.items():
            add(metric, functions.get(name, {}).get("wait_s", 0.0))
        for metric, name in CALLS.items():
            add(metric, functions.get(name, {}).get("calls", 0))
        counters = report["counters"]
        add("serialize.output_bytes", counters["serialize.output_bytes"])
        for metric in ("exact.max_coeff_bits", "spectra.numeric_spectrum.trace_residual_max"):
            out[metric] = max(out.get(metric, 0), counters[metric])
    return out


def per_layer_units() -> dict[str, str]:
    units = {f"cli.op.{op}.wall_s": "s" for op in OP_NAMES}
    units.update({m: "s" for m in SELF_TIMES})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["serialize.encode.self_s"] = "s"
    units.update({m: "s" for m in WAITS})
    units.update({m: "count" for m in CALLS})
    units["exact.max_coeff_bits"] = "bits"
    units["spectra.numeric_spectrum.trace_residual_max"] = "abs"
    units["serialize.output_bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# one workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]


def _summary(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name} {med:.6g} {unit} (median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})"


def time_setup(env: dict, work: Path) -> float:
    """Wall time of a no-work invocation, which every op pays."""
    outcome = run_child([sys.executable, "-m", "lapstats", "--help"], env, HELP_TIMEOUT_S, work)
    if outcome.returncode != 0:
        raise SystemExit("error: `python -m lapstats --help` failed:\n"
                         + outcome.stderr.decode("utf-8", "replace")[-2000:])
    return outcome.wall_s


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> Result:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    env = child_env()
    ops, spec = load_workload(workload, seed, env, work)
    lines = [f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)} "
             f"(references from numpy {spec['numpy']})"]
    lines += [f"input {name} sha256 {digest}" for name, digest in spec["inputs"].items()]

    setup: list[float] = []
    untraced: list[Pass] = []
    traced: list[Pass] = []
    cycles: list[float] = []
    stop_at = time.perf_counter() + seconds

    def op_values(op: str, attr: str) -> list[float]:
        return [getattr(p.outcomes[op], attr) for p in untraced if op in p.outcomes] or [0.0]

    while not trace:
        expected = None
        if len(untraced) >= MIN_PASSES:
            expected = {op.name: statistics.median(op_values(op.name, "wall_s")) for op in ops}
        untraced.append(run_pass(ops, env, work, deadline, stop_at=stop_at, expected=expected))
        setup += [time_setup(env, work) for _ in range(SETUP_PER_PASS)]
        if not untraced[-1].complete or time.perf_counter() >= deadline:
            break
    while trace:
        cycle_start = time.perf_counter()
        untraced.append(run_pass(ops, env, work, deadline))
        traced.append(run_pass(ops, env, work, deadline, untraced=untraced[-1]))
        now = time.perf_counter()
        cycles.append(now - cycle_start)
        if now >= deadline or now + statistics.median(cycles) > stop_at:
            break

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    if len(traced) >= 2:
        for metric in EXACT_COUNTERS:
            seen = {layer_metrics(p.traces).get(metric) for p in traced}
            if len(seen) > 1:
                failures.append(f"{metric} differs between traced passes: {sorted(seen)}")
    failed = min(len(failures), attempted)

    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        # a typical pass: per-op medians, so a burst of machine noise during one
        # op of one pass does not move the whole pass
        typical = {
            "wall_s": sum(statistics.median(op_values(op.name, "wall_s")) for op in ops),
            "cpu_s": sum(statistics.median(op_values(op.name, "cpu_s")) for op in ops),
            "peak_rss_mb": max(statistics.median(op_values(op.name, "peak_rss_mb")) for op in ops),
        }
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
        for name, value in typical.items():
            metrics[name] = (value, units[name])
            lines.append(f"{name} {value:.6g} {units[name]} (per-op medians over "
                         f"{len(untraced)} passes, the last one "
                         f"{'whole' if untraced[-1].complete else 'partial'})")
        metrics["setup_s"] = (statistics.median(setup), "s")
        lines.append(_summary("setup_s", setup, "s"))
        metrics["ops_ok_ratio"] = (1.0 - failed / attempted, "ratio")
        lines.append(f"ops_failed_ratio {failed / attempted:.6g} ratio "
                     f"({failed} of {attempted} ops)")
        lines.append(_summary("pass wall_s", [p.wall_s for p in untraced if p.complete], "s"))
        for op in ops:
            for attr, unit in units.items():
                lines.append(_summary(f"op {op.name} {attr}", op_values(op.name, attr), unit))
    else:
        per_pass = [layer_metrics(p.traces) for p in traced]
        for name, unit in per_layer_units().items():
            if name.startswith("cli.op."):
                op = name[len("cli.op."):-len(".wall_s")]
                values = op_values(op, "wall_s")
            elif name == "trace.overhead_s":
                values = [statistics.median([p.wall_s for p in traced])
                          - statistics.median([p.wall_s for p in untraced])]
            else:
                values = [p.get(name, 0.0) for p in per_pass]
            metrics[name] = (statistics.median(values), unit)
            if any(values):
                lines.append(_summary(name, values, unit))
        lines.append(f"passes: {len(untraced)} untraced, {len(traced)} traced")
    lines += [f"FAIL {f}" for f in failures]
    lines.append(f"elapsed {time.perf_counter() - started:.1f} s")
    return Result(attempted, failed, metrics, lines)


# ---------------------------------------------------------------------------
# entry point


def environment_line(nproc: int, load_before: tuple[float, ...]) -> str:
    threads = " ".join(f"{var}={CHILD_THREADS}" for var in THREAD_VARS)
    load = " ".join(f"{x:.2f}" for x in load_before + os.getloadavg())
    return (f"env python {platform.python_version()} nproc {nproc} "
            f"loadavg before/after {load} {threads}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "lapstats" / "__main__.py").is_file():
        print(f"error: no lapstats package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    work = WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        time_setup(child_env(), work)  # fills __pycache__, fails fast without a package
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), work)
                   for w in workloads}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(environment_line(nproc, load_before))
    for result in results.values():
        for line in result.lines:
            print(line)
    if args.workload == "all":
        metrics = {f"{w}.{name}": value for w, r in results.items()
                   for name, value in r.metrics.items()}
    else:
        metrics = results[args.workload].metrics
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
