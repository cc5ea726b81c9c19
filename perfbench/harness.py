"""Shared machinery of the lagsurf benchmark: operations, passes, spans, probes.

A workload module (``equiv_ladder``, ``s3_oracles``, ``cli_session``) builds
its inputs from a seed and lists its operations.  This module runs them:

* timed passes: every operation once per pass, in an order drawn from the
  seed, with no tracing; each output is checked after its operation's clock
  stops, so checks are not timed;
* a traced pass (``--trace 1`` only): the same operations, with a span
  around every call the benchmark makes into a ``lagsurf`` module;
* a peak pass: every operation once under ``tracemalloc``, in worker
  processes, never timed;
* probes in fresh interpreters: set-up, CLI cold starts, import times.

:func:`_main` is the worker side of the set-up probe and the peak pass.
"""

from __future__ import annotations

import gc
import importlib
import json
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = {
    "equiv-ladder": "equiv_ladder",
    "s3-oracles": "s3_oracles",
    "cli-session": "cli_session",
}
PROBE_ROUNDS = 3  # before the timed passes, after them, after the peak pass
SETUP_PER_ROUND = 1
COLD_PER_ROUND = 2
IMPORT_REPEATS = 3
PEAK_WORKERS = 2
MIB = 2.0**20


class CheckFailed(Exception):
    """An output that violates an independent computation or a required property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: ``run`` calls into lagsurf, ``check`` judges its output.

    ``check`` raises :class:`CheckFailed` on a wrong output.  ``kept_failing``
    names the program fault for an operation that is expected to fail on
    every run; ``heavy`` marks an operation whose peak memory is above a GiB,
    so the peak pass never runs two of them at once.  ``peak_when_traced``
    marks a long pure-Python operation that tracemalloc slows about fivefold:
    its peak is taken only in the traced run, where it is reported per layer.
    """

    name: str
    run: Callable[["Tracer"], Any]
    check: Callable[[Any], None]
    tags: dict = field(default_factory=dict)
    kept_failing: str = ""
    heavy: bool = False
    peak_when_traced: bool = False


@dataclass
class ColdStart:
    """A ``python -m lagsurf.cli`` invocation and the check of its result."""

    argv: list[str]
    check: Callable[[int, str], None]


class Tracer:
    """Calls into lagsurf layers; when enabled, records a span per call.

    A span is ``[name, start_ns, end_ns, parent]`` where ``parent`` is the
    index of the enclosing span (the operation) or -1.  Spans stay in memory
    and are written out when the run ends.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []
        self.notes: list[tuple[int, str, float]] = []
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def note(self, name: str, value: float) -> None:
        """Record a count at the current span (work done, not time)."""
        if self.enabled:
            self.notes.append((self._stack[-1] if self._stack else -1, name, value))

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter_ns()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()


def load(workload: str):
    if workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; have {sorted(WORKLOADS)}")
    return importlib.import_module(WORKLOADS[workload])


# -- passes -------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float  # the sum of the operations' times: checks are not timed
    op_s: list[float]
    failures: dict[int, str]


def run_pass(ops: list[Op], tracer: Tracer) -> PassResult:
    """Run every operation once, timing each; check its output untimed.

    Each output is checked and dropped before the next operation starts, so
    no pass carries the outputs of earlier operations in its heap.
    """
    gc.collect()
    op_s: list[float] = []
    failures: dict[int, str] = {}
    for index, op in enumerate(ops):
        span = tracer._open("op:" + op.name) if tracer.enabled else -1
        began = time.perf_counter()
        try:
            output = op.run(tracer)
        except Exception as err:  # a raising operation is a failed one
            op_s.append(time.perf_counter() - began)
            failures[index] = f"raised {type(err).__name__}: {err}"
            continue
        finally:
            if span >= 0:
                tracer._close(span)
        op_s.append(time.perf_counter() - began)
        try:
            op.check(output)
        except CheckFailed as err:
            failures[index] = str(err)
        except Exception as err:
            failures[index] = f"check raised {type(err).__name__}: {err}"
        del output
    return PassResult(sum(op_s), op_s, failures)


def peak_groups(ops: list[Op], op_s: list[float], workers: int, trace: bool) -> list[list[int]]:
    """Split operations among workers, longest first, heavy ones together."""
    groups: list[list[int]] = [[] for _ in range(workers)]
    load_s = [0.0] * workers
    wanted = [i for i, op in enumerate(ops) if trace or not op.peak_when_traced]
    for index in wanted:
        if ops[index].heavy:
            groups[0].append(index)
            load_s[0] += op_s[index]
    light = sorted((i for i in wanted if not ops[i].heavy), key=lambda i: -op_s[i])
    for index in light:
        target = min(range(workers), key=lambda w: load_s[w])
        groups[target].append(index)
        load_s[target] += op_s[index]
    return [sorted(group) for group in groups if group]


def _harness_command(*args: str) -> list[str]:
    """A fresh interpreter running :func:`_main` from the cached module."""
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import harness; "
        "sys.exit(harness._main(sys.argv[1:]))"
    )
    return [sys.executable, "-c", code, *args]


def peak_pass(workload: str, seed: int, small: bool, groups: list[list[int]]) -> dict[int, int]:
    """Per-operation tracemalloc peaks, measured in worker processes."""
    procs = [
        subprocess.Popen(
            _harness_command("peak", workload, str(seed), str(int(small)), ",".join(map(str, group))),
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        for group in groups
    ]
    peaks: dict[int, int] = {}
    try:
        for proc in procs:
            out, _ = proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError(f"peak worker exited with {proc.returncode}")
            peaks.update({int(k): v for k, v in json.loads(out.strip().splitlines()[-1]).items()})
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return peaks


def ordered(ops: list[Op], seed: int) -> list[Op]:
    """The operations in an order drawn from the seed.

    Short operations then sit between long ones all through the pass, so
    their median samples the machine's speed over the whole pass rather
    than over one stretch of it.
    """
    random.Random(seed).shuffle(ops)
    return ops


def _peak_worker(workload: str, seed: int, small: bool, indices: list[int]) -> dict[int, int]:
    module = load(workload)
    ops = ordered(module.operations(module.build(seed, small)), seed)
    tracer = Tracer(False)
    peaks = {}
    for index in indices:
        tracemalloc.start()
        try:
            ops[index].run(tracer)
        except Exception:  # the timed pass already counted it as failed
            pass
        peaks[index] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peaks


# -- probes in fresh interpreters ----------------------------------------------


def _timed_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    began = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    return time.perf_counter() - began, proc


def setup_probe(workload: str, seed: int, small: bool, repeats: int) -> list[float]:
    """Wall time of fresh interpreter -> imports -> inputs built."""
    times = []
    for _ in range(repeats):
        elapsed, proc = _timed_child(_harness_command("setup", workload, str(seed), str(int(small))))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(elapsed)
    return times


def cold_starts(starts: list[ColdStart], count: int) -> tuple[list[float], list[str]]:
    """``count`` fresh ``python -m lagsurf.cli`` runs, taking the verbs in turn."""
    times, failures = [], []
    for turn in range(count):
        start = starts[turn % len(starts)]
        elapsed, proc = _timed_child([sys.executable, "-m", "lagsurf.cli", *start.argv])
        times.append(elapsed)
        try:
            start.check(proc.returncode, proc.stdout)
        except CheckFailed as err:
            failures.append(f"cold start {' '.join(start.argv)}: {err}")
    return times, failures


def import_probe(module: str, repeats: int) -> list[float]:
    """Seconds to import one module in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import " + module
        + "; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip()))
    return times


# -- span arithmetic -------------------------------------------------------------


def op_spans(ops: list[Op], tracer: Tracer) -> list[tuple[Op, list[tuple[str, float]]]]:
    """Each operation with the (name, seconds) of the layer calls it made."""
    by_op: dict[int, list[tuple[str, float]]] = {}
    op_of_span: dict[int, int] = {}
    names = {op.name: i for i, op in enumerate(ops)}
    for index, (name, start, end, parent) in enumerate(tracer.spans):
        if name.startswith("op:"):
            op_of_span[index] = names[name[3:]]
            by_op[op_of_span[index]] = []
        else:
            by_op[op_of_span[parent]].append((name, (end - start) / 1e9))
    return [(ops[i], calls) for i, calls in sorted(by_op.items())]


def op_notes(ops: list[Op], tracer: Tracer) -> list[tuple[Op, str, float]]:
    names = {op.name: i for i, op in enumerate(ops)}
    return [
        (ops[names[tracer.spans[span][0][3:]]], name, value)
        for span, name, value in tracer.notes
    ]


def self_seconds(tracer: Tracer) -> dict[str, float]:
    """Self time per top-level name component: span time minus child spans."""
    child_s = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            child_s[parent] += (end - start) / 1e9
    totals: dict[str, float] = {}
    for (name, start, end, _), children in zip(tracer.spans, child_s):
        owner = "bench" if name.startswith("op:") else name.split(".")[0]
        totals[owner] = totals.get(owner, 0.0) + (end - start) / 1e9 - children
    return totals


def durations(calls, name: str, **tags) -> list[float]:
    """Durations of every call named ``name`` from operations with ``tags``."""
    return [
        seconds
        for op, made in calls
        if all(op.tags.get(k) == v for k, v in tags.items())
        for call, seconds in made
        if call == name
    ]


def med(values: list[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


# -- one run ----------------------------------------------------------------------


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload and return the result object (last stdout line)."""
    module = load(workload)
    end_to_end, per_layer = declared_metrics()
    ops = ordered(module.operations(module.build(seed, small)), seed)

    # Probes run in three rounds spread over the run, so that their medians
    # sample the machine's speed at several times.
    rounds = 1 if small else PROBE_ROUNDS
    setup_s: list[float] = []
    cold_s: list[float] = []
    cold_failures: list[str] = []

    def probe_round() -> None:
        if trace or len(setup_s) == rounds * SETUP_PER_ROUND:
            return
        setup_s.extend(setup_probe(workload, seed, small, SETUP_PER_ROUND))
        times, failures = cold_starts(module.cold_starts(), COLD_PER_ROUND)
        cold_s.extend(times)
        cold_failures.extend(failures)

    probe_round()
    passes: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(ops, Tracer(False)))
        if small:
            break
    traced: Tracer | None = None
    if trace:
        traced = Tracer(True)
        passes.append(run_pass(ops, traced))
    untraced = passes[:-1] if trace else passes
    probe_round()

    attempted = len(ops) * len(passes)
    failures = [(ops[i], why) for p in passes for i, why in p.failures.items()]
    unexpected = [f"{op.name}: {why}" for op, why in failures if not op.kept_failing]

    peaks = peak_pass(workload, seed, small, peak_groups(ops, untraced[0].op_s, PEAK_WORKERS, trace))
    probe_round()
    unexpected += cold_failures

    metrics: dict[str, float]
    if not trace:
        metrics = {
            "setup_s": med(setup_s),
            "batch_s": med([p.wall_s for p in untraced]),
            "peak_mib": max(peaks.values()) / MIB,
            "cold_start_ms": med(cold_s, 1e3),
        }
        units = end_to_end
    else:
        calls = op_spans(ops, traced)
        notes = op_notes(ops, traced)
        metrics = {name: 0.0 for name in per_layer}
        metrics.update(module.layer_metrics(calls, notes, [(ops[i], b / MIB) for i, b in peaks.items()]))
        repeats = 1 if small else IMPORT_REPEATS
        metrics["cli.import_ms"] = med(import_probe("lagsurf.cli", repeats), 1e3)
        metrics["cli.import_numpy_ms"] = med(import_probe("numpy", repeats), 1e3)
        for owner, spent in self_seconds(traced).items():
            if owner != "bench":
                metrics[f"{owner}.self_s"] = spent
        latencies = [s for p in untraced for s in p.op_s]
        metrics["bench.op_p50_ms"] = med(latencies, 1e3)
        metrics["bench.op_samples"] = len(latencies)
        metrics["trace.overhead_s"] = passes[-1].wall_s - med([p.wall_s for p in untraced])
        units = per_layer
        _write_trace(workload, seed, ops, traced, peaks)
    stray = sorted(set(metrics) - set(units))
    if stray:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {stray}")

    _report(workload, len(untraced), ops, failures, len(cold_s), unexpected)
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _write_trace(workload: str, seed: int, ops: list[Op], tracer: Tracer, peaks: dict[int, int]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "start_ns", "end_ns", "parent"],
        "spans": tracer.spans,
        "notes": tracer.notes,
        "peak_bytes": {ops[i].name: b for i, b in sorted(peaks.items())},
    }
    (OUT_DIR / f"trace-{workload}-{seed}.json").write_text(json.dumps(payload))


def _report(workload, timed: int, ops, failures, cold_count: int, unexpected: list[str]) -> None:
    """Human summary on stderr: sample counts behind each median, and failures."""
    print(
        f"{workload}: {timed} timed pass(es) x {len(ops)} ops; "
        f"cold_start_ms over {cold_count} starts",
        file=sys.stderr,
    )
    for op, why in failures:
        if op.kept_failing:
            print(f"  kept-failing {op.name}: {why} [{op.kept_failing}]", file=sys.stderr)
    for problem in unexpected:
        print(f"  FAILED {problem}", file=sys.stderr)


def _main(argv: list[str]) -> int:
    """``setup|peak WORKLOAD SEED SMALL [OP_INDICES]`` in a fresh interpreter."""
    mode, workload, seed, small = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    module = load(workload)
    if mode == "setup":
        module.build(seed, small)
        return 0
    if mode == "peak":
        indices = [int(i) for i in argv[4].split(",")]
        print(json.dumps(_peak_worker(workload, seed, small, indices)))
        return 0
    raise SystemExit(f"error: unknown mode {mode!r}")
