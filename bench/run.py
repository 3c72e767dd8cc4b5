"""rfsalearn benchmark: canonical-RFSA ops and learning records in a closed loop.

Run from the repository root, for example::

    python3 bench/run.py --workload nth-end --seed 1 --seconds 35 --trace 0

A pass runs, for every target of the workload, one canonical op
(``canonical_rfsa(minimize(determinize(target)))``, the work of
``rfsalearn canonical``) and one record per learner
(``cli.run_benchmark_record``, the unit of ``rfsalearn bench``).  One client
in one process runs the ops back to back, each starting when the previous one
ends.  ``--seed`` draws the order of the ops in each pass; the corpus itself
comes from ``--corpus-seed``.  Passes repeat while the next one still fits in
``--seconds``; the targets are built again before each one.

The host's CPU speed swings by 40% and more within seconds, with other
tenants' load, so every timing is normalised by a fixed calibration chunk
that runs between the ops.  An op's time is scaled by ``CHUNK_REF_S`` over
the mean of the chunk times just before and just after it: the seconds the op
would take on a host where the chunk takes ``CHUNK_REF_S``.  Each op runs
after a garbage collection outside its timed region.  Each timing metric sums
the ops' median normalised times over the passes; ``setup_s`` is the median
over all builds, normalised the same way.  The ``meta`` line reports the
median chunk time, and so the host's speed during the run.

After each pass, outside its timed region, a correctness gate checks every
op.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced passes with
traced ones and reports per-layer self times and counts from the spans, which
it also writes to ``.bench_out/spans-<workload>.csv``.  Every metric is
printed with its unit, and the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0
only when every op passed the gate.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads
from workloads import automata, cli, residuals

ALGS = ("lstar", "nlstar", "rev2step", "prime2step")
CANONICAL = "canonical"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "lstar_s": "s",
    "nlstar_s": "s",
    "rev2step_s": "s",
    "prime2step_s": "s",
    "oracle_s": "s",
    "mq_total": "count",
    "mq_distinct": "count",
    "eq_total": "count",
    "cex_max": "count",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{name: "s" for name in tracing.SELF_TIME},
    **{name: "count" for name in tracing.CALLS},
    "teacher.mq_hit_ratio": "ratio",
    "tables.row_calls": "count",
    "tables.cells": "count",
    "learners.rounds": "count",
    "trace.overhead_ratio": "ratio",
}

# Before every pass the targets are built again for at least this long, so
# set-up samples are spread over the whole run like the passes are.
SETUP_S_PER_PASS = 0.05
# The calibration chunk: CHUNK_ITERS steps of word-keyed dict updates, about
# 1 ms on a 2-CPU cloud host, and the time it stands for in the metrics.
CHUNK_ITERS = 1500
CHUNK_REF_S = 0.001
OUT_DIR = workloads.ROOT / ".bench_out"


@dataclass
class Outcome:
    """One op of a pass: a canonical-op automaton or a ``(BenchRecord, hypothesis)``."""

    target_id: str
    kind: str
    result: object = None
    error: str | None = None
    seconds: float = 0.0
    chunk_s: float = CHUNK_REF_S

    @property
    def label(self) -> str:
        return f"{self.target_id}/{self.kind}"


def plan(n_targets: int, seed: int) -> list[tuple[int, str]]:
    """Every (target index, op kind) of a pass, in an order drawn from ``seed``."""
    ops = [(i, kind) for i in range(n_targets) for kind in (CANONICAL, *ALGS)]
    random.Random(seed).shuffle(ops)
    return ops


def canonical_op(target: automata.Automaton) -> automata.Automaton:
    return residuals.canonical_rfsa(automata.minimize(automata.determinize(target)))


def chunk_seconds() -> float:
    """Time one calibration chunk: dict updates keyed by short words, like the teacher's cache."""
    begin = time.perf_counter()
    seen: dict[tuple, int] = {}
    word: tuple = ()
    for i in range(CHUNK_ITERS):
        word = (word + (i % 3 & 1,))[-7:]
        seen[word] = seen.get(word, 0) + 1
    return time.perf_counter() - begin


def run_pass(targets, ops, canonical=canonical_op, tracer: tracing.Tracer | None = None,
             calibrate: bool = False):
    """Run every op once; an op that raises is recorded and the pass goes on.

    With ``calibrate``, each op starts after a garbage collection, a
    calibration chunk runs before the first op and after every op, and each
    outcome keeps the mean of the two chunks around it.
    """
    outcomes = []
    chunk = chunk_seconds() if calibrate else CHUNK_REF_S
    for op_id, (i, kind) in enumerate(ops):
        target_id, target = targets[i]
        if tracer:
            tracer.record_id = op_id
        outcome = Outcome(target_id, kind)
        if calibrate:
            gc.collect()
        begin = time.perf_counter()
        try:
            if kind == CANONICAL:
                outcome.result = canonical(target)
            else:
                outcome.result = cli.run_benchmark_record(target_id, target, kind)
        except Exception:  # isolate the op; the gate reports it with its traceback
            outcome.error = traceback.format_exc()
        outcome.seconds = time.perf_counter() - begin
        if calibrate:
            after = chunk_seconds()
            outcome.chunk_s = (chunk + after) / 2
            chunk = after
        outcomes.append(outcome)
    return outcomes


def query_counts(outcomes: list[Outcome]) -> dict[str, int]:
    """The records' query counters over one pass."""
    counts = dict(mq_total=0, mq_distinct=0, eq_total=0, cex_max=0)
    for o in outcomes:
        if o.kind == CANONICAL or o.result is None:
            continue
        record = o.result[0]
        counts["mq_total"] += record.mq_total
        counts["mq_distinct"] += record.mq_distinct
        counts["eq_total"] += record.eq_count
        counts["cex_max"] = max(counts["cex_max"], record.longest_cex)
    return counts


class OpTimes:
    """Each op's normalised times over the passes, summed into the timing metrics.

    ``wall_s`` and ``oracle_s`` use the time around the op, the learners the
    record's own ``wall_ms``; each op contributes its median over the passes.
    """

    def __init__(self):
        self.op: dict[tuple[str, str], list[float]] = {}
        self.record: dict[tuple[str, str], list[float]] = {}
        self.chunks: list[float] = []

    def add(self, outcomes: list[Outcome]):
        for o in outcomes:
            key, scale = (o.target_id, o.kind), CHUNK_REF_S / o.chunk_s
            self.chunks.append(o.chunk_s)
            self.op.setdefault(key, []).append(o.seconds * scale)
            if o.kind != CANONICAL and o.result is not None:
                self.record.setdefault(key, []).append(o.result[0].wall_ms / 1000.0 * scale)

    def metrics(self) -> dict[str, float]:
        op = {key: statistics.median(ts) for key, ts in self.op.items()}
        record = {key: statistics.median(ts) for key, ts in self.record.items()}
        sums = {"wall_s": sum(op.values())}
        sums["oracle_s"] = sum(t for (_, kind), t in op.items() if kind == CANONICAL)
        for alg in ALGS:
            sums[f"{alg}_s"] = sum(t for (_, kind), t in record.items() if kind == alg)
        return sums


def repeat_until(deadline: float, step) -> list:
    """Run ``step`` at least once, then again while one more run still fits."""
    results, longest = [], 0.0
    while True:
        begin = time.perf_counter()
        results.append(step())
        longest = max(longest, time.perf_counter() - begin)
        if time.perf_counter() + longest > deadline:
            return results


def timed_setup(wl: workloads.Workload, samples: list[float]):
    """Build the targets for at least SETUP_S_PER_PASS, adding each build's normalised time to ``samples``.

    The targets are then frozen out of the garbage collector, so the
    collection before each op stays cheap.
    """
    first = time.perf_counter()
    chunk = chunk_seconds()
    while True:
        gc.collect()
        begin = time.perf_counter()
        targets = wl.build()
        seconds = time.perf_counter() - begin
        after = chunk_seconds()
        samples.append(seconds * CHUNK_REF_S / ((chunk + after) / 2))
        chunk = after
        if time.perf_counter() - first >= SETUP_S_PER_PASS:
            gc.collect()
            gc.freeze()
            return targets


class Gate:
    """Checks every op of a pass, outside the timed region.

    Canonical ops must match the non-coverable-subset oracle on the reversed
    minimal DFA; ``lstar`` must return the minimal DFA and the other learners
    the canonical op's result for the same target in the same pass.
    """

    def __init__(self, targets):
        self.minimal, self.oracle = {}, {}
        for target_id, target in targets:
            self.minimal[target_id] = automata.minimize(automata.determinize(target))
            reversed_min = automata.minimize(
                automata.determinize(automata.reverse_automaton(target))
            )
            self.oracle[target_id] = residuals.c_of_b(
                automata.reverse_automaton(automata.trim(reversed_min))
            )
        self.passes = self.canonical_ops = self.records = 0
        self.failures: list[tuple[str, str]] = []

    @property
    def attempted(self) -> int:
        return self.canonical_ops + self.records

    def check(self, outcomes: list[Outcome]):
        """Count the pass's ops and record (op label, problem) for each failed one."""
        canonical = {
            o.target_id: o.result for o in outcomes if o.kind == CANONICAL and o.error is None
        }
        n_canonical = sum(o.kind == CANONICAL for o in outcomes)
        self.passes += 1
        self.canonical_ops += n_canonical
        self.records += len(outcomes) - n_canonical
        for o in outcomes:
            problem = o.error or self._problem(o, canonical)
            if problem:
                self.failures.append((o.label, problem))

    def _problem(self, o: Outcome, canonical) -> str | None:
        if o.kind == CANONICAL:
            if not automata.isomorphic(o.result, self.oracle[o.target_id]):
                return "canonical op differs from the subset-construction oracle"
            return None
        record, hypothesis = o.result
        if record.correct != 1:
            return "record reports correct=0"
        if o.kind == "lstar":
            reference = self.minimal[o.target_id]
        elif o.target_id in canonical:
            reference = canonical[o.target_id]
        else:
            return "no canonical-op result to compare with"
        if not automata.isomorphic(hypothesis, reference):
            return "hypothesis is not isomorphic to its reference"
        return None


def median_metrics(samples: list[dict]) -> dict[str, float]:
    """Per-metric median; counts take the lower middle sample so they stay whole."""
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        whole = all(isinstance(v, int) for v in values)
        out[name] = statistics.median_low(values) if whole else statistics.median(values)
    return out


def measure(wl: workloads.Workload, seed: int, seconds: float):
    """End-to-end metrics of untraced passes, with their sample counts and the gate."""
    deadline = time.perf_counter() + seconds
    setup_samples: list[float] = []
    targets = timed_setup(wl, setup_samples)
    ops = plan(len(targets), seed)
    order = random.Random(seed)
    gate = Gate(targets)
    times = OpTimes()

    def step():
        order.shuffle(ops)
        outcomes = run_pass(timed_setup(wl, setup_samples), ops, calibrate=True)
        gate.check(outcomes)
        times.add(outcomes)
        return query_counts(outcomes)

    passes = repeat_until(deadline, step)
    metrics = {"setup_s": statistics.median(setup_samples)}
    metrics.update(times.metrics())
    metrics.update(median_metrics(passes))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ok_ratio"] = 1.0 - len(gate.failures) / gate.attempted
    counts = {name: len(passes) for name in metrics}
    counts["setup_s"] = len(setup_samples)
    return metrics, counts, gate, ops, {"chunk_ms_median": 1000 * statistics.median(times.chunks)}


def normalised_seconds(outcomes: list[Outcome]) -> float:
    return sum(o.seconds * CHUNK_REF_S / o.chunk_s for o in outcomes)


def measure_traced(wl: workloads.Workload, seed: int, seconds: float, spans_path: Path):
    """Per-layer metrics from traced passes alternating with untraced ones.

    Both passes are calibrated.  A traced pass's self times are normalised by
    the median chunk time of that pass, since a span has no chunk of its own.
    """
    deadline = time.perf_counter() + seconds
    targets = wl.build()
    ops = plan(len(targets), seed)
    gate = Gate(targets)
    tracer = tracing.Tracer()
    chunks: list[float] = []
    gc.collect()
    gc.freeze()

    def pair():
        untraced = run_pass(targets, ops, calibrate=True)
        tracer.begin_sample()
        tracer.install()
        try:
            tracer.record_id = -1
            traced_targets = tracer.wrap("bench.setup", wl.build)()
            gc.collect()
            gc.freeze()
            traced = run_pass(
                traced_targets, ops, tracer.wrap("bench.canonical_op", canonical_op), tracer,
                calibrate=True,
            )
        finally:
            tracer.uninstall()
        layers = tracer.end_sample()
        chunks.extend(o.chunk_s for o in traced)
        scale = CHUNK_REF_S / statistics.median(o.chunk_s for o in traced)
        for name in tracing.SELF_TIME:
            layers[name] *= scale
        gate.check(untraced)
        gate.check(traced)
        return normalised_seconds(untraced), normalised_seconds(traced), layers

    pairs = repeat_until(deadline, pair)
    metrics = median_metrics([layers for _, _, layers in pairs])
    metrics["trace.overhead_ratio"] = statistics.median(p[1] for p in pairs) / statistics.median(
        p[0] for p in pairs
    )
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path, [f"{targets[i][0]}/{kind}" for i, kind in ops])
    counts = {name: len(pairs) for name in metrics}
    return metrics, counts, gate, ops, {
        "chunk_ms_median": 1000 * statistics.median(chunks),
        "spans_file": os.path.relpath(spans_path, workloads.ROOT),
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="shuffles the order of a pass's ops")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=workloads.CORPUS_SEED)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl = workloads.workload(args.workload, args.corpus_seed)
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}.csv"
        metrics, counts, gate, ops, extra = measure_traced(wl, args.seed, args.seconds, spans_path)
        units = PER_LAYER
    else:
        metrics, counts, gate, ops, extra = measure(wl, args.seed, args.seconds)
        units = END_TO_END

    for label, problem in gate.failures:
        print(f"FAILED {label}: {problem.strip()}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "params": wl.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "passes": gate.passes,
        "records_attempted": gate.records,
        "canonical_ops_attempted": gate.canonical_ops,
        "ops_per_pass": len(ops),
        "samples": {name: counts[name] for name in units},
        **extra,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]!r} {unit} (n={counts[name]})")
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if gate.failures else 0


if __name__ == "__main__":
    sys.exit(main())
