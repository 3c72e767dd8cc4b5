"""Span tracing for the benchmark, installed on the package from outside it.

``Tracer.install`` replaces chosen package functions and methods with
wrappers that record one span per call: name, start, end, parent span and
the benchmark operation it belongs to.  Names that other modules bound with
``from ... import`` (``learners.derive_dfa``, ``cli.minimize``) and the
learners in ``cli.ALGORITHMS`` are replaced too, so a call is traced whichever
name it goes through.  Spans stay in memory in flat arrays until the run ends.

A layer's self time is its spans' durations minus the durations of their
direct child spans.  Functions that are not wrapped (``Automaton.step``, the
learners' private helpers, table mutations) count towards the self time of
the nearest wrapped caller.
"""
from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from array import array
from collections import Counter

# Per-layer self-time metric -> the functions whose spans it sums.
SELF_TIME = {
    "teacher.mq_s": ("teacher.TeacherSession.mq", "teacher.ReversalTeacher.mq"),
    "teacher.eq_s": ("teacher.TeacherSession.eq", "teacher.ReversalTeacher.eq"),
    "tables.fill_s": ("tables.ObservationTable.fill",),
    "tables.closed_s": ("tables.ObservationTable.is_closed", "tables.ObservationTable.is_rfsa_closed"),
    "tables.consistent_s": (
        "tables.ObservationTable.is_consistent",
        "tables.ObservationTable.is_rfsa_consistent",
    ),
    "tables.derive_s": (
        "tables.derive_dfa",
        "tables.derive_dfa_with_reps",
        "tables.derive_rfsa",
        "tables.derive_reversal_rfsa",
        "tables.modified_row_automaton",
    ),
    "tables.reduce_s": ("tables.apply_modifications", "tables.drop_zero_rows_and_columns"),
    "automata.witness_s": ("automata.shortest_difference_witness",),
    "automata.determinize_s": ("automata.determinize", "automata.determinize_labeled"),
    "automata.minimize_s": ("automata.minimize",),
    "automata.trim_s": ("automata.trim",),
    "residuals.index_s": ("residuals.residual_index",),
    "residuals.prime_s": ("residuals.is_prime",),
    "residuals.canonical_s": ("residuals.canonical_rfsa",),
    "learners.lstar.self_s": ("learners.lstar_col",),
    "learners.nlstar.self_s": ("learners.nlstar",),
    "learners.rev2step.self_s": ("learners.two_step_reversal",),
    "learners.prime2step.self_s": ("learners.two_step_prime_contexts",),
    "cli.record.self_s": ("cli.run_benchmark_record",),
}

# Per-layer call-count metric -> the functions whose spans it counts.
CALLS = {
    "teacher.mq_calls": ("teacher.TeacherSession.mq",),
    "teacher.eq_calls": ("teacher.TeacherSession.eq",),
    "tables.fill_calls": ("tables.ObservationTable.fill",),
    "tables.closed_calls": SELF_TIME["tables.closed_s"],
    "automata.witness_calls": ("automata.shortest_difference_witness",),
}

# ``ObservationTable.row`` runs about 750 000 times per corpus pass: it is
# counted, not spanned, and its time stays with its callers.
ROW = "tables.ObservationTable.row"
MQ = "teacher.TeacherSession.mq"

# Counters the tracer fills besides the spans.
COUNTERS = ("tables.row_calls", "tables.cells", "learners.rounds", "teacher.mq_hits")


def _resolve(qualname: str):
    """(owner, attribute, original) for ``module.function`` or ``module.Class.method``."""
    module_name, _, rest = qualname.partition(".")
    owner = importlib.import_module(f"rfsalearn.{module_name}")
    *classes, attr = rest.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.record = array("i")
        self.record_id = -1
        self.counts: Counter = Counter()
        self.samples: list[tuple[int, int]] = []
        self._sample_start = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------- wrappers

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        names, starts, ends, parents, records = (
            self.name, self.start, self.end, self.parent, self.record,
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            records.append(self.record_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _hit_counted(self, fn):
        """``TeacherSession.mq`` that also counts answers served from the cache."""
        counts = self.counts

        @functools.wraps(fn)
        def mq(session, w):
            before = session.stats.mq_distinct
            answer = fn(session, w)
            if session.stats.mq_distinct == before:
                counts["teacher.mq_hits"] += 1
            return answer

        return mq

    def _result_observed(self, fn):
        """A top-level learner that adds its final table and rounds to the counters."""
        counts = self.counts

        @functools.wraps(fn)
        def learner(teacher):
            result = fn(teacher)
            table = getattr(result.final_table, "table", result.final_table)
            counts["tables.cells"] += len(table.words()) * len(table.contexts)
            counts["learners.rounds"] += result.iterations
            return result

        return learner

    # ------------------------------------------------------------ patching

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def install(self):
        """Replace every traced function, under every name the package binds it to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "rfsalearn" or n.startswith("rfsalearn.")]
        spanned = {q for group in (*SELF_TIME.values(), *CALLS.values()) for q in group}
        for qualname in sorted(spanned | {ROW}):
            owner, attr, original = _resolve(qualname)
            if qualname == ROW:
                wrapper = self._counted("tables.row_calls", original)
            elif qualname == MQ:
                wrapper = self.wrap(qualname, self._hit_counted(original))
            else:
                wrapper = self.wrap(qualname, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                self._patch(value, k, wrapper)
        cli = importlib.import_module("rfsalearn.cli")
        for alg, learner in list(cli.ALGORITHMS.items()):
            self._patch(cli.ALGORITHMS, alg, self._result_observed(learner))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # ------------------------------------------------------------- samples

    def begin_sample(self):
        self.counts.clear()
        self._sample_start = len(self.name)

    def end_sample(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts since ``begin_sample``."""
        lo, hi = self._sample_start, len(self.name)
        self.samples.append((lo, hi))
        self_time = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        for i in range(lo, hi):
            d = ends[i] - starts[i]
            self_time[names[i]] += d
            calls[names[i]] += 1
            p = parents[i]
            if p >= 0:
                self_time[names[p]] -= d

        def total(values, qualnames):
            return sum(values[self._name_ids[q]] for q in qualnames)

        metrics: dict[str, float] = {m: total(self_time, q) for m, q in SELF_TIME.items()}
        metrics.update({m: total(calls, q) for m, q in CALLS.items()})
        for key in COUNTERS:
            metrics[key] = self.counts[key]
        mq_calls = metrics["teacher.mq_calls"]
        metrics["teacher.mq_hit_ratio"] = metrics.pop("teacher.mq_hits") / mq_calls if mq_calls else 0.0
        return metrics

    def write_spans(self, path, labels: list[str]):
        """CSV of every span; ``record`` indexes ``labels`` and -1 marks set-up."""
        with open(path, "w", newline="", encoding="utf-8") as out:
            writer = csv.writer(out)
            writer.writerow(("sample", "span", "parent", "record", "op", "name", "start_s", "end_s"))
            for sample, (lo, hi) in enumerate(self.samples):
                for i in range(lo, hi):
                    r = self.record[i]
                    writer.writerow((
                        sample, i, self.parent[i], r, labels[r] if r >= 0 else "setup",
                        self.names[self.name[i]],
                        f"{self.start[i] - self._t0:.9f}", f"{self.end[i] - self._t0:.9f}",
                    ))
