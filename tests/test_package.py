"""The package's public surface, pinned so that growing it is a visible change,
and the names the benchmark's tracer wraps."""
import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

import rfsalearn
from rfsalearn.cli import generate_corpus, run_benchmark_record

BENCH = Path(__file__).resolve().parent.parent / "bench"

PUBLIC = {
    "EPSILON",
    "Automaton",
    "ContractError",
    "DiagnosticError",
    "InputError",
    "LearnerResult",
    "ModifiedTable",
    "ObservationTable",
    "ParseError",
    "QueryStats",
    "ResidualIndex",
    "ReversalTeacher",
    "StateSetFamily",
    "TeacherSession",
    "Word",
    "apply_modifications",
    "c_of_b",
    "canonical_rfsa",
    "derive_rfsa",
    "derive_dfa",
    "derive_reversal_rfsa",
    "determinize",
    "determinize_labeled",
    "format_automaton",
    "is_coverable_state",
    "is_prime",
    "isomorphic",
    "lstar_col",
    "minimize",
    "modified_row_automaton",
    "nlstar",
    "parse_automaton",
    "reachable_state_sets",
    "residual_index",
    "reverse_automaton",
    "reverse_word",
    "shortest_difference_witness",
    "trim",
    "two_step_prime_contexts",
    "two_step_reversal",
    "word",
}


# ``ObservationTable``'s public attributes.  ``row`` has no caller in the
# package; it stays because the benchmark's tracer counts its calls.
TABLE_PUBLIC = {
    "add_context",
    "add_red",
    "alphabet",
    "blue",
    "contexts",
    "dump",
    "fill",
    "from_rows",
    "is_closed",
    "is_column_coverable",
    "is_consistent",
    "is_rfsa_closed",
    "is_rfsa_consistent",
    "is_row_coverable",
    "ncov_red",
    "obs",
    "red",
    "row",
    "words",
}


# ``ResidualIndex``'s public attributes and its fields: the residual order is
# kept in one format, the strictly-below masks, and ``includes`` is read off them.
RESIDUAL_INDEX_PUBLIC = {"base", "includes"}
RESIDUAL_INDEX_FIELDS = ("base", "_below", "_primes")


def test_public_surface_is_pinned():
    assert len(rfsalearn.__all__) == len(set(rfsalearn.__all__))
    assert set(rfsalearn.__all__) == PUBLIC
    for name in rfsalearn.__all__:
        assert hasattr(rfsalearn, name), name


def test_observation_table_surface_is_pinned():
    assert {name for name in dir(rfsalearn.ObservationTable) if not name.startswith("_")} == TABLE_PUBLIC


def test_residual_index_surface_is_pinned():
    index = rfsalearn.residual_index(generate_corpus(1, 8, 2, 42)[0])
    assert {name for name in dir(index) if not name.startswith("_")} == RESIDUAL_INDEX_PUBLIC
    assert tuple(field.name for field in dataclasses.fields(index)) == RESIDUAL_INDEX_FIELDS


@pytest.fixture
def tracing(monkeypatch):
    """``bench/tracing.py``, imported as it is."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def _package_bindings():
    """Every attribute of the package's modules, of their classes and of their dicts."""
    bindings = {}
    for name, module in sys.modules.items():
        if name != "rfsalearn" and not name.startswith("rfsalearn."):
            continue
        for key, value in vars(module).items():
            bindings[name, key] = value
            if isinstance(value, type):
                bindings[name, key, "class"] = dict(vars(value))
            elif isinstance(value, dict):
                bindings[name, key, "dict"] = dict(value)
    return bindings


def test_tracer_wraps_the_names_the_learners_call(tracing):
    qualnames = {q for group in (*tracing.SELF_TIME.values(), *tracing.CALLS.values()) for q in group}
    for qualname in sorted(qualnames | {tracing.ROW}):
        _, _, original = tracing._resolve(qualname)
        assert callable(original), qualname

    target = generate_corpus(1, 8, 2, 42)[0]
    before = _package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for alg in ("lstar", "nlstar"):
            run_benchmark_record("lang_000", target, alg)
    finally:
        tracer.uninstall()
    assert _package_bindings() == before

    # (span, parent span) name pairs: the learners' own loop calls the
    # predicates and the derivation, besides the derivation's own checks.
    names = [tracer.names[i] for i in tracer.name]
    pairs = {(name, names[p]) for name, p in zip(names, tracer.parent) if p >= 0}
    for child, learner in (
        ("tables.ObservationTable.is_closed", "learners.lstar_col"),
        ("tables.derive_dfa", "learners.lstar_col"),
        ("tables.ObservationTable.is_rfsa_closed", "learners.nlstar"),
        ("tables.derive_rfsa", "learners.nlstar"),
    ):
        assert (child, learner) in pairs
