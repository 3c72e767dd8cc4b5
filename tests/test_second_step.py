"""rev2step's second step (completion, reduction, derivation) on int masks,
checked against the frozenset pipeline in ``helpers``: the same completion
contexts in the same order, the same reduced table and empty-context bits,
and the same derived automaton."""
from helpers import (
    empty_lang,
    minimal_dfas,
    nth_from_end_nfa,
    reference_apply_modifications,
    reference_completion_contexts,
    reference_derive_reversal_rfsa,
)
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfsalearn.automata import ContractError, determinize, minimize, reverse_automaton
from rfsalearn.learners import _completion_contexts, lstar_col, two_step_reversal
from rfsalearn.tables import (
    ModifiedTable,
    ObservationTable,
    apply_modifications,
    derive_reversal_rfsa,
)
from rfsalearn.teacher import ReversalTeacher, TeacherSession


def check_second_step(target):
    """Run rev2step's first step on ``target`` and compare every later stage."""
    rev = ReversalTeacher(TeacherSession(target))
    first = lstar_col(rev)
    table = first.final_table
    contexts = _completion_contexts(first.hypothesis)
    assert contexts == reference_completion_contexts(table)
    for e in contexts:
        table.add_context(e)
    table.fill(rev)

    modified = apply_modifications(table)
    expected = reference_apply_modifications(table)
    assert modified.table.dump() == expected.table.dump()
    assert list(modified.eps_obs.items()) == list(expected.eps_obs.items())

    hypothesis = derive_reversal_rfsa(modified)
    assert hypothesis == reference_derive_reversal_rfsa(modified)
    return contexts, hypothesis


def test_second_step_matches_reference_on_corpus(corpus_runs):
    runs, _ = corpus_runs
    for run in runs:
        _, hypothesis = check_second_step(run.target)
        assert run.results["rev2step"].hypothesis == hypothesis


def check_learner(target):
    _, hypothesis = check_second_step(target)
    assert two_step_reversal(TeacherSession(target)).hypothesis == hypothesis


def test_second_step_matches_reference_on_nth_families():
    for n in range(3, 7):
        check_learner(minimize(determinize(nth_from_end_nfa(n))))
    for n in range(6, 10):
        check_learner(minimize(determinize(reverse_automaton(nth_from_end_nfa(n)))))


@given(minimal_dfas())
@settings(max_examples=40, deadline=None)
def test_second_step_matches_reference_on_random_dfas(target):
    check_learner(target)


def test_second_step_on_the_empty_language():
    # No useful final state: the subset search meets only the empty set,
    # which is covered, so the completion adds no context.
    contexts, hypothesis = check_second_step(empty_lang())
    assert contexts == []
    assert hypothesis.n_states == 0


@st.composite
def modified_tables(draw):
    """Tables with arbitrary bits over a prefix-closed RED, and arbitrary ε bits."""
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    word = st.lists(st.sampled_from(alphabet), max_size=3).map(tuple)
    red = {()}
    for w in draw(st.lists(word, max_size=6)):
        red |= {w[:i] for i in range(len(w) + 1)}
    red = sorted(red, key=lambda w: (len(w), w))
    contexts = draw(st.lists(word, min_size=1, max_size=5, unique=True))
    rows = {
        s: draw(st.lists(st.integers(0, 1), min_size=len(contexts), max_size=len(contexts)))
        for s in red + [r + (a,) for r in red for a in alphabet]
    }
    table = ObservationTable.from_rows(alphabet, red, contexts, rows)
    return ModifiedTable(table, {s: draw(st.integers(0, 1)) for s in red})


@given(modified_tables())
@settings(max_examples=150, deadline=None)
def test_reversal_derivation_matches_reference_on_arbitrary_tables(modified):
    assert derive_reversal_rfsa(modified) == reference_derive_reversal_rfsa(modified)


def test_reversal_derivation_rejects_an_unfilled_table():
    # A reduced RED need not be prefix-closed: here it holds aa but not a.
    table = ObservationTable._build(("a", "b"), [(), ("a", "a")], [()], lambda words: [1] * len(words))
    modified = ModifiedTable(table, {(): 1, ("a", "a"): 1})
    table.add_red(("a",))  # ab is a new blue row with an unset cell; aa is red
    table.add_red(("b",))  # so are ba and bb
    with pytest.raises(ContractError, match=r"^row \('a', 'b'\) not fully filled$"):
        derive_reversal_rfsa(modified)
    table.add_context(("b",))  # now every row has one, red rows first
    with pytest.raises(ContractError, match=r"^row \(\) not fully filled$"):
        derive_reversal_rfsa(modified)
