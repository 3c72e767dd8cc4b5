import sys
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    AB,
    empty_lang,
    ends_a,
    even_a,
    nfa_ends_a,
    nth_from_end_nfa,
    reference_reversed_eq,
    starts_a,
    universal_lang,
)
from rfsalearn import learners
from rfsalearn.automata import (
    Automaton,
    InputError,
    determinize,
    minimize,
    reverse_automaton,
    reverse_word,
    shortest_difference_witness,
    word,
)
from rfsalearn.residuals import c_of_b
from rfsalearn.teacher import ReversalTeacher, TeacherSession


def test_mq_empty_language_all_zero():
    session = TeacherSession(empty_lang())
    for text in ("", "a", "b", "ab"):
        assert session.mq(word(text)) == 0


def test_mq_even_a():
    session = TeacherSession(even_a())
    assert session.mq(word("aa")) == 1
    assert session.mq(word("a")) == 0


def test_mq_counters_and_cache():
    session = TeacherSession(even_a())
    session.mq(word("ab"))
    session.mq(word("ab"))
    session.mq(word("ba"))
    assert session.stats.mq_total == 3
    assert session.stats.mq_distinct == 2


def test_mq_foreign_symbol():
    session = TeacherSession(even_a())
    with pytest.raises(InputError):
        session.mq(("z",))
    with pytest.raises(InputError):
        session.mq(("a", "z"))
    assert session.stats.mq_total == 0
    assert session.stats.mq_distinct == 0


@st.composite
def targets_and_words(draw):
    """A total DFA, a partial DFA or an NFA over 1-3 letters, and words over its alphabet."""
    kind = draw(st.sampled_from(["total", "partial", "nfa"]))
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    lo, hi = {"total": (1, 1), "partial": (0, 1), "nfa": (0, 2)}[kind]
    targets = st.sets(state, min_size=lo, max_size=hi)
    arcs = [(q, a, draw(targets)) for q in range(n) for a in alphabet]
    initial = draw(st.sets(state, min_size=1, max_size=2)) if kind == "nfa" else {0}
    target = Automaton(alphabet, n, initial, draw(st.sets(state)), arcs)
    words = draw(st.lists(st.lists(st.sampled_from(alphabet), max_size=8).map(tuple), max_size=30))
    return target, words


def _no_dense_view(self):
    raise AssertionError("the reference read the dense view")


@given(targets_and_words())
@settings(max_examples=200, deadline=None)
def test_mq_equals_accepts(example):
    target, words = example
    session = TeacherSession(target)
    # ``accepts`` and the subset oracle ``c_of_b`` must not read the dense
    # view the teacher and the learners share; ``helpers.all_words`` takes
    # no automaton at all.
    with mock.patch.object(Automaton, "_delta", property(_no_dense_view)):
        expected = [int(target.accepts(w)) for w in words]
        c_of_b(target)
    assert [session.mq(w) for w in words] == expected
    assert session.stats.mq_distinct == len(set(words))


def test_mq_foreign_symbol_on_dense_path():
    for target in (even_a(), starts_a(), nfa_ends_a()):
        session = TeacherSession(target)
        for w in (("z",), ("a", "z"), ("a", "b", "ab")):
            with pytest.raises(InputError, match="not in alphabet"):
                session.mq(w)
        assert session.stats.mq_total == session.stats.mq_distinct == 0


def test_eq_on_correct_hypothesis():
    session = TeacherSession(even_a())
    renumbered = Automaton(
        AB, 2, {1}, {1}, [(1, "a", 0), (0, "a", 1), (1, "b", 1), (0, "b", 0)]
    )
    assert session.eq(renumbered) is None
    assert session.stats.eq_count == 1
    assert session.stats.longest_counterexample == 0


def test_eq_empty_hypothesis_vs_universal_target():
    session = TeacherSession(universal_lang())
    assert session.eq(empty_lang()) == ()


def test_eq_missing_loop_counterexample():
    # hypothesis forgets the b-loops of the even-a machine
    partial = Automaton(AB, 2, {0}, {0}, [(0, "a", 1), (1, "a", 0)])
    session = TeacherSession(even_a())
    witness = session.eq(partial)
    assert witness == word("b")
    assert session.stats.longest_counterexample == 1


def test_reversal_view_on_reversal_closed_language():
    session = TeacherSession(even_a())
    view = ReversalTeacher(session)
    for text in ("", "a", "ab", "ba", "abb"):
        assert view.mq(word(text)) == session.mq(word(text))


def test_reversal_view_teaches_reversed_language():
    # target: starts with a — the view teaches "ends with a"
    session = TeacherSession(starts_a())
    view = ReversalTeacher(session)
    assert view.mq(word("ab")) == 0
    assert view.mq(word("ba")) == 1
    # target: ends with a — the view teaches "starts with a"
    session = TeacherSession(ends_a())
    view = ReversalTeacher(session)
    assert view.mq(word("ab")) == 1
    assert view.mq(word("ba")) == 0


def test_reversal_view_eq_accepts_correct_reversal():
    session = TeacherSession(ends_a())
    view = ReversalTeacher(session)
    assert view.eq(starts_a()) is None


def test_reversal_view_counterexample_is_reversed():
    session = TeacherSession(starts_a())
    view = ReversalTeacher(session)
    witness = view.eq(empty_lang())
    assert witness is not None
    assert starts_a().accepts(tuple(reversed(witness)))


def test_double_reversal_equals_base():
    base = TeacherSession(ends_a())
    twice = ReversalTeacher(ReversalTeacher(base))
    probe = TeacherSession(ends_a())
    for text in ("", "a", "b", "ab", "ba", "bab"):
        assert twice.mq(word(text)) == probe.mq(word(text))
    assert twice.eq(ends_a()) is None


def test_reversal_view_reverses_any_word_sequence():
    session = TeacherSession(starts_a())
    view = ReversalTeacher(session)
    assert view.mq(["b", "a"]) == view.mq("ba") == view.mq(word("ba")) == 1
    assert session.stats.mq_total == 3 and session.stats.mq_distinct == 1


def test_reversal_view_foreign_symbol_counts_nothing():
    for target in (even_a(), nfa_ends_a()):  # a total DFA and an NFA
        session = TeacherSession(target)
        view = ReversalTeacher(session)
        for w in (("z",), ("a", "z"), ("z", "b", "a")):
            with pytest.raises(InputError, match="not in alphabet"):
                view.mq(w)
        assert session.stats.mq_total == session.stats.mq_distinct == 0


def test_counters_accrue_to_underlying_session():
    session = TeacherSession(ends_a())
    view = ReversalTeacher(session)
    view.mq(word("a"))
    view.eq(empty_lang())
    assert session.stats.mq_total == 1
    assert session.stats.eq_count == 1


def test_eq_absent_iff_canonical_forms_isomorphic():
    from rfsalearn.automata import determinize, isomorphic, minimize

    pairs = [
        (even_a(), even_a()),
        (even_a(), ends_a()),
        (ends_a(), starts_a()),
        (universal_lang(), empty_lang()),
    ]
    for hypothesis, target in pairs:
        session = TeacherSession(target)
        absent = session.eq(hypothesis) is None
        same = isomorphic(
            minimize(determinize(hypothesis)), minimize(determinize(target))
        )
        assert absent == same


@st.composite
def automata_over(draw, alphabet):
    """A total DFA, a partial DFA or an NFA over ``alphabet``; an NFA may have no
    initial state, and any kind may have no final state."""
    kind = draw(st.sampled_from(["total", "partial", "nfa"]))
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    lo, hi = {"total": (1, 1), "partial": (0, 1), "nfa": (0, 2)}[kind]
    arcs = [(q, a, draw(st.sets(state, min_size=lo, max_size=hi))) for q in range(n) for a in alphabet]
    initial = draw(st.sets(state, max_size=2)) if kind == "nfa" else {0}
    return Automaton(alphabet, n, initial, draw(st.sets(state)), arcs)


@st.composite
def eq_rounds(draw):
    """A target and a few hypotheses over the same 1-3 letters."""
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    target = draw(automata_over(alphabet))
    return target, draw(st.lists(automata_over(alphabet), min_size=1, max_size=3))


@given(eq_rounds())
@settings(max_examples=300, deadline=None)
def test_reversed_eq_matches_reversed_automaton_reference(example):
    target, hypotheses = example
    session, reference = TeacherSession(target), TeacherSession(target)
    view = ReversalTeacher(session)
    for hypothesis in hypotheses:
        assert view.eq(hypothesis) == reference_reversed_eq(reference, hypothesis)
        assert session.stats == reference.stats
    # Wrapped twice the view is the plain session again, and the view's own
    # backward walk is the session's forward one.
    twice = ReversalTeacher(ReversalTeacher(TeacherSession(target)))
    for hypothesis in hypotheses:
        expected = shortest_difference_witness(hypothesis, target)
        assert twice.eq(hypothesis) == expected
        assert view._eq_reversed(hypothesis) == (None if expected is None else reverse_word(expected))


def test_reversed_eq_alphabet_mismatch_counts_like_reference():
    other = Automaton(("a", "c"), 1, {0}, {0}, [(0, "a", 0), (0, "c", 0)])
    session, reference = TeacherSession(ends_a()), TeacherSession(ends_a())
    with pytest.raises(InputError, match="alphabet mismatch"):
        ReversalTeacher(session).eq(other)
    with pytest.raises(InputError, match="alphabet mismatch"):
        reference_reversed_eq(reference, other)
    assert session.stats == reference.stats


def _refuse_reversal(a):
    raise AssertionError("rev2step built a reversed automaton")


def test_rev2step_builds_no_reversed_automaton(corpus):
    targets = list(corpus[:40])
    targets += [minimize(determinize(reverse_automaton(nth_from_end_nfa(n)))) for n in (3, 6)]
    with ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.startswith("rfsalearn") and hasattr(module, "reverse_automaton"):
                stack.enter_context(mock.patch.object(module, "reverse_automaton", _refuse_reversal))
        hypotheses = [learners.two_step_reversal(TeacherSession(t)).hypothesis for t in targets]
    for target, hypothesis in zip(targets, hypotheses):
        assert shortest_difference_witness(hypothesis, target) is None


def test_rev2step_counterexamples_match_reference_on_corpus(corpus, monkeypatch):
    """Every corpus rev2step run gets the reference's counterexamples, in order."""
    view_eq = ReversalTeacher.eq

    def checked_eq(view, hypothesis):
        witness = view_eq(view, hypothesis)
        rounds.append((witness, reference_reversed_eq(reference, hypothesis)))
        return witness

    monkeypatch.setattr(ReversalTeacher, "eq", checked_eq)
    for target in corpus:
        rounds = []
        session, reference = TeacherSession(target), TeacherSession(target)
        learners.two_step_reversal(session)
        got, expected = zip(*rounds)
        assert got == expected
        assert session.stats.eq_count == reference.stats.eq_count == len(rounds)
        assert session.stats.longest_counterexample == reference.stats.longest_counterexample
