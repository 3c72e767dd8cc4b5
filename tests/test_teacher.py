import pytest

from helpers import AB, empty_lang, ends_a, even_a, starts_a, universal_lang
from rfsalearn.automata import Automaton, InputError, word
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
