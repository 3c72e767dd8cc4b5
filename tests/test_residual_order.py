"""The single-pass residual-order kernel against the per-pair reference, and at scale.

Also ``prime2step``'s residual-order contexts: the set path (read off the
co-reachable sets) against the pair path (off the kernel), and which path
each row automaton takes.
"""
import pytest
from hypothesis import example, given, settings

from helpers import (
    AB,
    empty_lang,
    minimal_dfas,
    nfa_ends_a,
    nth_from_end_nfa,
    reference_coreachable_words,
    reference_excess_witness,
    reference_includes,
    reference_residual_order_contexts,
    reference_separating_word,
    residual_witness,
    universal_lang,
)
from rfsalearn.automata import (
    Automaton,
    ContractError,
    _ResidualOrder,
    determinize,
    isomorphic,
    minimize,
    reverse_automaton,
    shortest_difference_witness,
    trim,
)
from rfsalearn.cli import generate_corpus
from rfsalearn import learners
from rfsalearn.learners import (
    _coreachable_words,
    _pair_contexts,
    _residual_order_contexts,
    _set_contexts,
    two_step_prime_contexts,
)
from rfsalearn.residuals import (
    c_of_b,
    canonical_rfsa,
    is_prime,
    residual_index,
)
from rfsalearn.teacher import TeacherSession


def canon(a):
    return minimize(determinize(a))


def assert_matches_reference(dfa):
    n = dfa.n_states
    index = residual_index(dfa)
    includes = reference_includes(dfa)
    assert index.includes == includes
    order = _ResidualOrder(dfa)
    for p in range(n):
        for q in range(n):
            assert residual_witness(order, p, q) == reference_separating_word(dfa, p, q), (p, q)
    assert [is_prime(index, q) for q in range(n)] == [
        reference_excess_witness(dfa, includes, q) is not None for q in range(n)
    ]
    assert _residual_order_contexts(dfa) == list(dict.fromkeys(reference_residual_order_contexts(dfa)))


def test_kernel_matches_reference_on_corpus(corpus):
    for dfa in corpus:
        assert_matches_reference(dfa)


@pytest.mark.parametrize("n", range(3, 7))
def test_kernel_matches_reference_nth_from_end(n):
    assert_matches_reference(canon(nth_from_end_nfa(n)))


@pytest.mark.parametrize("n", range(6, 10))
def test_kernel_matches_reference_nth_from_start(n):
    assert_matches_reference(canon(reverse_automaton(nth_from_end_nfa(n))))


@given(minimal_dfas())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_random(dfa):
    assert_matches_reference(dfa)


def test_kernel_rejects_nondeterministic_input():
    with pytest.raises(ContractError, match="state 0 has 2 successors on 'a'"):
        _ResidualOrder(nfa_ends_a())


def test_walk_rejects_an_included_pair():
    dfa = generate_corpus(1, 8, 2, 42)[0]
    order = _ResidualOrder(dfa)
    with pytest.raises(ContractError, match="L_0 ⊆ L_0"):
        order._walk(0, 0)
    included = [(p, q) for p, row in enumerate(order.dist) for q, d in enumerate(row) if d < 0]
    for p, q in included:
        with pytest.raises(ContractError):
            order._walk(p, q)


def count_walks(monkeypatch, dfas):
    """The ``_walk`` calls the pair path ``_pair_contexts`` makes over ``dfas``."""
    calls = []
    walk = _ResidualOrder._walk

    def counted(order, p, q):
        calls.append((p, q))
        return walk(order, p, q)

    monkeypatch.setattr(_ResidualOrder, "_walk", counted)
    for dfa in dfas:
        _pair_contexts(dfa)
    return len(calls)


def test_one_walk_per_distinct_first_step(monkeypatch, corpus):
    # Of 3 367 and 6 866 non-included pairs, only those with a first step
    # not seen before are walked, and none whose witness is ε.  The
    # 6th-from-end DFA takes the set path in ``_residual_order_contexts``,
    # so its pair path is called directly.
    assert count_walks(monkeypatch, [canon(nth_from_end_nfa(6))]) == 781
    assert count_walks(monkeypatch, corpus) == 3547


def count_kernel_work(monkeypatch, dfa):
    """The kernels built, walks taken and excess searches run by ``_residual_order_contexts(dfa)``."""
    calls = []
    with monkeypatch.context() as patch:
        for name in ("__init__", "_walk", "excess_witness"):
            method = getattr(_ResidualOrder, name)

            def counted(*args, method=method, name=name):
                calls.append(name)
                return method(*args)

            patch.setattr(_ResidualOrder, name, counted)
        _residual_order_contexts(dfa)
    return {name: calls.count(name) for name in ("__init__", "_walk", "excess_witness")}


@pytest.mark.parametrize("n", range(3, 9))
def test_few_coreachable_sets_take_the_set_path(monkeypatch, n):
    # n+2 co-reachable sets against 2^n states: no kernel, walk or excess search.
    dfa = canon(nth_from_end_nfa(n))
    assert len(_coreachable_words(dfa, dfa.n_states)) == n + 2
    assert count_kernel_work(monkeypatch, dfa) == {"__init__": 0, "_walk": 0, "excess_witness": 0}


def test_many_coreachable_sets_take_the_pair_path(monkeypatch):
    # The 6th-from-start language: 8 states, 2^6 co-reachable sets.
    dfa = learners.lstar_col(TeacherSession(canon(reverse_automaton(nth_from_end_nfa(6))))).hypothesis
    assert _coreachable_words(dfa, dfa.n_states) is None
    assert (dfa.n_states, len(_coreachable_words(dfa, 1 << dfa.n_states))) == (8, 2**6)
    work = count_kernel_work(monkeypatch, dfa)
    assert work["__init__"] == 1 and work["_walk"] > 0 and work["excess_witness"] == dfa.n_states


@pytest.mark.parametrize("language", [nth_from_end_nfa(4), reverse_automaton(nth_from_end_nfa(6))])
def test_context_search_builds_no_backward_view(language):
    # The set search steps over predecessor masks of its own, under the cap
    # and past it, so the row automaton keeps no view prime2step never reads.
    dfa = learners.lstar_col(TeacherSession(canon(language))).hypothesis
    learners._residual_order_contexts(dfa)
    assert "_pred_masks" not in vars(dfa)


def assert_paths_agree(dfa):
    """The set path, forced past its cap, gives the pair path's list."""
    entries = _coreachable_words(dfa, 1 << dfa.n_states)
    assert _set_contexts(dfa.n_states, entries) == _pair_contexts(dfa)
    return entries


@pytest.mark.parametrize("n", range(3, 9))
def test_set_and_pair_paths_agree_nth_from_end(n):
    dfa = canon(nth_from_end_nfa(n))
    entries = assert_paths_agree(dfa)
    if n <= 5:
        assert entries == reference_coreachable_words(dfa)


def test_set_and_pair_paths_agree_on_corpus_row_automata_under_the_cap(corpus):
    under = [dfa for dfa in corpus if _coreachable_words(dfa, dfa.n_states) is not None]
    assert len(under) == 6
    for target in under:
        row_auto = learners.lstar_col(TeacherSession(target)).hypothesis
        assert _coreachable_words(row_auto, row_auto.n_states) is not None
        entries = assert_paths_agree(row_auto)
        assert entries == reference_coreachable_words(row_auto)


@given(minimal_dfas(max_states=6))
@example(empty_lang())
@example(universal_lang())
@example(Automaton(("a",), 1, {0}, {0}, [(0, "a", 0)]))
@settings(max_examples=200, deadline=None)
def test_set_and_pair_paths_agree_random(dfa):
    entries = assert_paths_agree(dfa)
    assert _residual_order_contexts(dfa) == _pair_contexts(dfa)
    if len(entries[-1][1]) < 5:
        assert entries == reference_coreachable_words(dfa)


def test_kernel_rejects_partial_input():
    partial = Automaton(AB, 2, {0}, {1}, [(0, "a", 1), (0, "b", 0), (1, "a", 1)])
    with pytest.raises(ContractError, match="state 1 has 0 successors on 'b'"):
        _ResidualOrder(partial)


# Scale guards: deterministic, no timing.  The 8th-from-end language has a
# 256-state minimal DFA and 9 primes; the per-pair searches took seconds on it.


def test_canonical_rfsa_of_8th_from_end_matches_subset_oracle():
    base = canon(nth_from_end_nfa(8))
    assert base.n_states == 256
    result = canonical_rfsa(base)
    assert result.n_states == 9
    b = reverse_automaton(trim(canon(reverse_automaton(base))))
    assert isomorphic(result, c_of_b(b))


def test_prime2step_7th_from_end_query_count():
    target = canon(nth_from_end_nfa(7))
    result = two_step_prime_contexts(TeacherSession(target))
    assert shortest_difference_witness(result.hypothesis, target) is None
    assert result.stats.mq_total == 49087
