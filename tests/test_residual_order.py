"""The single-pass residual-order kernel against the per-pair reference, and at scale."""
import pytest
from hypothesis import given, settings

from helpers import (
    AB,
    minimal_dfas,
    nfa_ends_a,
    nth_from_end_nfa,
    reference_excess_witness,
    reference_includes,
    reference_residual_order_contexts,
    reference_separating_word,
    residual_witness,
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
from rfsalearn.learners import _residual_order_contexts, two_step_prime_contexts
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
    """The ``_walk`` calls ``_residual_order_contexts`` makes over ``dfas``."""
    calls = []
    walk = _ResidualOrder._walk

    def counted(order, p, q):
        calls.append((p, q))
        return walk(order, p, q)

    monkeypatch.setattr(_ResidualOrder, "_walk", counted)
    for dfa in dfas:
        _residual_order_contexts(dfa)
    return len(calls)


def test_one_walk_per_distinct_first_step(monkeypatch, corpus):
    # Of 3 367 and 6 866 non-included pairs, only those with a first step
    # not seen before are walked, and none whose witness is ε.
    assert count_walks(monkeypatch, [canon(nth_from_end_nfa(6))]) == 781
    assert count_walks(monkeypatch, corpus) == 3547


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
