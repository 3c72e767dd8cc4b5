"""The single-pass residual-order kernel against the per-pair reference, and at scale.

Also ``prime2step``'s residual-order contexts, read off the co-reachable sets
with the kernel settling only what the listed sets leave open: the list cut
at every length against the per-pair reference, and the kernel work each cut
leaves.
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
    _residual_order_contexts,
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


def kernel_calls(dfa):
    """The kernel calls ``_residual_order_contexts(dfa)`` makes, as (method name, arguments) in order."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("__init__", "_walk", "excess_witness"):
            method = getattr(_ResidualOrder, name)

            def counted(order, *args, method=method, name=name):
                calls.append((name, args))
                return method(order, *args)

            patch.setattr(_ResidualOrder, name, counted)
        _residual_order_contexts(dfa)
    return calls


def count_kernel_work(dfas):
    """The kernels built, walks taken and excess searches run by ``_residual_order_contexts`` over ``dfas``.

    Every walk must be on a pair that no listed co-reachable set separates,
    and every excess search on a state that no listed set proves.
    """
    names = []
    for dfa in dfas:
        sets = [s for s, _ in _coreachable_words(dfa, dfa.n_states)[0]]
        calls = kernel_calls(dfa)
        below = _ResidualOrder(dfa).below if calls else None
        for name, args in calls:
            if name == "_walk":
                p, q = args
                assert not any(s >> p & 1 and not s >> q & 1 for s in sets), (p, q)
            elif name == "excess_witness":
                (q,) = args
                assert not any(s & (below[q] | 1 << q) == 1 << q for s in sets), q
        names += [name for name, _ in calls]
    return {name: names.count(name) for name in ("__init__", "_walk", "excess_witness")}


@pytest.mark.parametrize("n", range(3, 9))
def test_few_coreachable_sets_take_the_set_path(n):
    # n+2 co-reachable sets against 2^n states: no kernel, walk or excess search.
    dfa = canon(nth_from_end_nfa(n))
    entries, complete = _coreachable_words(dfa, dfa.n_states)
    assert complete and len(entries) == n + 2
    assert count_kernel_work([dfa]) == {"__init__": 0, "_walk": 0, "excess_witness": 0}


def nth_from_start_row_automaton(n):
    return learners.lstar_col(TeacherSession(canon(reverse_automaton(nth_from_end_nfa(n))))).hypothesis


def test_many_coreachable_sets_take_the_pair_path(corpus):
    # Past the cap the kernel settles only what the n listed sets leave open:
    # 194 of the 200 corpus automata, and the 6th-from-start one.
    start_6 = nth_from_start_row_automaton(6)  # 8 states, 2^6 co-reachable sets
    assert (start_6.n_states, len(_coreachable_words(start_6, 1 << 8)[0])) == (8, 2**6)
    assert count_kernel_work([start_6]) == {"__init__": 1, "_walk": 18, "excess_witness": 4}
    assert count_kernel_work(corpus) == {"__init__": 194, "_walk": 843, "excess_witness": 42}


@pytest.mark.parametrize("language", [nth_from_end_nfa(4), reverse_automaton(nth_from_end_nfa(6))])
def test_context_search_builds_no_backward_view(language):
    # The set search steps over predecessor masks of its own, under the cap
    # and past it, so the row automaton keeps no view prime2step never reads.
    dfa = learners.lstar_col(TeacherSession(canon(language))).hypothesis
    learners._residual_order_contexts(dfa)
    assert "_pred_masks" not in vars(dfa)


def reference_contexts(dfa):
    return list(dict.fromkeys(reference_residual_order_contexts(dfa)))


def assert_every_cut_agrees(dfa, expected, words):
    """Every cut of the set list gives ``expected``, and each cut is a prefix of ``words``.

    ``_coreachable_words`` is capped at each k = 1..|sets|+1.  Below
    |sets| the contexts come off the first k sets and the kernel settles
    what they leave open; from |sets| on they come off the sets alone.
    ``words`` lists every co-reachable set with its least word.
    """
    coreachable_words = learners._coreachable_words
    for k in range(1, len(words) + 2):
        assert coreachable_words(dfa, k) == ((words[:k], False) if k < len(words) else (words, True)), k
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(learners, "_coreachable_words", lambda auto, limit, k=k: coreachable_words(auto, k))
            assert _residual_order_contexts(dfa) == expected, k


@pytest.mark.parametrize("n", range(3, 9))
def test_set_and_pair_paths_agree_nth_from_end(n):
    dfa = canon(nth_from_end_nfa(n))
    if n <= 5:
        assert_every_cut_agrees(dfa, reference_contexts(dfa), reference_coreachable_words(dfa))
    else:
        all_sets, _ = _coreachable_words(dfa, 1 << dfa.n_states)
        assert_every_cut_agrees(dfa, _residual_order_contexts(dfa), all_sets)


def test_set_and_pair_paths_agree_on_corpus_row_automata_under_the_cap(corpus):
    under = [dfa for dfa in corpus if _coreachable_words(dfa, dfa.n_states)[1]]
    assert len(under) == 6
    for target in under:
        row_auto = learners.lstar_col(TeacherSession(target)).hypothesis
        assert_every_cut_agrees(row_auto, reference_contexts(row_auto), reference_coreachable_words(row_auto))


def test_set_and_pair_paths_agree_nth_from_start():
    row_auto = nth_from_start_row_automaton(6)
    assert_every_cut_agrees(row_auto, reference_contexts(row_auto), reference_coreachable_words(row_auto))


@given(minimal_dfas(max_states=6))
@example(empty_lang())
@example(universal_lang())
@example(Automaton(("a",), 1, {0}, {0}, [(0, "a", 0)]))
@settings(max_examples=200, deadline=None)
def test_set_and_pair_paths_agree_random(dfa):
    words, _ = _coreachable_words(dfa, 1 << dfa.n_states)
    if len(words[-1][1]) < 5:  # the reference enumerates every word up to the longest plus one
        assert words == reference_coreachable_words(dfa)
    assert_every_cut_agrees(dfa, reference_contexts(dfa), words)


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
