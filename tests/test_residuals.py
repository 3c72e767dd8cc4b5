import dataclasses
import re

import pytest

from helpers import (
    empty_lang,
    ends_a,
    even_a,
    min_distinguishing_context_count,
    nfa_ends_a,
    nth_from_end_nfa,
    reference_c_of_b,
    renumbered,
    starts_a,
    third_from_end_a,
    universal_lang,
)
from rfsalearn.automata import (
    Automaton,
    ContractError,
    InputError,
    determinize,
    isomorphic,
    minimize,
    reverse_automaton,
    shortest_difference_witness,
    trim,
)
from rfsalearn.residuals import (
    c_of_b,
    canonical_rfsa,
    is_coverable_state,
    is_prime,
    reachable_state_sets,
    residual_index,
)


def canon(a):
    return minimize(determinize(a))


# ------------------------------------------------------------- residual index


def test_residual_index_universal():
    idx = residual_index(canon(universal_lang()))
    assert idx.includes == ((True,),)


def test_residual_index_even_a_incomparable():
    idx = residual_index(canon(even_a()))
    n = idx.base.n_states
    off_diagonal = [idx.includes[i][j] for i in range(n) for j in range(n) if i != j]
    assert off_diagonal == [False, False]


def test_residual_index_ends_a_chain():
    base = canon(ends_a())
    idx = residual_index(base)
    (start,) = base.initial
    (other,) = set(range(2)) - {start}
    assert idx.includes[start][other] is True
    assert idx.includes[other][start] is False


def test_residual_index_rejects_non_minimal():
    from rfsalearn.automata import Automaton

    duplicated = Automaton(
        ("a", "b"),
        3,
        {0},
        {0, 2},
        [(0, "a", 1), (1, "a", 2), (2, "a", 1), (0, "b", 0), (1, "b", 1), (2, "b", 2)],
    )
    with pytest.raises(ContractError):
        residual_index(duplicated)


def _variants(dfa):
    """``dfa`` and copies that are permuted, carry a duplicated or an unreachable
    state, or are partial."""
    n = dfa.n_states
    yield dfa
    yield renumbered(dfa, list(range(n))[::-1])
    yield renumbered(dfa, [(q + 1) % n for q in range(n)])
    yield renumbered(dfa, [0] + list(range(n - 1, 0, -1)))  # the start keeps 0
    arcs = [(q, a, t) for q, a, ts in dfa.transitions for t in ts]
    # state n copies the arcs and the finality of the last state; the last
    # arc into that state is redirected to the copy
    last = n - 1
    into = max((i for i, (_, _, t) in enumerate(arcs) if t == last), default=None)
    if into is not None:
        copy = [(n, a, t) for q, a, t in arcs if q == last]
        redirected = list(arcs)
        redirected[into] = arcs[into][:2] + (n,)
        final = dfa.final | ({n} if last in dfa.final else set())
        yield Automaton(dfa.alphabet, n + 1, dfa.initial, final, redirected + copy)
    # state n is unreachable
    loops = [(n, a, 0) for a in dfa.alphabet]
    yield Automaton(dfa.alphabet, n + 1, dfa.initial, dfa.final | {n}, arcs + loops)
    # partial: the first arc is dropped, and the useless states are trimmed
    yield Automaton(dfa.alphabet, n, dfa.initial, dfa.final, arcs[1:])
    yield trim(dfa)


def test_minimality_check_agrees_with_minimize(corpus):
    families = [canon(nth_from_end_nfa(n)) for n in range(3, 7)]
    hand = [canon(a) for a in (empty_lang(), universal_lang(), even_a(), ends_a(), starts_a())]
    inputs = [v for dfa in corpus + families + hand for v in _variants(dfa)]
    inputs += [nfa_ends_a(), even_a()]
    rejected = 0
    for x in inputs:
        try:
            expected = minimize(x) == x
        except ContractError:  # not deterministic
            expected = False
        try:
            residual_index(x)
            accepted = True
        except ContractError as exc:
            assert str(exc) == "expected a minimal DFA in canonical numbering"
            accepted = False
        assert accepted == expected, x
        rejected += not accepted
    assert 0 < rejected < len(inputs)


def test_residual_index_matches_word_enumeration():
    base = canon(starts_a())
    idx = residual_index(base)
    words = [()]
    frontier = [()]
    for _ in range(base.n_states + 2):
        frontier = [w + (a,) for w in frontier for a in base.alphabet]
        words.extend(frontier)
    for q1 in range(base.n_states):
        for q2 in range(base.n_states):
            enumerated = all(
                (not base.accepts_from(q1, w)) or base.accepts_from(q2, w) for w in words
            )
            assert idx.includes[q1][q2] == enumerated


# ------------------------------------------------------------------ primality


def test_empty_language_residual_is_composed():
    base = canon(empty_lang())
    idx = residual_index(base)
    assert not is_prime(idx, 0)


def test_is_prime_rejects_bad_state_ids():
    idx = residual_index(canon(even_a()))
    for q in ("x", 1.5, None, -1, 2):
        with pytest.raises(InputError, match=re.escape(f"state id {q!r} out of range 0..1")):
            is_prime(idx, q)


def test_universal_language_residual_is_prime():
    idx = residual_index(canon(universal_lang()))
    assert is_prime(idx, 0)


def test_even_a_both_residuals_prime():
    idx = residual_index(canon(even_a()))
    assert is_prime(idx, 0) and is_prime(idx, 1)


def test_ends_a_both_residuals_prime():
    idx = residual_index(canon(ends_a()))
    assert is_prime(idx, 0) and is_prime(idx, 1)


def test_third_from_end_prime_count():
    base = canon(third_from_end_a())
    idx = residual_index(base)
    assert sum(is_prime(idx, q) for q in range(base.n_states)) == 4


# -------------------------------------------------------------- canonical RFSA


def test_canonical_rfsa_empty_language_no_states():
    assert canonical_rfsa(canon(empty_lang())).n_states == 0


def test_canonical_rfsa_universal_language():
    r = canonical_rfsa(canon(universal_lang()))
    assert r.n_states == 1
    assert r.initial == frozenset({0}) and r.final == frozenset({0})
    assert r.step(0, "a") == frozenset({0}) and r.step(0, "b") == frozenset({0})


def test_canonical_rfsa_even_a_is_the_minimal_dfa():
    base = canon(even_a())
    r = canonical_rfsa(base)
    assert r.n_states == 2
    assert isomorphic(r, base)


def test_canonical_rfsa_ends_a_structure():
    base = canon(ends_a())
    r = canonical_rfsa(base)
    assert r.n_states == 2
    (initial,) = r.initial
    (final,) = r.final
    assert initial != final
    # the start state's residual is included in the final state's residual,
    # so stepping on a reaches both states while b keeps only the start one
    assert r.step(initial, "a") == frozenset({initial, final})
    assert r.step(initial, "b") == frozenset({initial})
    assert r.step(final, "a") == frozenset({initial, final})
    assert r.step(final, "b") == frozenset({initial})


def test_canonical_rfsa_language_preserved():
    for lang in (even_a(), ends_a(), starts_a(), third_from_end_a()):
        base = canon(lang)
        assert shortest_difference_witness(canonical_rfsa(base), base) is None


def test_canonical_rfsa_never_larger_than_minimal_dfa():
    for lang in (even_a(), ends_a(), starts_a(), third_from_end_a()):
        base = canon(lang)
        assert canonical_rfsa(base).n_states <= base.n_states


def test_canonical_rfsa_strictly_smaller_for_third_from_end():
    base = canon(third_from_end_a())
    assert base.n_states == 8
    assert canonical_rfsa(base).n_states == 4


# --------------------------------------------------------- reachable subsets


def test_reachable_state_sets_deterministic_total():
    family = reachable_state_sets(canon(even_a()))
    assert set(family.members) == {frozenset({0}), frozenset({1})}


def test_reachable_state_sets_guess_nfa():
    from helpers import nfa_ends_a

    family = reachable_state_sets(nfa_ends_a())
    assert set(family.members) == {frozenset({0}), frozenset({0, 1})}


def test_reachable_state_sets_no_initial():
    from rfsalearn.automata import Automaton

    b = Automaton(("a",), 1, set(), {0}, [(0, "a", 0)])
    family = reachable_state_sets(b)
    assert family.members == (frozenset(),)


# ----------------------------------------------------------------- coverable


def family_of(members):
    from rfsalearn.automata import Automaton
    from rfsalearn.residuals import StateSetFamily

    ground = Automaton(("a",), 3, {0}, set(), [])
    return StateSetFamily(ground, tuple(frozenset(m) for m in members))


def test_coverable_union_of_singletons():
    fam = family_of([{0}, {1}, {0, 1}])
    assert is_coverable_state({0, 1}, fam)


def test_not_coverable_when_union_short():
    fam = family_of([{0}, {0, 1}])
    assert not is_coverable_state({0, 1}, fam)


def test_empty_set_is_coverable():
    fam = family_of([set(), {0}])
    assert is_coverable_state(set(), fam)


def test_coverable_requires_membership():
    fam = family_of([{0}])
    with pytest.raises(InputError):
        is_coverable_state({1}, fam)


# ----------------------------------------------------------------------- C(B)


def test_c_of_b_universal_single_state():
    b = reverse_automaton(trim(canon(universal_lang())))
    c = c_of_b(b)
    assert c.n_states == 1
    assert c.initial == frozenset({0}) and c.final == frozenset({0})


def test_c_of_b_agrees_with_canonical_construction():
    for lang in (even_a(), ends_a(), starts_a(), third_from_end_a()):
        base = canon(lang)
        reversed_min = canon(reverse_automaton(base))
        b = reverse_automaton(trim(reversed_min))
        assert isomorphic(c_of_b(b), canonical_rfsa(base))


def test_c_of_b_equals_reference(corpus):
    nth = [canon(nth_from_end_nfa(n)) for n in range(3, 7)]
    nth += [canon(reverse_automaton(nth_from_end_nfa(n))) for n in range(6, 9)]
    for base in (*corpus, *nth, canon(nfa_ends_a())):
        b = reverse_automaton(trim(canon(reverse_automaton(base))))
        assert c_of_b(b) == reference_c_of_b(b)
    # Not the reversal of a DFA: the definition still holds.
    assert c_of_b(nfa_ends_a()) == reference_c_of_b(nfa_ends_a())


def test_c_of_b_even_a_two_states():
    base = canon(even_a())
    b = reverse_automaton(trim(canon(reverse_automaton(base))))
    assert c_of_b(b).n_states == 2


# -------------------------------------------------- prime-residual state check


def test_canonical_rfsa_states_realize_prime_residuals():
    # for every short prefix whose residual is prime, some reached state of
    # the canonical RFSA accepts exactly that residual
    for lang in (even_a(), ends_a(), starts_a()):
        base = canon(lang)
        idx = residual_index(base)
        r = canonical_rfsa(base)
        prefixes = [()]
        frontier = [()]
        for _ in range(4):
            frontier = [w + (a,) for w in frontier for a in base.alphabet]
            prefixes.extend(frontier)
        for w in prefixes:
            (target_state,) = base.run(base.initial, w)
            if not is_prime(idx, target_state):
                continue
            reached = r.run(r.initial, w)
            assert any(
                shortest_difference_witness(
                    dataclasses.replace(r, initial=frozenset({q})),
                    dataclasses.replace(base, initial=frozenset({target_state})),
                )
                is None
                for q in reached
            )


# ------------------------------------------------- distinguishing context count


def test_min_contexts_single_state():
    assert min_distinguishing_context_count(canon(universal_lang())) == 0


def test_min_contexts_even_a_needs_one():
    assert min_distinguishing_context_count(canon(even_a())) == 1


def test_min_contexts_budget_refusal():
    with pytest.raises(InputError):
        min_distinguishing_context_count(canon(third_from_end_a()))


def test_min_contexts_starts_a():
    # three states; the two realizable nonzero columns are needed
    assert min_distinguishing_context_count(canon(starts_a())) == 2


def test_inclusion_matrix_reflexive_and_transitive():
    for lang in (even_a(), ends_a(), starts_a(), third_from_end_a()):
        idx = residual_index(canon(lang))
        n = idx.base.n_states
        for i in range(n):
            assert idx.includes[i][i]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if idx.includes[i][j] and idx.includes[j][k]:
                        assert idx.includes[i][k]
