"""The residual oracle on both sides of its cap on co-reachable sets.

``residual_index`` reads the residual order and the primes off the
co-reachable sets of the minimal DFA while there are at most as many sets as
states, and falls back to the residual-order kernel past that.  Each side is
checked against the per-pair references, against the other side and, through
``canonical_rfsa``, against the subset oracle ``c_of_b``.
"""
import pytest
from hypothesis import given, settings

from helpers import (
    minimal_dfas,
    nth_from_end_abc,
    nth_from_end_nfa,
    reference_excess_witness,
    reference_includes,
    renumbered,
)
from rfsalearn.automata import (
    Automaton,
    ContractError,
    _ResidualOrder,
    determinize,
    isomorphic,
    minimize,
    reverse_automaton,
    trim,
)
from rfsalearn import cli, residuals
from rfsalearn.cli import _language_columns, generate_corpus
from rfsalearn.residuals import (
    ResidualIndex,
    _coreachable_sets,
    c_of_b,
    canonical_rfsa,
    is_prime,
    residual_index,
)


def canon(a):
    return minimize(determinize(a))


NTH_END = [canon(nth_from_end_nfa(n)) for n in range(3, 9)]
NTH_END_ABC = [nth_from_end_abc(n) for n in range(3, 6)]
NTH_START = [canon(reverse_automaton(nth_from_end_nfa(n))) for n in range(6, 10)]
NAMES = {id(d): f"end_{n}" for n, d in enumerate(NTH_END, 3)}
NAMES |= {id(d): f"end_abc_{n}" for n, d in enumerate(NTH_END_ABC, 3)}
NAMES |= {id(d): f"start_{n}" for n, d in enumerate(NTH_START, 6)}


def family(dfas):
    return pytest.mark.parametrize("dfa", dfas, ids=[NAMES[id(d)] for d in dfas])


@pytest.fixture(scope="module")
def wide():
    """The 16-state, 3-letter corpus slice; every reversal has hundreds of sets or more."""
    return generate_corpus(50, 16, 3, 42)


def under_cap(dfa) -> bool:
    """True iff ``residual_index`` reads ``dfa``'s index off its co-reachable sets."""
    return _coreachable_sets(dfa)[1]


def assert_matches_references(dfa):
    n = dfa.n_states
    index = residual_index(dfa)
    # The tuple is built on its first read and kept.
    assert "includes" not in vars(index)
    includes = reference_includes(dfa)
    assert index.includes == includes
    assert vars(index)["includes"] is index.includes
    assert [is_prime(index, q) for q in range(n)] == [
        reference_excess_witness(dfa, includes, q) is not None for q in range(n)
    ]


def assert_sides_agree(dfa):
    """The index equals the one the residual-order kernel gives, masks included."""
    n = dfa.n_states
    order = _ResidualOrder(dfa)
    primes = sum(1 << q for q in range(n) if order.excess_witness(q) is not None)
    assert residual_index(dfa) == ResidualIndex(dfa, tuple(order.below), primes)


def assert_matches_subset_oracle(dfa):
    b = reverse_automaton(trim(canon(reverse_automaton(dfa))))
    assert isomorphic(canonical_rfsa(dfa), c_of_b(b))


# ------------------------------------------------------------ which side


def kernel_includes(dfa):
    """The inclusion matrix read off the kernel's distance rows: -1 where L_p ⊆ L_q."""
    return tuple([tuple([d < 0 for d in row]) for row in _ResidualOrder(dfa).dist])


def assert_oracle_builds_no_includes(monkeypatch, dfas, expected_includes):
    """``canonical_rfsa`` and the bench's index columns read only the masks."""
    built = []

    def recorded(dfa):
        built.append(index := residual_index(dfa))
        return index

    monkeypatch.setattr(residuals, "residual_index", recorded)
    monkeypatch.setattr(cli, "residual_index", recorded)
    for dfa in dfas:
        canonical_rfsa(dfa)
        _language_columns(dfa)
    assert [index.base for index in built] == [dfa for dfa in dfas for _ in range(2)]
    for index in built:
        assert "includes" not in vars(index)
        assert index.includes == expected_includes(index.base)


def test_the_oracle_builds_no_includes_under_the_cap(monkeypatch):
    # The per-pair reference on the small targets; on 128 and 256 states it
    # is too slow, so there the first read is held to the kernel's rows.
    small, large = NTH_END[:4] + NTH_END_ABC[:2], NTH_END[4:] + NTH_END_ABC[2:]
    assert_oracle_builds_no_includes(monkeypatch, small, reference_includes)
    assert_oracle_builds_no_includes(monkeypatch, large, kernel_includes)


def test_the_oracle_builds_no_includes_past_the_cap(monkeypatch, corpus):
    dfas = NTH_START + [dfa for dfa in corpus[:20] if not under_cap(dfa)]
    assert_oracle_builds_no_includes(monkeypatch, dfas, reference_includes)


def test_nth_from_end_is_under_the_cap():
    assert all(under_cap(dfa) for dfa in NTH_END + NTH_END_ABC)
    # n+2 sets, among them the empty one, against 2^n states.
    assert [len(_coreachable_sets(dfa)[0]) for dfa in NTH_END] == [5, 6, 7, 8, 9, 10]


def test_nth_from_start_is_past_the_cap():
    assert not any(under_cap(dfa) for dfa in NTH_START)


def test_most_of_the_corpus_is_past_the_cap(corpus):
    assert sum(under_cap(dfa) for dfa in corpus) == 6


def test_the_wide_slice_is_past_the_cap(wide):
    assert not any(under_cap(dfa) for dfa in wide)


def unproved_states(dfa):
    """The states that no found co-reachable set proves prime, in order."""
    sets, below = _coreachable_sets(dfa)[0], _ResidualOrder(dfa).below
    return [q for q in range(dfa.n_states) if not any(s >> q & 1 and not s & below[q] for s in sets)]


def count_excess_searches(monkeypatch):
    searched = []
    search = _ResidualOrder.excess_witness

    def counted(order, q):
        searched.append(q)
        return search(order, q)

    monkeypatch.setattr(_ResidualOrder, "excess_witness", counted)
    return searched


def test_past_the_cap_the_sets_are_kept():
    for dfa in NTH_START:
        sets, complete = _coreachable_sets(dfa)
        assert not complete and len(sets) == len(set(sets)) == dfa.n_states


@pytest.mark.parametrize(
    "name, expected", [("corpus", 41), ("nth_start", 19)], ids=["corpus", "nth_start"]
)
def test_past_the_cap_only_unproved_states_are_searched(monkeypatch, request, name, expected):
    # One search per state would make 1 236 on the corpus and 38 on nth-start.
    if name == "corpus":
        dfas = [dfa for dfa in request.getfixturevalue("corpus") if not under_cap(dfa)]
    else:
        dfas = NTH_START
    searched, total = count_excess_searches(monkeypatch), 0
    for dfa in dfas:
        searched.clear()
        residual_index(dfa)
        assert searched == unproved_states(dfa)
        total += len(searched)
    assert total == expected


def test_the_canonical_op_walks_the_numbering_once(monkeypatch):
    walk, walked = Automaton._numbered.func, []

    def counted(dfa):
        walked.append(dfa)
        return walk(dfa)

    monkeypatch.setattr(Automaton._numbered, "func", counted)
    for dfa in NTH_END[:5]:
        # A fresh copy keeps nothing from the walks that built ``dfa``.
        target = Automaton(dfa.alphabet, dfa.n_states, dfa.initial, dfa.final, dfa.transitions)
        walked.clear()
        canonical_rfsa(minimize(determinize(target)))
        assert len(walked) == 1 and walked[0] is target and vars(target)["_numbered"] is True


# ------------------------------------------------ against the references


@family(NTH_END[:4] + NTH_END_ABC[:2] + NTH_START)
def test_families_match_references(dfa):
    assert_matches_references(dfa)
    assert_sides_agree(dfa)


def test_corpus_matches_references(corpus):
    for dfa in corpus:
        assert_matches_references(dfa)
        assert_sides_agree(dfa)


def test_wide_slice_matches_references(wide):
    for dfa in wide:
        assert_matches_references(dfa)
        assert_sides_agree(dfa)


@given(minimal_dfas())
@settings(max_examples=150, deadline=None)
def test_sides_agree_random(dfa):
    assert_sides_agree(dfa)


def test_sides_agree_at_scale():
    for dfa in NTH_END[4:] + NTH_END_ABC[2:]:
        assert_sides_agree(dfa)


@family(NTH_END[:5] + NTH_END_ABC + NTH_START)
def test_families_match_subset_oracle(dfa):
    assert_matches_subset_oracle(dfa)


def test_corpus_matches_subset_oracle(corpus):
    for dfa in corpus:
        assert_matches_subset_oracle(dfa)


def test_wide_slice_matches_subset_oracle(wide):
    # The reference determinizes each reversal (up to 5 555 DFA states here)
    # and steps subsets of thousands of states, 8 s for all 50 languages, so
    # only the first ten: about an eighth of that.
    for dfa in wide[:10]:
        assert_matches_subset_oracle(dfa)


# ------------------------------------------------------ contract checks


def _duplicated(dfa):
    """``dfa`` with one state doubled, still numbered breadth-first: not minimal."""
    n = dfa.n_states
    arcs = [(q, a, t) for q, a, ts in dfa.transitions for t in ts]
    for i in reversed(range(len(arcs))):
        q, a, p = arcs[i]
        redirected = arcs[:i] + [(q, a, n)] + arcs[i + 1:]
        copy = [(n, b, t) for r, b, t in arcs if r == p]
        final = dfa.final | ({n} if p in dfa.final else set())
        out = Automaton(dfa.alphabet, n + 1, dfa.initial, final, redirected + copy)
        if out._numbered:
            return out
    raise AssertionError("no arc to redirect")


def _misnumbered(dfa):
    """``dfa`` with its last two states swapped."""
    n = dfa.n_states
    return renumbered(dfa, list(range(n - 2)) + [n - 1, n - 2])


def _partial(dfa):
    arcs = [(q, a, t) for q, a, ts in dfa.transitions for t in ts]
    return Automaton(dfa.alphabet, dfa.n_states, dfa.initial, dfa.final, arcs[1:])


@pytest.mark.parametrize(
    "dfa, under",
    [(NTH_END[0], True), (NTH_END[2], True), (NTH_START[0], False)],
    ids=["end_3", "end_5", "start_6"],
)
def test_contract_errors_on_both_sides(dfa, under):
    assert under_cap(dfa) == under
    duplicated = _duplicated(dfa)
    # The doubled state is in exactly the sets its original is in.
    assert _coreachable_sets(duplicated)[1] == under
    for bad in (duplicated, _misnumbered(dfa), _partial(dfa)):
        with pytest.raises(ContractError, match="expected a minimal DFA in canonical numbering"):
            residual_index(bad)
        with pytest.raises(ContractError):
            canonical_rfsa(bad)
