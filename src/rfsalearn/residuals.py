"""Residual languages of a regular language and the canonical RFSA built from them.

Everything here works on exact language comparisons, never on bounded word
enumeration.  Residual inclusion and primality come from the residual-order
kernel in ``automata``: one backward search over the state pairs of the
minimal DFA gives every inclusion, and primality is a search over a state
paired with the set of states below it.  ``prime2step`` uses the same kernel,
so the canonical RFSA is not independent of that learner; ``c_of_b`` (subset
construction on the reversal) and the final language check stay independent
of it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .automata import (
    Automaton,
    ContractError,
    InputError,
    _ResidualOrder,
    _check_state,
    determinize_labeled,
    is_covered,
    least_words,
    shortest_difference_witness,
)


@dataclass(frozen=True)
class ResidualIndex:
    """Residuals of a language, one per state of its minimal DFA.

    ``includes[i][j]`` says the residual of state ``i`` is a subset of the
    residual of state ``j``; the primality tests share ``_order``, built once.
    """

    base: Automaton
    includes: tuple[tuple[bool, ...], ...]

    @functools.cached_property
    def _order(self) -> _ResidualOrder:
        return _ResidualOrder(self.base)


def residual_index(l_dfa: Automaton) -> ResidualIndex:
    """Residual inclusion matrix of ``l_dfa``, which must equal ``minimize(l_dfa)``.

    That holds iff ``l_dfa`` is a total DFA, a breadth-first walk from start
    state 0 over the sorted alphabet visits the states 0..n-1 in order, and no
    two states have the same residual, that is the same row of inclusions.
    """
    error = ContractError("expected a minimal DFA in canonical numbering")
    if l_dfa.initial != {0}:
        raise error
    try:
        order = _ResidualOrder(l_dfa)
    except ContractError:
        raise error from None
    walk = least_words((0,), lambda q: [(a, row[q]) for a, row, _ in order.steps])
    if [q for q, _ in walk] != list(range(l_dfa.n_states)):
        raise error
    if len(set(order.includes)) != l_dfa.n_states:
        raise error
    index = ResidualIndex(l_dfa, order.includes)
    vars(index)["_order"] = order  # the cached ``_order``; an index built by hand builds its own
    return index


def is_prime(index: ResidualIndex, q: int) -> bool:
    """True iff the residual of ``q`` exceeds the union of those strictly inside it."""
    _check_state(q, index.base.n_states)
    return index._order.excess_witness(q) is not None


def canonical_rfsa(l_dfa: Automaton) -> Automaton:
    """The acceptor whose states are exactly the prime residuals.

    States follow the order of the minimal DFA's states; start states are the
    primes inside the whole language, finals the primes containing the empty
    word, and arcs go to every prime inside the stepped residual.
    """
    index = residual_index(l_dfa)
    primes = [q for q in range(l_dfa.n_states) if is_prime(index, q)]
    number = {q: i for i, q in enumerate(primes)}
    (start,) = l_dfa.initial
    initial = frozenset(number[q] for q in primes if index.includes[q][start])
    final = frozenset(number[q] for q in primes if q in l_dfa.final)
    arcs = []
    for q in primes:
        for a in l_dfa.alphabet:
            (t,) = l_dfa.step(q, a)
            for p in primes:
                if index.includes[p][t]:
                    arcs.append((number[q], a, number[p]))
    result = Automaton(l_dfa.alphabet, len(primes), initial, final, tuple(arcs))
    if shortest_difference_witness(result, l_dfa) is not None:
        raise RuntimeError("canonical RFSA construction changed the language")
    return result


@dataclass(frozen=True)
class StateSetFamily:
    """The state subsets of ``ground`` reachable from its start set by some word."""

    ground: Automaton
    members: tuple[frozenset[int], ...]


def reachable_state_sets(b: Automaton) -> StateSetFamily:
    _, labels = determinize_labeled(b)
    return StateSetFamily(b, labels)


def is_coverable_state(p, family: StateSetFamily) -> bool:
    """True iff ``p`` is the union of the other family members inside it."""
    p = frozenset(p)
    if p not in set(family.members):
        raise InputError("state set not in family")
    return is_covered(p, family.members)


def c_of_b(b: Automaton) -> Automaton:
    """Acceptor on the non-coverable reachable state sets of ``b``.

    Expects ``b`` to be the reversal of a trimmed deterministic machine, in
    which case the result is the canonical RFSA of ``b``'s language.
    """
    family = reachable_state_sets(b)
    members = [p for p in family.members if not is_coverable_state(p, family)]
    number = {p: i for i, p in enumerate(members)}
    initial = frozenset(number[p] for p in members if p <= b.initial)
    final = frozenset(number[p] for p in members if p & b.final)
    arcs = []
    for p in members:
        for a in b.alphabet:
            stepped = b.run(p, (a,))
            for p2 in members:
                if p2 <= stepped:
                    arcs.append((number[p], a, number[p2]))
    return Automaton(b.alphabet, len(members), initial, final, tuple(arcs))

