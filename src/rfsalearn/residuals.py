"""Residual languages of a regular language and the canonical RFSA built from them.

Everything here works on exact language comparisons, never on bounded word
enumeration.  The residual order is kept in one format, the strictly-below
masks: ``below[q]`` holds the states whose residual lies strictly inside
that of ``q``.  ``residual_index`` reads them and primality off the
co-reachable sets of the minimal DFA, S_w = {q : δ(q, w) ∈ F}, which are the
reachable subsets of its reversal: w is in L_q iff q is in S_w, so L_p ⊆ L_q
iff every set that holds p also holds q, and q is prime iff some set holds q
and none of the states strictly below it.  The search for the sets stops
once it has found as many of them as the DFA has states and finds one more;
past that cap the masks come from the residual-order kernel
``_ResidualOrder`` of ``automata``, one backward search over the state pairs
for all inclusions.  Primality comes from the sets found first, on both sides
of the cap: a found set that holds q and none of the states below it proves
q prime.  Past the cap a state no found set proves prime may still be, so
for those states alone one search over a state paired with the set of states
below it decides.  So the oracle shares no code with ``prime2step`` on a
language under the cap and shares that kernel with it past the cap;
``c_of_b`` (subset construction on the reversal, over frozensets) and the
canonical RFSA's final language check stay independent of it on both sides.
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
    mask_union,
    shortest_difference_witness,
)


@dataclass(frozen=True)
class ResidualIndex:
    """Residuals of a language, one per state of its minimal DFA, as a plain value.

    ``_below[q]`` is the mask of the states whose residual lies strictly
    inside that of ``q``, and ``_primes`` the mask of the prime states.
    ``includes[i][j]`` says the residual of state ``i`` is a subset of the
    residual of state ``j``; it is read off ``_below`` on its first read.
    """

    base: Automaton
    _below: tuple[int, ...]
    _primes: int

    @functools.cached_property
    def includes(self) -> tuple[tuple[bool, ...], ...]:
        states, below = range(self.base.n_states), self._below
        return tuple([tuple([p == q or bool(below[q] >> p & 1) for q in states]) for p in states])


def _coreachable_sets(dfa: Automaton) -> tuple[list[int], bool]:
    """The distinct co-reachable sets of a total DFA as masks, and whether they are all of them.

    They are the subsets reachable from the final set by predecessor steps,
    in breadth-first order.  The search stops once they would outnumber the
    states, and then returns the n sets it found with ``False``.
    """
    n, pre = dfa.n_states, dfa._pred_masks
    final = sum(1 << q for q in dfa.final)
    sets, seen = [final], {final}
    for s in sets:  # the loop runs on over the sets appended while it runs
        for by_state in pre:
            t = mask_union(by_state, s)
            if t not in seen:
                if len(sets) == n:
                    return sets, False
                seen.add(t)
                sets.append(t)
    return sets, True


def residual_index(l_dfa: Automaton) -> ResidualIndex:
    """The residual order and the primes of ``l_dfa``, which must equal ``minimize(l_dfa)``.

    That holds iff ``l_dfa`` is a total DFA, a breadth-first walk from start
    state 0 over the sorted alphabet visits the states 0..n-1 in order, and no
    two states have the same residual, that is the same states at or below
    them.  When the co-reachable sets are all found, the strictly-below masks
    are read off them, otherwise off ``_ResidualOrder``.  A state is prime
    once a found set holds it and none of the states below it; past the cap
    the excess search runs only for the states no found set proves prime.
    """
    error = ContractError("expected a minimal DFA in canonical numbering")
    try:
        numbered = l_dfa._numbered
    except ContractError:  # not a total DFA
        numbered = False
    if not numbered:
        raise error
    n = l_dfa.n_states
    sets, complete = _coreachable_sets(l_dfa)
    if complete:
        # down[q]: the states in no set without q, so the p with L_p ⊆ L_q, q among them.
        down = [(1 << n) - 1] * n
        for s in sets:
            for q in range(n):
                if not s >> q & 1:
                    down[q] &= ~s
        below = [d ^ 1 << q for q, d in enumerate(down)]
    else:
        order = _ResidualOrder(l_dfa)
        below = order.below
    if len({b | 1 << q for q, b in enumerate(below)}) != n:
        raise error
    # S_w proves q prime when it holds q and none of below[q]: w is in L_q
    # and in no residual strictly inside it.
    primes = 0
    for s in sets:
        unproved = s & ~primes
        while unproved:
            low = unproved & -unproved
            if not s & below[low.bit_length() - 1]:
                primes |= low
            unproved ^= low
    if not complete:
        for q in range(n):
            if not primes >> q & 1 and order.excess_witness(q) is not None:
                primes |= 1 << q
    return ResidualIndex(l_dfa, tuple(below), primes)


def is_prime(index: ResidualIndex, q: int) -> bool:
    """True iff the residual of ``q`` exceeds the union of those strictly inside it."""
    _check_state(q, index.base.n_states)
    return bool(index._primes >> q & 1)


def canonical_rfsa(l_dfa: Automaton) -> Automaton:
    """The acceptor whose states are exactly the prime residuals.

    States follow the order of the minimal DFA's states; start states are the
    primes inside the whole language, finals the primes containing the empty
    word, and arcs go to every prime inside the stepped residual.
    """
    index = residual_index(l_dfa)
    primes, below = index._primes, index._below
    ids = [q for q in range(l_dfa.n_states) if primes >> q & 1]
    number = {q: i for i, q in enumerate(ids)}

    @functools.cache
    def inside(t: int) -> frozenset[int]:
        """The numbers of the primes whose residual lies inside L_t."""
        mask = (below[t] | 1 << t) & primes
        return frozenset([number[p] for p in ids if mask >> p & 1])

    final = frozenset(number[q] for q in ids if q in l_dfa.final)
    rows = list(zip(l_dfa.alphabet, l_dfa._delta))
    arcs = tuple([(number[q], a, inside(row[q])) for q in ids for a, row in rows])
    result = Automaton(l_dfa.alphabet, len(ids), inside(0), final, arcs)
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
    which case the result is the canonical RFSA of ``b``'s language.  Each
    member's step on a symbol is read off the arcs of the subset construction
    that found the members, not off the dense view the learners share.
    """
    dfa, labels = determinize_labeled(b)
    members = [p for p in labels if not is_covered(p, labels)]
    number = {p: i for i, p in enumerate(members)}
    initial = frozenset(number[p] for p in members if p <= b.initial)
    final = frozenset(number[p] for p in members if p & b.final)
    arcs = []
    for q, a, (t,) in dfa.transitions:  # one arc per label and symbol, in that order
        if (i := number.get(labels[q])) is not None:
            stepped = labels[t]
            for p2 in members:
                if p2 <= stepped:
                    arcs.append((i, a, number[p2]))
    return Automaton(b.alphabet, len(members), initial, final, tuple(arcs))
