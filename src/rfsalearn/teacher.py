"""Simulated teacher answering membership and equivalence queries over a secret target."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .automata import (
    Automaton,
    InputError,
    Word,
    reverse_automaton,
    reverse_word,
    shortest_difference_witness,
)


@dataclass
class QueryStats:
    """Monotone query counters for one session."""

    mq_total: int = 0
    mq_distinct: int = 0
    eq_count: int = 0
    longest_counterexample: int = 0

    def snapshot(self) -> "QueryStats":
        return dataclasses.replace(self)


class TeacherSession:
    """Answers queries about a fixed target automaton and counts them.

    Membership answers are cached, so ``mq_total`` counts every call while
    ``mq_distinct`` counts distinct words only.  Equivalence queries return the
    length-lexicographically least counterexample, which makes whole learning
    runs reproducible.
    """

    def __init__(self, target: Automaton):
        self.target = target
        self.stats = QueryStats()
        self._cache: dict[Word, int] = {}
        self._rows = None
        # A DFA is total iff it has one entry per state and symbol, and then
        # it answers by one successor-array lookup per symbol.
        n, k = target.n_states, len(target.alphabet)
        if target.is_deterministic and len(target.transitions) == n * k:
            (self._start,) = target.initial
            self._rows = dict(zip(target.alphabet, target._delta))
            self._accepting = [int(q in target.final) for q in range(n)]

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.target.alphabet

    def mq(self, w: Word) -> int:
        w = tuple(w)
        answer = self._cache.get(w)
        if answer is None:
            # Both paths reject a foreign symbol before anything is counted.
            answer = self._walk(w) if self._rows is not None else int(self.target.accepts(w))
            self._cache[w] = answer
            self.stats.mq_distinct += 1
        self.stats.mq_total += 1
        return answer

    def _walk(self, w: Word) -> int:
        q, rows = self._start, self._rows
        try:
            for a in w:
                q = rows[a][q]
        except KeyError:
            raise InputError(f"symbol {a!r} not in alphabet") from None
        return self._accepting[q]

    def eq(self, hypothesis: Automaton) -> Word | None:
        """None when the hypothesis matches the target, else the least counterexample."""
        self.stats.eq_count += 1
        witness = shortest_difference_witness(hypothesis, self.target)
        if witness is not None:
            self.stats.longest_counterexample = max(
                self.stats.longest_counterexample, len(witness)
            )
        return witness


class ReversalTeacher:
    """View of a session that teaches the reversal of the underlying language.

    Words and automata are reversed on the way in, counterexamples on the way
    out; all counters accrue to the wrapped session.  Wrapping twice behaves
    like the plain session.
    """

    def __init__(self, base):
        self.base = base

    @property
    def alphabet(self):
        return self.base.alphabet

    @property
    def stats(self) -> QueryStats:
        return self.base.stats

    def mq(self, w: Word) -> int:
        return self.base.mq(tuple(w)[::-1])

    def eq(self, hypothesis: Automaton) -> Word | None:
        witness = self.base.eq(reverse_automaton(hypothesis))
        return None if witness is None else reverse_word(witness)
