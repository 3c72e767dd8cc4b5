"""Simulated teacher answering membership and equivalence queries over a secret target."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .automata import (
    Automaton,
    InputError,
    Word,
    _forward_side,
    _reversed_side,
    determinize,
    least_difference,
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
        # One array lookup per symbol, on the subset construction if not a total DFA.
        dfa = target if target.is_deterministic and target.is_total else determinize(target)
        (self._start,) = dfa.initial
        self._rows = dict(zip(dfa.alphabet, dfa._delta))
        self._accepting = [int(q in dfa.final) for q in range(dfa.n_states)]

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.target.alphabet

    def mq(self, w: Word) -> int:
        w = tuple(w)
        answer = self._cache.get(w)
        if answer is None:
            q, rows = self._start, self._rows
            try:
                for a in w:
                    q = rows[a][q]
            except KeyError:  # a foreign symbol, rejected before anything is counted
                raise InputError(f"symbol {a!r} not in alphabet") from None
            answer = self._cache[w] = self._accepting[q]
            self.stats.mq_distinct += 1
        self.stats.mq_total += 1
        return answer

    def eq(self, hypothesis: Automaton) -> Word | None:
        """None when the hypothesis matches the target, else the least counterexample."""
        self.stats.eq_count += 1
        return self._longest(shortest_difference_witness(hypothesis, self.target))

    def _eq_reversed(self, hypothesis: Automaton) -> Word | None:
        """``eq`` of the reversal of ``hypothesis``, counted alike; no reversed automaton is built."""
        self.stats.eq_count += 1
        if hypothesis.alphabet != self.target.alphabet:
            raise InputError("alphabet mismatch")
        sides = _reversed_side(hypothesis), _forward_side(self.target)
        return self._longest(least_difference(self.alphabet, *sides))

    def _longest(self, witness: Word | None) -> Word | None:
        if witness is not None:
            self.stats.longest_counterexample = max(
                self.stats.longest_counterexample, len(witness)
            )
        return witness


class ReversalTeacher:
    """View of a session that teaches the reversal of the underlying language.

    Words are reversed on the way in and counterexamples on the way out; a
    hypothesis is not reversed but walked backwards by the wrapped session's
    ``_eq_reversed``.  All counters accrue to the wrapped session.  Wrapping
    twice behaves like the plain session.
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
        witness = self.base._eq_reversed(hypothesis)
        return None if witness is None else reverse_word(witness)

    def _eq_reversed(self, hypothesis: Automaton) -> Word | None:
        # The reversal of the reversal is the hypothesis itself.
        witness = self.base.eq(hypothesis)
        return None if witness is None else reverse_word(witness)
