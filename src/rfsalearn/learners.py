"""The four table-based learners.

``lstar_col`` and ``nlstar`` are the incremental algorithms, one loop with
two sets of conditions: grow the table until its closedness/consistency
conditions hold, submit the derived machine, and on a counterexample add all
of its suffixes as contexts.  The two-step
learners run ``lstar_col`` first (against the reversed language for
``two_step_reversal``), complete the finished table with a few membership
queries, and then read the answer off the table without further equivalence
queries.
"""
from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    EPSILON,
    Automaton,
    ContractError,
    Word,
    _ResidualOrder,
    _reversed_side,
    is_covered,
    least_words,
)
from .tables import (
    ModifiedTable,
    ObservationTable,
    apply_modifications,
    derive_rfsa,
    derive_dfa,
    derive_reversal_rfsa,
    drop_zero_rows_and_columns,
)
from .teacher import QueryStats, ReversalTeacher


class DiagnosticError(RuntimeError):
    """A learner detected a state that its algorithm promises cannot happen."""


@dataclass
class LearnerResult:
    hypothesis: Automaton
    final_table: ObservationTable | ModifiedTable
    stats: QueryStats
    iterations: int


# Table fixes plus equivalence rounds a table loop takes before it gives up.
_STEP_CAP = 4**10


def _table_loop(teacher, closed, consistent, derive) -> LearnerResult:
    """Fix the table until ``closed`` and ``consistent`` return None, then submit ``derive(table)``.

    ``closed`` returns a blue word to promote and ``consistent`` a context to
    add.  Each table fix and each equivalence query is one step; a loop that
    would take more than ``_STEP_CAP`` steps raises :class:`DiagnosticError`.
    """
    table = ObservationTable(teacher.alphabet)
    table.fill(teacher)
    rounds = 0
    for _ in range(_STEP_CAP):
        violator = closed(table)
        if violator is not None:
            table.add_red(violator)
        elif (fix := consistent(table)) is not None:
            table.add_context(fix)
        else:
            hypothesis = derive(table)
            rounds += 1
            counterexample = teacher.eq(hypothesis)
            if counterexample is None:
                return LearnerResult(hypothesis, table, teacher.stats.snapshot(), rounds)
            for i in range(len(counterexample), -1, -1):  # every suffix, shortest first
                table.add_context(counterexample[i:])
        table.fill(teacher)
    raise DiagnosticError(f"no fixpoint after {_STEP_CAP} steps")


def lstar_col(teacher) -> LearnerResult:
    """Column-based learner for the minimal DFA; counterexample suffixes become contexts."""
    return _table_loop(teacher, ObservationTable.is_closed, ObservationTable.is_consistent, derive_dfa)


def nlstar(teacher) -> LearnerResult:
    """Direct learner for the canonical RFSA via the weakened table conditions."""
    return _table_loop(
        teacher, ObservationTable.is_rfsa_closed, ObservationTable.is_rfsa_consistent, derive_rfsa
    )


def _residual_order_contexts(auto: Automaton) -> list[Word]:
    """Contexts that make table rows mirror the residual structure of ``auto``, each once.

    For every ordered state pair whose residuals are not included one in the
    other, the least witness of that non-inclusion; and for every state whose
    residual exceeds the union of the residuals strictly inside it, the least
    witness of that excess.  Over these contexts row inclusion coincides with
    residual inclusion and row coverability with residual composedness, which
    is what reading an RFSA off the finished table requires.  The distinct
    witnesses come in order of first occurrence, pairs first.

    A pair's least witness is ε when its first state is final and its second
    is not, and otherwise its least stepping symbol ``a`` (the first step
    ``_ResidualOrder._walk`` takes) followed by the least witness of the
    ``a``-successor pair.  So pairs with the same first step share their
    witness, and only the first of them is walked.
    """
    order = _ResidualOrder(auto)
    dist, steps = order.dist, order.steps
    contexts, walked = {}, set()
    for p, row in enumerate(dist):
        for q, d in enumerate(row):
            if d == 0:
                contexts[EPSILON] = None
            elif d > 0:
                d -= 1
                for a, succ, _ in steps:
                    first = a, succ[p], succ[q]
                    if dist[first[1]][first[2]] == d:
                        break
                if first not in walked:
                    walked.add(first)
                    contexts[order._walk(p, q)] = None
    for q in range(auto.n_states):
        witness = order.excess_witness(q)
        if witness is not None:
            contexts[witness] = None
    return list(contexts)


def _completion_contexts(row_auto: Automaton) -> list[Word]:
    """Reversed least words of the non-coverable subsets of the reversed trimmed row automaton.

    A subset search over int masks of the states of ``row_auto``, on its
    reversed side: it starts at the finals, and a step on ``a`` goes to the
    ``a``-predecessors.  Every state of a row automaton is reachable, so the
    states in these subsets reach a final state and are exactly the ones
    trimming keeps.  The subsets come in breadth-first order, each with its
    length-lex least word.
    """
    start, _, step = _reversed_side(row_auto)

    def successors(mask):
        return [(a, step(mask, a)) for a in row_auto.alphabet]

    found = list(least_words((start,), successors))
    labels = [mask for mask, _ in found]
    return [w[::-1] for mask, w in found if not is_covered(mask, labels)]


def two_step_reversal(session) -> LearnerResult:
    """Learn the reversed language's minimal DFA, then read off the canonical RFSA.

    After the first step the table is completed so that every non-coverable
    reachable state set of the reversed row automaton appears as a column:
    each such set is hit by some word, and the reversal of that word is the
    context realizing it.  The completion costs membership queries only; the
    reduction and derivation that follow issue no queries at all.
    """
    rev = ReversalTeacher(session)
    first = lstar_col(rev)
    table = first.final_table
    for context in _completion_contexts(first.hypothesis):
        table.add_context(context)
    table.fill(rev)

    modified = apply_modifications(table)
    hypothesis = derive_reversal_rfsa(modified)
    return LearnerResult(hypothesis, modified, session.stats.snapshot(), first.iterations)


def two_step_prime_contexts(teacher) -> LearnerResult:
    """Learn the minimal DFA directly, then pin every accepting state with a context.

    For every state and every accepting state of the row automaton, the
    length-lex least word leading from one to the other becomes a context
    (unreachable pairs are skipped), and so does every witness of the row
    automaton's residual order.  Each start's pinning search is one
    breadth-first pass over the row automaton's successor arrays, keeping
    one word per state.  The contexts go into one ordered dict as they are
    found, so each distinct context is added once, in order of first
    occurrence.  After filling those cells the table
    is reduced by dropping all-zero rows and columns and must satisfy the
    weakened closedness/consistency conditions; the answer is read off it
    without any further equivalence query.
    """
    first = lstar_col(teacher)
    table = first.final_table
    # ``lstar_col`` derived its hypothesis from this very table, so it is the
    # row automaton, a total DFA with states numbered as their rows first
    # appear in RED.
    row_auto = first.hypothesis
    n = row_auto.n_states
    symbols = tuple(zip(row_auto.alphabet, row_auto._delta))
    finals = sorted(row_auto.final)
    contexts = {}
    for start in range(n):
        words = [None] * n  # words[q]: the least word from start to q, once reached
        words[start] = EPSILON
        queue = [start]
        for q in queue:  # the loop runs on over the states appended while it runs
            w = words[q]
            for a, succ in symbols:
                t = succ[q]
                if words[t] is None:
                    words[t] = w + (a,)
                    queue.append(t)
        for target in finals:
            if words[target] is not None:
                contexts[words[target]] = None

    # Pinning contexts alone do not make row order mirror residual inclusion,
    # so a prime row could still look like the OR of rows below it and drop
    # out of the derived machine.  Witness the residual structure of the
    # verified row automaton explicitly; this costs membership queries only.
    contexts.update(dict.fromkeys(_residual_order_contexts(row_auto)))
    for context in contexts:
        table.add_context(context)
    table.fill(teacher)

    reduced = drop_zero_rows_and_columns(table)
    try:
        # Only the empty language zeroes every row, ε's and the ε column too,
        # and leaves nothing to read off.
        hypothesis = derive_rfsa(reduced) if reduced.red else Automaton(table.alphabet, 0, (), (), ())
    except ContractError as exc:
        raise DiagnosticError(f"completed {exc}") from exc
    return LearnerResult(hypothesis, reduced, teacher.stats.snapshot(), first.iterations)
