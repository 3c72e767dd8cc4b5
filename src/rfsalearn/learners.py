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
    """Contexts that make table rows mirror the residual structure of ``auto``.

    For every ordered state pair whose residuals are not included one in the
    other, the least witness of that non-inclusion; and for every state whose
    residual exceeds the union of the residuals strictly inside it, the least
    witness of that excess.  Over these contexts row inclusion coincides with
    residual inclusion and row coverability with residual composedness, which
    is what reading an RFSA off the finished table requires.
    """
    order = _ResidualOrder(auto)
    includes = order.includes
    contexts = [order._walk(p, q) for p, row in enumerate(includes) for q, inc in enumerate(row) if not inc]
    for q in range(auto.n_states):
        witness = order.excess_witness(q, includes)
        if witness is not None:
            contexts.append(witness)
    return contexts


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
    shortest word leading from one to the other becomes a context
    (unreachable pairs are skipped), and so does every witness of the row
    automaton's residual order.  The row automaton's arc lists are built
    once for all the pinning searches, and each distinct context is added
    once, in order of first occurrence.  After filling those cells the table
    is reduced by dropping all-zero rows and columns and must satisfy the
    weakened closedness/consistency conditions; the answer is read off it
    without any further equivalence query.
    """
    first = lstar_col(teacher)
    table = first.final_table
    # ``lstar_col`` derived its hypothesis from this very table, so it is the
    # row automaton, with states numbered as their rows first appear in RED.
    row_auto = first.hypothesis
    arcs = [row_auto._arcs(q) for q in range(row_auto.n_states)]
    finals = sorted(row_auto.final)
    contexts = []
    for start in range(row_auto.n_states):
        reach = dict(least_words((start,), arcs.__getitem__))
        contexts += [reach[target] for target in finals if target in reach]

    # Pinning contexts alone do not make row order mirror residual inclusion,
    # so a prime row could still look like the OR of rows below it and drop
    # out of the derived machine.  Witness the residual structure of the
    # verified row automaton explicitly; this costs membership queries only.
    contexts += _residual_order_contexts(row_auto)
    for context in dict.fromkeys(contexts):
        table.add_context(context)
    table.fill(teacher)

    reduced = drop_zero_rows_and_columns(table)
    try:
        hypothesis = derive_rfsa(reduced)
    except ContractError as exc:
        raise DiagnosticError(f"completed {exc}") from exc
    return LearnerResult(hypothesis, reduced, teacher.stats.snapshot(), first.iterations)
