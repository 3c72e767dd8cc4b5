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
    mask_union,
    pred_masks,
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


def _coreachable_words(auto: Automaton, limit: int) -> tuple[list[tuple[int, Word]], bool]:
    """The co-reachable sets of ``auto`` as masks with their least words, and whether they are all of them.

    S_w = {q : δ(q, w) ∈ F}, so w ∈ L_q iff q ∈ S_w.  S_ε is the final set
    and S_aw is the set of ``a``-predecessors of S_w, a ``mask_union`` over
    predecessor masks built from the successor rows.  The sets come layer by
    layer: layer k holds the sets first reached by a word of length k, each
    with its lex-least such word, and layer k+1 steps layer k back through
    the symbols in alphabet order and through layer k in its own order.  So
    each new set is first met with its least word, and the list is in
    length-lex order of the words.  A set first reached at length k+1 steps
    back from one first reached at length k, so only the last layer is
    stepped.  The search stops once it would find more than ``limit`` sets
    and returns the ``limit`` it found, a length-lex prefix, with ``False``.
    """
    n = auto.n_states
    rows = [(a, pred_masks(succ, n)) for a, succ in zip(auto.alphabet, auto._delta)]
    final = sum(1 << q for q in auto.final)
    entries, layer, seen = [], [(final, EPSILON)], {final}
    while layer:
        entries += layer
        stepped = []
        for a, by_state in rows:
            for s, w in layer:
                t = mask_union(by_state, s)
                if t not in seen:
                    if len(seen) == limit:
                        return entries + stepped, False
                    seen.add(t)
                    stepped.append((t, (a, *w)))
        layer = stepped
    return entries, True


def _residual_order_contexts(auto: Automaton) -> list[Word]:
    """Contexts that make table rows mirror the residual structure of the total DFA ``auto``, each once.

    For every ordered state pair whose residuals are not included one in the
    other, the least witness of that non-inclusion; and for every state whose
    residual exceeds the union of the residuals strictly inside it, the least
    witness of that excess.  Over these contexts row inclusion coincides with
    residual inclusion and row coverability with residual composedness, which
    is what reading an RFSA off the finished table requires.  The distinct
    witnesses come in order of first occurrence, pairs first (row by row).

    Since w ∈ L_q iff q ∈ S_w = {q : δ(q, w) ∈ F}, every witness is the least
    word of a co-reachable set, and the sets listed in length-lex order of
    their words (:func:`_coreachable_words`) give each witness as the first
    of them that fits: the least word of L_p \\ L_q is the first set holding
    p and not q, and within row p the witnesses come in order of the least q
    each separates.  The excess witness of q is the first set holding q and
    none of the p != q with L_p ⊆ L_q.  The list stops at n sets, as in
    :func:`residual_index`, since there may be 2^n of them (the n-th symbol
    from the start, against n+2 for the n-th from the end).  Only when it
    stops is the residual-order kernel ``_ResidualOrder`` built: it gives the
    inclusions, walks the pairs no listed set separates and searches the
    excess of the states no listed set proves.
    """
    n = auto.n_states
    entries, complete = _coreachable_words(auto, n)
    full = (1 << n) - 1
    if complete:
        outside = [0] * n  # outside[q]: the states some set holds without q
        for s, _ in entries:
            rest = full ^ s
            while rest:
                low = rest & -rest
                outside[low.bit_length() - 1] |= s
                rest ^= low
        down = [full ^ o for o in outside]  # down[q]: q and the p with L_p ⊆ L_q
    else:
        order = _ResidualOrder(auto)
        dist = order.dist
        down = [b | 1 << q for q, b in enumerate(order.below)]
    contexts = {}
    for p in range(n):
        bit = 1 << p
        unseparated = full ^ bit  # the q no listed set holding p leaves out
        firsts = []  # (the least q a witness separates from p, the witness)
        for s, w in entries:
            if s & bit:
                new = unseparated & ~s
                if new:
                    firsts.append(((new & -new).bit_length() - 1, w))
                    unseparated &= s
                    if not unseparated:
                        break
        if not complete:
            # Pairs with dist 0 are separated by S_ε, the first entry.
            row = dist[p]
            firsts += [(q, order._walk(p, q)) for q in range(n) if unseparated >> q & 1 and row[q] > 0]
        firsts.sort()
        contexts.update(dict.fromkeys(w for _, w in firsts))
    for q, held in enumerate(down):
        bit = 1 << q
        for s, w in entries:
            if s & held == bit:
                contexts[w] = None
                break
        else:
            if not complete and (w := order.excess_witness(q)) is not None:
                contexts[w] = None
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
    automaton's residual order (:func:`_residual_order_contexts`).  Since
    w ∈ L_q iff q ∈ S_w = {q : δ(q, w) ∈ F}, those witnesses are read off the
    co-reachable sets S_w, listed layer by layer with their least words up to
    as many sets as states; past that cap the residual-order kernel finds only
    the witnesses the listed sets leave open.  Each start's pinning search is one
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
