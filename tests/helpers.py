"""Shared fixtures: small reference automata, random minimal DFAs, table
builders, a brute-force word enumerator, a per-pair residual-order reference
that the single-pass kernel is checked against, a full-rescan observation
table that the incremental one is checked against, the frozenset pipeline
that ``rev2step``'s mask-based second step is checked against, the
scan-everything normaliser that ``Automaton``'s constructor is checked
against, the reversed-automaton equivalence query, bit-loop transpose and
bit-loop mask step that the teacher's backward walk, ``tables._transpose``
and ``automata.mask_union`` are checked against, the pair-set totality test
that ``Automaton.is_total`` is checked against, the member-by-member
subset oracle that ``c_of_b`` is checked against, the every-bijection
check that ``isomorphic`` is checked against, the brute-force extension
scan that both table consistency checks are checked against, the names only
tests use (two row predicates over ``ObservationTable.row`` and a
brute-force distinguishing-context count), and the query log and digests
that pin every observable output of the learners on a fixed slice of
targets."""
import hashlib
from collections import deque
from itertools import combinations, permutations

from hypothesis import strategies as st

from rfsalearn.automata import (
    Automaton,
    ContractError,
    InputError,
    determinize,
    determinize_labeled,
    format_automaton,
    is_covered,
    minimize,
    reverse_automaton,
    reverse_word,
    trim,
    useful_states,
    word,
)
from rfsalearn.cli import generate_corpus
from rfsalearn.residuals import (
    canonical_rfsa,
    is_coverable_state,
    is_prime,
    reachable_state_sets,
    residual_index,
)
from rfsalearn.tables import (
    ModifiedTable,
    ObservationTable,
    _least_per_value,
    derive_dfa_with_reps,
    modified_row_automaton,
)
from rfsalearn.teacher import TeacherSession

AB = ("a", "b")


def all_words(alphabet, up_to):
    """Every word of length at most ``up_to`` in length-lexicographic order.

    Plain enumeration, no search: the reference for the package's least-word
    searches.
    """
    current = [()]
    yield ()
    for _ in range(up_to):
        current = [w + (a,) for w in current for a in sorted(alphabet)]
        yield from current


@st.composite
def minimal_dfas(draw, max_states=12):
    """Random minimal DFAs over 1-3 letters with up to ``max_states`` states.

    With two or more states the final set is neither empty nor full (state 0
    is toggled), so fewer draws collapse to the empty or universal language.
    """
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    n = draw(st.integers(1, max_states))
    arcs = [(q, a, draw(st.integers(0, n - 1))) for q in range(n) for a in alphabet]
    final = draw(st.sets(st.integers(0, n - 1)))
    if n > 1 and len(final) in (0, n):
        final ^= {0}
    return minimize(Automaton(alphabet, n, {0}, final, arcs))


def even_a():
    """Words with an even number of a's; both residuals are prime."""
    return Automaton(AB, 2, {0}, {0}, [(0, "a", 1), (1, "a", 0), (0, "b", 0), (1, "b", 1)])


def ends_a():
    """Words ending in a; residuals form a strict chain."""
    return Automaton(AB, 2, {0}, {1}, [(0, "a", 1), (0, "b", 0), (1, "a", 1), (1, "b", 0)])


def starts_a():
    """Words starting with a; the minimal machine has a failure state."""
    return Automaton(
        AB,
        3,
        {0},
        {1},
        [(0, "a", 1), (0, "b", 2), (1, "a", 1), (1, "b", 1), (2, "a", 2), (2, "b", 2)],
    )


def empty_lang():
    return Automaton(AB, 1, {0}, set(), [(0, "a", 0), (0, "b", 0)])


def universal_lang():
    return Automaton(AB, 1, {0}, {0}, [(0, "a", 0), (0, "b", 0)])


def nfa_ends_a():
    """Two-state guess-the-last-symbol NFA for words ending in a."""
    return Automaton(AB, 2, {0}, {1}, [(0, "a", 0), (0, "b", 0), (0, "a", 1)])


def third_from_end_a():
    """Third symbol from the end is a; minimal DFA tracks the last three symbols."""
    states = [(x, y, z) for x in "ab" for y in "ab" for z in "ab"]
    index = {s: i for i, s in enumerate(states)}
    arcs = [
        (index[(x, y, z)], c, index[(y, z, c)])
        for (x, y, z) in states
        for c in "ab"
    ]
    final = {i for s, i in index.items() if s[0] == "a"}
    return Automaton(AB, 8, {index[("b", "b", "b")]}, final, arcs)


def nth_from_end_nfa(n):
    """(n+1)-state NFA for "the n-th symbol from the end is a"."""
    arcs = [(0, "a", 0), (0, "b", 0), (0, "a", 1)]
    arcs += [(i, s, i + 1) for i in range(1, n) for s in AB]
    return Automaton(AB, n + 1, {0}, {n}, arcs)


def nth_from_end_abc(n):
    """n-th symbol from the end is a, over {a, b, c}: 2^n DFA states, n+1 primes."""
    arcs = [(0, s, 0) for s in "abc"] + [(0, "a", 1)]
    arcs += [(i, s, i + 1) for i in range(1, n) for s in "abc"]
    return minimize(determinize(Automaton(("a", "b", "c"), n + 1, {0}, {n}, arcs)))


def table_for(lang: Automaton, red, contexts) -> ObservationTable:
    """Observation table filled from a known language, no teacher involved."""
    red = [word(s) if isinstance(s, str) else tuple(s) for s in red]
    contexts = [word(e) if isinstance(e, str) else tuple(e) for e in contexts]
    red_set = set(red)
    rows = {}
    for s in red + [r + (a,) for r in red for a in lang.alphabet if r + (a,) not in red_set]:
        rows[s] = [int(lang.accepts(s + e)) for e in contexts]
    return ObservationTable.from_rows(lang.alphabet, red, contexts, rows)


def table_from_bits(red, contexts, red_bits, blue_bits=None, alphabet=AB):
    """Hand-made table; unspecified blue rows default to all zeros."""
    red = [word(s) if isinstance(s, str) else tuple(s) for s in red]
    contexts = [word(e) if isinstance(e, str) else tuple(e) for e in contexts]
    red_set = set(red)
    blue = [r + (a,) for r in red for a in alphabet if r + (a,) not in red_set]
    rows = {s: bits for s, bits in zip(red, red_bits)}
    blue_bits = blue_bits or {}
    for s in blue:
        rows[s] = blue_bits.get(s, [0] * len(contexts))
    return ObservationTable.from_rows(alphabet, red, contexts, rows)


# ------------------------------------------- per-pair residual-order reference
#
# One search per state pair or state, on total DFAs, written independently of
# ``automata._ResidualOrder`` and of the package's searches: inclusion by
# depth-first product reachability, witnesses by breadth-first product search,
# composedness by a breadth-first search over a state paired with a state set.


def reference_included(dfa, q1, q2):
    """L_q1 ⊆ L_q2 iff no reachable pair is (final, non-final)."""
    seen = {(q1, q2)}
    stack = [(q1, q2)]
    while stack:
        p1, p2 = stack.pop()
        if p1 in dfa.final and p2 not in dfa.final:
            return False
        for a in dfa.alphabet:
            (t1,) = dfa.step(p1, a)
            (t2,) = dfa.step(p2, a)
            if (t1, t2) not in seen:
                seen.add((t1, t2))
                stack.append((t1, t2))
    return True


def reference_includes(dfa):
    n = dfa.n_states
    return tuple(tuple(reference_included(dfa, p, q) for q in range(n)) for p in range(n))


def residual_witness(order, p, q):
    """Least word in L_p \\ L_q by the walk of the ``_ResidualOrder`` ``order``, if any."""
    return None if order.dist[p][q] < 0 else order._walk(p, q)


def reference_separating_word(dfa, p, q):
    """Least word accepted from ``p`` but not from ``q``, if any."""
    seen = {(p, q)}
    queue = deque([(p, q, ())])
    while queue:
        sp, sq, w = queue.popleft()
        if sp in dfa.final and sq not in dfa.final:
            return w
        for a in dfa.alphabet:
            (tp,) = dfa.step(sp, a)
            (tq,) = dfa.step(sq, a)
            if (tp, tq) not in seen:
                seen.add((tp, tq))
                queue.append((tp, tq, w + (a,)))
    return None


def reference_excess_witness(dfa, includes, q):
    """Least word of L_q outside the union of the residuals strictly below it."""
    below = frozenset(p for p in range(dfa.n_states) if p != q and includes[p][q])
    seen = {(q, below)}
    queue = deque([(q, below, ())])
    while queue:
        s, states, w = queue.popleft()
        if s in dfa.final and not states & dfa.final:
            return w
        for a in dfa.alphabet:
            (t,) = dfa.step(s, a)
            nxt = (t, frozenset(r for p in states for r in dfa.step(p, a)))
            if nxt not in seen:
                seen.add(nxt)
                queue.append((*nxt, w + (a,)))
    return None


def reference_coreachable_words(dfa):
    """Each distinct S_w = {q : w ∈ L_q}, as a mask, with its least word, in length-lex order of the words.

    Plain enumeration of the words by length, membership read state by
    state.  A length that brings no new set ends it: a set first reached by
    a longer word steps back from one new at the length before.
    """
    found, layer = {}, [()]
    while True:
        size = len(found)
        for w in layer:
            found.setdefault(sum(1 << q for q in range(dfa.n_states) if dfa.accepts_from(q, w)), w)
        if len(found) == size:
            return list(found.items())
        layer = [w + (a,) for w in layer for a in sorted(dfa.alphabet)]


def reference_residual_order_contexts(dfa):
    n = dfa.n_states
    contexts = [
        w
        for p in range(n)
        for q in range(n)
        if p != q and (w := reference_separating_word(dfa, p, q)) is not None
    ]
    includes = reference_includes(dfa)
    for q in range(n):
        w = reference_excess_witness(dfa, includes, q)
        if w is not None:
            contexts.append(w)
    return contexts


# ------------------------------------------------- full-rescan table reference


class ReferenceTable:
    """Observation table that recomputes everything from scratch.

    BLUE is rebuilt from RED after every promotion, ``fill`` scans every row
    in stored order (RED, then BLUE), and every predicate rescans the table:
    ``is_closed`` every blue row, the RFSA predicates every row for the
    non-coverable ones, and both consistency checks every pair of red rows
    (through ``reference_consistency_fix``).  Rows are bit lists, one bit per
    context filled so far.  The incremental ``ObservationTable`` must give
    the same answers and ``ContractError`` messages, the same membership
    queries in the same order and the same dump.
    """

    def __init__(self, alphabet):
        self.alphabet = tuple(sorted(alphabet))
        self.red = [()]
        self.contexts = [()]
        self.cells = {}
        self.rebuild_blue()

    def rebuild_blue(self):
        self.blue = [r + (a,) for r in self.red for a in self.alphabet if r + (a,) not in self.red]
        for w in self.red + self.blue:
            self.cells.setdefault(w, [])

    def words(self):
        return tuple(self.red + self.blue)

    def add_red(self, s):
        if s not in self.red:
            self.red.append(s)
            self.rebuild_blue()

    def add_context(self, e):
        if e not in self.contexts:
            self.contexts.append(e)

    def fill(self, teacher):
        for w in self.words():
            bits = self.cells[w]
            for e in self.contexts[len(bits):]:
                bits.append(teacher.mq(w + e))

    def row(self, w):
        bits = self.cells[w]
        if len(bits) < len(self.contexts):
            raise ContractError(f"row {w!r} not fully filled")
        return tuple(bits)

    def is_closed(self):
        red_rows = {self.row(s) for s in self.red}
        violators = [s for s in self.blue if self.row(s) not in red_rows]
        return min(violators, key=lambda w: (len(w), w), default=None)

    def rows(self):
        """Every row, RED then BLUE; raises for the first one with unset cells."""
        return {w: self.row(w) for w in self.words()}

    def noncoverable(self):
        """The distinct rows that are not the bitwise OR of the rows strictly inside them."""
        rows = set(self.rows().values())

        def covered(r):
            union = [0] * len(r)
            for x in rows:
                if x != r and all(a <= b for a, b in zip(x, r)):
                    union = [u | a for u, a in zip(union, x)]
            return tuple(union) == r

        return {r for r in rows if not covered(r)}

    def is_rfsa_closed(self):
        keep = self.noncoverable()
        red_rows = {self.row(s) for s in self.red}
        violators = [s for s in self.blue if self.row(s) in keep and self.row(s) not in red_rows]
        return min(violators, key=lambda w: (len(w), w), default=None)

    def ncov_red(self):
        keep = self.noncoverable()
        least = {}
        for s in sorted(self.red, key=lambda w: (len(w), w)):
            least.setdefault(self.row(s), s)
        return tuple(s for r, s in least.items() if r in keep)

    def is_consistent(self):
        red_rows = [self.row(s) for s in self.red]
        if len(set(red_rows)) == len(red_rows):
            return None
        self.rows()
        return reference_consistency_fix(self)

    def is_rfsa_consistent(self):
        self.rows()
        return reference_consistency_fix(self, rfsa=True)

    def dump(self):
        def label(w):
            return "".join(w) if w else "^"

        def line(w):
            bits = self.cells[w]
            cells = [str(bits[j]) if j < len(bits) else "None" for j in range(len(self.contexts))]
            return "\t".join([label(w)] + cells)

        lines = ["\t".join([""] + [label(e) for e in self.contexts])]
        lines += [line(s) for s in self.red] + ["--"] + [line(s) for s in self.blue]
        return "\n".join(lines) + "\n"


class RecordingTeacher:
    """Answers membership queries from ``target`` and records every word asked."""

    def __init__(self, target):
        self.target = target
        self.asked = []

    def mq(self, w):
        self.asked.append(w)
        return int(self.target.accepts(w))


# ------------------------------------------------- rev2step second-step reference
#
# The frozenset pipeline that the mask-based second step is checked against:
# completion by trim, reversal and the labelled subset construction;
# reduction by packing one column at a time; derivation over per-column
# frozensets and the (trimmed) row automaton.


def reference_completion_contexts(table):
    """Contexts the completion adds to a finished first-step table, in order."""
    row_auto, _ = derive_dfa_with_reps(table)
    det, labels = determinize_labeled(reverse_automaton(trim(row_auto)))
    # The labels come in breadth-first order, so one pass over them in that
    # order gives every label its least word.
    words = {0: ()}
    for i in range(len(labels)):
        for a in det.alphabet:
            (j,) = det.step(i, a)
            words.setdefault(j, words[i] + (a,))
    return [
        reverse_word(words[i]) for i, subset in enumerate(labels) if not is_covered(subset, labels)
    ]


def _reference_pack(bits):
    return sum(1 << i for i, bit in enumerate(bits) if bit)


def _reference_column(masks, j):
    return _reference_pack((m >> j) & 1 for m in masks)


def reference_apply_modifications(table):
    """``apply_modifications``, one column and one cell at a time."""
    pos = {e: j for j, e in enumerate(table.contexts)}
    row_reps = _least_per_value(table.red, table._mask)
    red1, masks1 = list(row_reps.values()), list(row_reps)
    cols1 = list(
        _least_per_value(table.contexts, lambda e: _reference_column(masks1, pos[e])).values()
    )
    eps_obs = {s: (m >> pos[()]) & 1 for s, m in zip(red1, masks1)}
    in_cols1 = sum(1 << pos[e] for e in cols1)
    red2 = [s for s, m in zip(red1, masks1) if m & in_cols1]
    cols2 = [e for e in cols1 if _reference_column(masks1, pos[e])]
    masks2 = [table._mask(s) for s in red2]
    columns = {e: _reference_column(masks2, pos[e]) for e in cols2}
    cols3 = [e for e in cols2 if not is_covered(columns[e], columns.values())]
    kept = [pos[e] for e in cols3]
    reduced = ObservationTable._build(
        table.alphabet,
        red2,
        cols3,
        lambda words: [_reference_pack((table._mask(w) >> j) & 1 for j in kept) for w in words],
    )
    return ModifiedTable(reduced, {s: eps_obs[s] for s in red2})


def reference_derive_reversal_rfsa(modified):
    """``derive_reversal_rfsa`` over per-column frozensets of red-row indices."""
    table = modified.table
    eps_obs = modified.eps_obs
    reds = list(table.red)
    inner = modified_row_automaton(modified)
    useful = useful_states(inner)
    masks = [table._mask(s) for s in reds]
    column_sets = [
        frozenset(i for i, m in enumerate(masks) if (m >> j) & 1) for j in range(len(table.contexts))
    ]
    arcs = []
    for i, q1 in enumerate(column_sets):
        for a in table.alphabet:
            pred_union = {p for p, sym, ts in inner.transitions if sym == a and p in useful and ts & q1 & useful}
            for j, q2 in enumerate(column_sets):
                if q2 <= pred_union:
                    arcs.append((i, a, j))
    initial = frozenset(
        i for i, members in enumerate(column_sets) if all(eps_obs[reds[q]] for q in members)
    )
    eps_row = reds.index(()) if () in reds else None
    final = frozenset(i for i, members in enumerate(column_sets) if eps_row in members)
    return Automaton(table.alphabet, len(column_sets), initial, final, tuple(arcs))


# ------------------------------------------------ automaton constructor reference


def reference_normalise(alphabet, n_states, initial, final, transitions):
    """``Automaton``'s fields as the scan-everything constructor normalised them.

    Returns ``(alphabet, initial, final, transitions)`` or raises the
    ``InputError`` that constructor raised.
    """
    symbols = tuple(alphabet)
    if len(set(symbols)) != len(symbols):
        raise InputError("duplicate alphabet symbol")
    for sym in symbols:
        if not sym or any(ch.isspace() for ch in sym) or sym.startswith("#"):
            raise InputError(f"bad alphabet symbol {sym!r}")
    symbols = tuple(sorted(symbols))
    order = {a: i for i, a in enumerate(symbols)}
    n = n_states
    if n < 0:
        raise InputError("negative state count")

    def check_state(q):
        if not isinstance(q, int) or not 0 <= q < n:
            raise InputError(f"state id {q!r} out of range 0..{n - 1}")
        return q

    initial = frozenset(check_state(q) for q in initial)
    final = frozenset(check_state(q) for q in final)
    grouped = {}
    for entry in transitions:
        q, a, rest = entry[0], entry[1], entry[2]
        check_state(q)
        if a not in order:
            raise InputError(f"symbol {a!r} not in alphabet")
        targets = rest if isinstance(rest, (set, frozenset)) else {rest}
        for r in targets:
            check_state(r)
        grouped.setdefault((q, a), set()).update(targets)
    normal = tuple(
        (q, a, frozenset(ts))
        for (q, a), ts in sorted(grouped.items(), key=lambda kv: (kv[0][0], order[kv[0][1]]))
        if ts
    )
    return symbols, initial, final, normal


def reference_step_rows(alphabet, n_states, transitions):
    """``Automaton._step`` as read off normal-form ``transitions``: one row of target sets per symbol."""
    return {
        a: [frozenset(r for q2, sym, ts in transitions if (q2, sym) == (q, a) for r in ts) for q in range(n_states)]
        for a in alphabet
    }


# ------------------------------ reversal equivalence, transpose and mask step references


def reference_reversed_eq(session, hypothesis):
    """The reversal view's equivalence query built the plain way.

    The hypothesis is reversed into an NFA and the session's ``eq`` walks its
    subsets against the target; the counterexample is reversed back.
    """
    witness = session.eq(reverse_automaton(hypothesis))
    return None if witness is None else reverse_word(witness)


def reference_transpose(masks, width):
    """``tables._transpose`` one set bit at a time."""
    out = [0] * width
    for i, m in enumerate(masks):
        bit = 1 << i
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= bit
            m ^= low
    return out


def reference_mask_union(values, mask):
    """``automata.mask_union`` one low bit at a time, at every width."""
    union = 0
    while mask:
        low = mask & -mask
        union |= values[low.bit_length() - 1]
        mask ^= low
    return union


# ------------------------------------------------------------- totality reference


def reference_is_total(a):
    """Every (state, symbol) pair has a successor, checked pair by pair."""
    pairs = {(q, sym) for q, sym, _ in a.transitions}
    return all((q, sym) in pairs for q in range(a.n_states) for sym in a.alphabet)


# ------------------------------------------------------------ names only tests use


def obviously_different(table, r, s):
    """True iff some context tells the rows of ``r`` and ``s`` apart."""
    return table.row(r) != table.row(s)


def row_includes(table, s1, s2):
    """True iff every 1 of row(s1) is also a 1 of row(s2)."""
    return all(b1 <= b2 for b1, b2 in zip(table.row(s1), table.row(s2)))


def reference_consistency_fix(table, rfsa=False):
    """The fix ``is_consistent`` (``is_rfsa_consistent`` when ``rfsa``) must return, cell by cell.

    Per symbol ``a`` in alphabet order, the context positions where some
    pair of red words with equal rows (for ``rfsa``: with row(s) inside
    row(t)) differs in the rows of ``s·a`` and ``t·a`` (for ``rfsa``: has a
    1 in row(s·a) over a 0 in row(t·a)).  The fix is ``a`` followed by the
    context at the least such position; None when no symbol has one.
    """
    for a in table.alphabet:
        positions = set()
        for s in table.red:
            for t in table.red:
                related = row_includes(table, s, t) if rfsa else table.row(s) == table.row(t)
                if not related:
                    continue
                for j, (x, y) in enumerate(zip(table.row(s + (a,)), table.row(t + (a,)))):
                    if (x > y) if rfsa else (x != y):
                        positions.add(j)
        if positions:
            return (a,) + table.contexts[min(positions)]
    return None


def min_distinguishing_context_count(l_dfa, budget=4):
    """Least number of realizable context columns that pairwise-separate all states.

    ``l_dfa`` must be a minimal DFA in canonical numbering.  Candidate columns
    are every acceptance vector some context can realize, enumerated as the
    reachable state sets of the reversed machine.  Searches subsets
    exhaustively, so inputs are capped at ``budget`` states.
    """
    residual_index(l_dfa)  # raises ContractError on any other input
    n = l_dfa.n_states
    if n > budget:
        raise InputError(f"state count {n} exceeds the brute-force budget {budget}")
    candidates = list(dict.fromkeys(reachable_state_sets(reverse_automaton(l_dfa)).members))
    pairs = [(q1, q2) for q1 in range(n) for q2 in range(q1 + 1, n)]
    for k in range(len(candidates) + 1):
        for chosen in combinations(candidates, k):
            if all(any((q1 in c) != (q2 in c) for c in chosen) for q1, q2 in pairs):
                return k
    raise RuntimeError("realizable columns failed to separate a minimal DFA")


def reference_c_of_b(b):
    """``c_of_b`` by its definition: each member stepped with ``Automaton.run``."""
    family = reachable_state_sets(b)
    members = [p for p in family.members if not is_coverable_state(p, family)]
    number = {p: i for i, p in enumerate(members)}
    arcs = [
        (number[p], a, number[p2])
        for p in members
        for a in b.alphabet
        for p2 in members
        if p2 <= b.run(p, (a,))
    ]
    initial = {number[p] for p in members if p <= b.initial}
    final = {number[p] for p in members if p & b.final}
    return Automaton(b.alphabet, len(members), initial, final, arcs)


def reference_isomorphic(a, b):
    """``isomorphic`` by trying every bijection of the states of ``a`` onto those of ``b``."""
    if a.alphabet != b.alphabet or a.n_states != b.n_states:
        return False
    arcs_b = {(q, sym, t) for q, sym, ts in b.transitions for t in ts}
    for perm in permutations(range(a.n_states)):
        if (
            {perm[q] for q in a.initial} == b.initial
            and {perm[q] for q in a.final} == b.final
            and {(perm[q], sym, perm[t]) for q, sym, ts in a.transitions for t in ts} == arcs_b
        ):
            return True
    return False


# ------------------------------------------------------------ residual labels


def renumbered(a, perm):
    """``a`` with state ``q`` renamed ``perm[q]``."""
    arcs = [(perm[q], sym, perm[t]) for q, sym, ts in a.transitions for t in ts]
    return Automaton(a.alphabet, a.n_states, {perm[q] for q in a.initial}, {perm[q] for q in a.final}, arcs)


def residual_labels(alg, result):
    """The word naming the residual of each state of a learner's hypothesis, in state order.

    A state of ``lstar`` is the red word ``derive_dfa_with_reps`` reads it
    off, s, and stands for s⁻¹L.  A state of ``nlstar`` or ``prime2step`` is
    a row s of the final table's ``ncov_red()`` and stands for s⁻¹L; a state
    of ``rev2step`` is a column e of the reduced table and stands for rev(e)⁻¹L.
    """
    if alg == "lstar":
        return list(derive_dfa_with_reps(result.final_table)[1])
    if not result.hypothesis.n_states:  # the empty language: nothing to name
        return []
    if alg == "rev2step":
        return [reverse_word(e) for e in result.final_table.table.contexts]
    return list(result.final_table.ncov_red())


def label_problem(alg, result, target):
    """None when the hypothesis, renumbered by its labels, equals what the learner should derive.

    That is ``minimize(target)`` for ``lstar`` and ``canonical_rfsa(minimize(target))``
    for the RFSA learners.  Each label is run in ``minimize(target)``; for an
    RFSA learner the state it reaches must be prime, and the canonical RFSA
    numbers the primes in state order.  Otherwise the first state at fault,
    its word and the residual it names.
    """
    base = minimize(target)
    if alg == "lstar":  # every residual is a state
        states, canonical = list(range(base.n_states)), base
    else:
        index = residual_index(base)
        states = [q for q in range(base.n_states) if is_prime(index, q)]
        canonical = canonical_rfsa(base)
    number = {q: i for i, q in enumerate(states)}
    words = residual_labels(alg, result)
    named = [min(base.run(base.initial, w)) for w in words]  # the one state each word reaches
    for i, (w, q) in enumerate(zip(words, named)):
        if q not in number:
            return f"state {i}, word {''.join(w)!r}: residual of state {q}, which is not prime"
    perm = [number[q] for q in named]
    if sorted(perm) != list(range(len(states))):
        return f"labels name the residuals of states {named}, not those of states {states}"
    renamed = renumbered(result.hypothesis, perm)
    if renamed == canonical:
        return None

    def shape(a, j):
        return j in a.initial, j in a.final, [a.step(j, sym) for sym in a.alphabet]

    i = next(i for i, j in enumerate(perm) if shape(renamed, j) != shape(canonical, j))
    return f"state {i}, word {''.join(words[i])!r}: differs from the prime residual of state {named[i]}"


# ------------------------------------------------------------------ pinned outputs


class QueryLog:
    """A teacher over ``session`` that records every query and its answer, in order.

    ``_eq_reversed`` is forwarded too, so ``rev2step``'s reversal view can
    wrap the log.
    """

    def __init__(self, session):
        self.session = session
        self.entries = []

    @property
    def alphabet(self):
        return self.session.alphabet

    @property
    def stats(self):
        return self.session.stats

    def mq(self, w):
        self.entries.append(("mq", tuple(w)))
        return self.session.mq(w)

    def eq(self, hypothesis):
        witness = self.session.eq(hypothesis)
        self.entries.append(("eq", witness))
        return witness

    def _eq_reversed(self, hypothesis):
        witness = self.session._eq_reversed(hypothesis)
        self.entries.append(("eq-reversed", witness))
        return witness


def pinned_targets():
    """The first 20 seed-42 corpus languages, nth-from-end n=3..5 and nth-from-start n=6..7."""
    targets = generate_corpus(20, 8, 2, 42)
    targets += [minimize(determinize(nth_from_end_nfa(n))) for n in range(3, 6)]
    targets += [minimize(determinize(reverse_automaton(nth_from_end_nfa(n)))) for n in (6, 7)]
    return targets


def learner_digest(learner, targets):
    """SHA-256 over each run's hypothesis, final table, counters and exact query log."""
    digest = hashlib.sha256()
    for target in targets:
        log = QueryLog(TeacherSession(target))
        result = learner(log)
        table, eps_obs = result.final_table, None
        if isinstance(table, ModifiedTable):
            table, eps_obs = table.table, sorted(table.eps_obs.items())
        digest.update(format_automaton(result.hypothesis).encode())
        digest.update(table.dump().encode())
        digest.update(repr((eps_obs, result.stats, result.iterations, log.entries)).encode())
    return digest.hexdigest()


def canonical_digest(targets):
    """SHA-256 over the bench's canonical op on each target."""
    digest = hashlib.sha256()
    for target in targets:
        digest.update(format_automaton(canonical_rfsa(minimize(determinize(target)))).encode())
    return digest.hexdigest()
