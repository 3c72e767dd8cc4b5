"""Observation tables: predicates, reductions and automaton derivations.

A table maps ``(row word, context)`` pairs to membership bits.  Row words are
split into a prefix-closed RED part and its one-symbol extensions BLUE; cells
are filled lazily through a teacher so no membership query is ever repeated
for the same cell.  Rows are compared as bit masks over the context list,
which keeps the closedness/coverability predicates cheap.
"""
from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass

from .automata import (
    EPSILON,
    Automaton,
    ContractError,
    InputError,
    Word,
    _check_word,
    _checked_alphabet,
    is_covered,
    mask_union,
    pred_masks,
)


def _pack(bits) -> int:
    """Bit mask with bit ``i`` set iff the ``i``-th of ``bits`` is true."""
    mask = 0
    for i, bit in enumerate(bits):
        if bit:
            mask |= 1 << i
    return mask


def _lex_key(w: Word):
    """Length-lexicographic order; the alphabet is sorted, so symbols compare in its order."""
    return (len(w), w)


def _least_per_value(words, value) -> dict:
    """Each distinct ``value(w)`` → its length-lex least ``w``, in length-lex order of those."""
    least: dict = {}
    for w in sorted(words, key=_lex_key):
        least.setdefault(value(w), w)
    return least


def _transpose(masks: list[int], width: int) -> list[int]:
    """``width`` masks over ``masks``: bit ``i`` of the ``j``-th is bit ``j`` of ``masks[i]``.

    Each mask becomes a ``width``-digit binary string, last mask first, so
    that ``zip`` hands out the columns as big-endian strings, highest
    context first.
    """
    if not masks or not width:
        return [0] * width
    digits = f"0{width}b"
    rows = [format(m, digits) for m in reversed(masks)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


def _per_log_state(predicate):
    """``predicate``, answered from the table's record while its change log stays in one state.

    The log's state is the list it is and that list's length: the record
    holds the answers given in one such state, and an entry or a new log
    empties it at the next call.  A call that raises records nothing.
    """
    name = predicate.__name__

    @functools.wraps(predicate)
    def recalled(table):
        log, seen, answers = table._answers
        if log is not table._log or seen != len(log):
            answers = {}
            table._answers = (table._log, len(table._log), answers)
        elif name in answers:
            return answers[name]
        answer = answers[name] = predicate(table)
        return answer

    return recalled


class ObservationTable:
    """Membership observations for RED ∪ BLUE row words against a context list.

    The learning constructor starts from RED = E = {ε}.  ``from_rows`` builds a
    fully specified table directly, which the tests use for hand-made examples.
    Mutations preserve prefix-closure of RED and the identity
    BLUE = RED·Σ \\ RED; cells created by a mutation stay unset until
    ``fill`` asks the teacher for them.

    Each row is stored as a mask: bit ``j`` is the cell under context ``j``.
    A row with unset cells maps, in ``_pending``, to the number of its set
    cells: contexts only ever append, so its unset cells are always a suffix.
    A row missing from ``_pending`` is full.

    The table records its changes in one append-only log, ``_log``: the rows
    filled or promoted since the last new context, in order.  A new context
    changes every row, so it starts a fresh log, which ``fill`` then fills
    with every row.  The predicates keep what they computed between calls
    together with the log they read and how far: ``is_closed`` its red row
    values and violators, the RFSA predicates the non-coverable row values,
    and ``is_consistent``, ``is_rfsa_closed``, ``is_rfsa_consistent`` and
    ``ncov_red`` their answers.  A call reads only the entries added since
    the last one, and starts afresh on a new log.
    """

    def __init__(self, alphabet):
        self._alphabet, self._symbols = _checked_alphabet(tuple(alphabet))
        self._contexts: list[Word] = [EPSILON]
        self._context_pos = {EPSILON: 0}
        self._cells: dict[Word, int] = {EPSILON: 0}
        # RED, BLUE and the rows with unset cells, as insertion-ordered dicts.
        self._red: dict[Word, None] = {EPSILON: None}
        self._blue: dict[Word, None] = {}
        self._pending: dict[Word, int] = {EPSILON: 0}
        self._log: list[Word] = []
        # Each kept computation, after the log it read and how far: the red
        # row values and a heap of (possibly stale) violators; every row
        # value and the non-coverable ones; the recorded answers.
        self._closed = self._ncov = (None, 0, None, None)
        self._answers = (None, 0, {})
        self._extend_blue(EPSILON)

    @classmethod
    def from_rows(cls, alphabet, red, contexts, rows):
        """Build a complete table from explicit bits.

        ``rows`` maps every word of RED ∪ (RED·Σ \\ RED) to its bit sequence,
        one bit per context; a bit is a value equal to 0 or 1, such as a bool.
        """
        symbols = _checked_alphabet(tuple(alphabet))[1]
        given = [_check_word(tuple(s), symbols) for s in red]
        red = dict.fromkeys(given)
        if len(red) != len(given):
            raise InputError("duplicate red word")
        for s in red:
            if s != EPSILON and s[:-1] not in red:
                raise ContractError(f"red is not prefix-closed at {s!r}")
        contexts = [_check_word(tuple(e), symbols) for e in contexts]
        if len(set(contexts)) != len(contexts):
            raise InputError("duplicate context")

        def mask_of(w):
            if w not in rows:
                raise InputError(f"missing bits for {w!r}")
            bits = list(rows[w])
            if len(bits) != len(contexts):
                raise InputError(f"row for {w!r} has wrong width")
            if any(bit not in (0, 1) for bit in bits):
                raise InputError(f"row for {w!r} has a bit other than 0 or 1")
            return _pack(bits)

        return cls._build(alphabet, red, contexts, lambda words: [mask_of(w) for w in words])

    @classmethod
    def _build(cls, alphabet, red, contexts, rows_of):
        """Complete table over ``red`` and ``contexts``; ``rows_of(words)`` gives their rows.

        Skips the prefix-closure check, so reductions can drop red words.
        """
        table = cls(alphabet)
        table._red = dict.fromkeys(red)
        table._contexts = list(contexts)
        table._context_pos = {e: j for j, e in enumerate(table._contexts)}
        extensions = [r + (a,) for r in table._red for a in table._alphabet]
        table._blue = dict.fromkeys([w for w in extensions if w not in table._red])
        words = table.words()
        table._cells = dict(zip(words, rows_of(words)))
        table._pending = {}
        table._log = list(words)
        return table

    # ------------------------------------------------------------------ views

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self._alphabet

    @property
    def red(self) -> tuple[Word, ...]:
        return tuple(self._red)

    @property
    def blue(self) -> tuple[Word, ...]:
        return tuple(self._blue)

    @property
    def contexts(self) -> tuple[Word, ...]:
        return tuple(self._contexts)

    def words(self):
        """Row words, RED first then BLUE, in stored order."""
        return tuple(self._red) + tuple(self._blue)

    def obs(self, s: Word, e: Word) -> int:
        w = tuple(s)
        mask = self._cells.get(w)
        if mask is None:
            raise InputError(f"word {s!r} not in table")
        j = self._context_pos.get(tuple(e))
        if j is None:
            raise InputError(f"context {e!r} not in table")
        if j >= self._pending.get(w, len(self._contexts)):
            raise ContractError(f"cell ({s!r}, {e!r}) not filled")
        return (mask >> j) & 1

    def row(self, s: Word) -> tuple[int, ...]:
        mask = self._mask(s)
        return tuple((mask >> j) & 1 for j in range(len(self._contexts)))

    def _mask(self, s: Word) -> int:
        """Row of ``s`` as a bit mask over the contexts."""
        w = tuple(s)
        mask = self._cells.get(w)
        if mask is None:
            raise InputError(f"word {s!r} not in table")
        if self._pending and w in self._pending:  # a full table hashes no word here
            raise ContractError(f"row {s!r} not fully filled")
        return mask

    # ------------------------------------------------------------- mutations

    def _extend_blue(self, r: Word):
        """Append to BLUE the one-symbol extensions of ``r`` that are not red."""
        for a in self._alphabet:
            w = r + (a,)
            if w not in self._red:
                self._blue[w] = None
                if w not in self._cells:
                    self._cells[w] = 0
                    if self._contexts:
                        self._pending[w] = 0

    def add_red(self, s: Word):
        """Promote the blue word ``s`` into RED; a no-op when it is already red."""
        s = tuple(s)
        if s in self._red:
            return self
        if s not in self._blue:
            raise ContractError(f"cannot promote {s!r}: it is not a blue word")
        self._red[s] = None
        del self._blue[s]
        if s in self._pending:
            # Pending red rows keep their promotion order, as RED does.
            self._pending[s] = self._pending.pop(s)
        self._log.append(s)
        self._extend_blue(s)
        return self

    def add_context(self, e: Word):
        """Append context ``e``; a no-op when it is already present."""
        e = tuple(e)
        if e in self._context_pos:
            return self
        _check_word(e, self._symbols)
        width = len(self._contexts)
        self._context_pos[e] = width
        self._contexts.append(e)
        # Every row gains an unset cell, and every red row value will change.
        if len(self._pending) < len(self._cells):  # some row had none
            pending = self._pending
            self._pending = {w: pending.get(w, width) for w in self.words()}
        self._log = []
        return self

    def _pending_rows(self) -> list[Word]:
        """Rows with unset cells in stored order: RED first, then BLUE."""
        red = self._red
        return [w for w in self._pending if w in red] + [w for w in self._pending if w not in red]

    def fill(self, teacher):
        """Ask the teacher for every unset cell, in stored row/context order."""
        contexts = self._contexts
        width = len(contexts)
        for w in self._pending_rows():
            mask = self._cells[w]
            for j in range(self._pending[w], width):
                if teacher.mq(w + contexts[j]):
                    mask |= 1 << j
            self._cells[w] = mask
            del self._pending[w]
            self._log.append(w)
        return self

    # ------------------------------------------------------------ predicates

    def _require_filled(self):
        """Raise ``ContractError`` for the first row with unset cells, RED before BLUE."""
        if self._pending:
            raise ContractError(f"row {self._pending_rows()[0]!r} not fully filled")

    def is_closed(self) -> Word | None:
        """None when closed, else the least blue word matching no red row.

        Between calls the red row values and a length-lex heap of violators are
        kept, so a call re-tests only the rows the log names since the last
        one.  A row leaves the heap lazily, once it is red or its value is:
        red values only grow while the log is the same list.
        """
        self._require_filled()
        cells, log = self._cells, self._log
        kept, seen, red_values, heap = self._closed
        if kept is not log:
            seen, red_values, heap = 0, set(), []
        if seen < len(log):
            for w in log[seen:]:
                if w in self._red:
                    red_values.add(cells[w])
                elif cells[w] not in red_values:
                    heapq.heappush(heap, _lex_key(w))
            self._closed = (log, len(log), red_values, heap)
        while heap:
            w = heap[0][1]
            if cells[w] not in red_values:  # so ``w`` is still blue
                return w
            heapq.heappop(heap)
        return None

    def _extension_fix(self, pairs) -> Word | None:
        """Least ``a·e`` with ``e`` in row(s·a) but not in row(t·a), over RED positions ``(s, t)``.

        Needs a filled table.
        """
        for a in self._alphabet:  # one symbol's extension rows at a time
            succ = [self._cells[s + (a,)] for s in self._red]
            broken = 0
            for i, j in pairs:
                broken |= succ[i] & ~succ[j]
            if broken:
                return (a,) + self._contexts[(broken & -broken).bit_length() - 1]
        return None

    @_per_log_state
    def is_consistent(self) -> Word | None:
        """None when consistent, else the least context ``a·e`` fixing a violation."""
        if self._pending and self._pending_rows()[0] in self._red:
            self._require_filled()  # blue rows matter only once two red rows are equal
        cells = self._cells
        masks = [cells[s] for s in self._red]
        if len(set(masks)) == len(masks):  # no two red rows are equal
            return None
        self._require_filled()
        # Both orders of each pair: the OR of ``&~`` is the XOR of the extension rows.
        pairs = [(i, j) for i, m in enumerate(masks) for j, n in enumerate(masks) if m == n and i != j]
        return self._extension_fix(pairs)

    def is_row_coverable(self, s: Word, candidates) -> bool:
        """True iff row(s) equals the OR of the candidate rows strictly below it."""
        return is_covered(self._mask(s), {self._mask(c) for c in candidates})

    def _noncoverable_masks(self) -> set[int]:
        """The row values that are not the OR of the row values strictly inside them.

        Needs a filled table.  Kept in ``_ncov`` between calls, where a call
        decides only the values of the rows the log names since the last one
        and the kept values with a new value strictly inside them; the others
        keep their answer.
        It decides them in increasing order, each against the non-coverable
        values found so far: a value strictly inside another is smaller, and
        every row value is the OR of the non-coverable values inside it.
        """
        cells, log = self._cells, self._log
        kept, seen, values, keep = self._ncov
        if kept is not log:
            seen, values, keep = 0, set(), set()
        if seen < len(log):
            new = {cells[w] for w in log[seen:]} - values
            if new:
                stale = {v for v in keep for d in new if d | v == v}
                keep -= stale
                for v in sorted(stale | new):
                    if not is_covered(v, keep):
                        keep.add(v)
                values |= new
            self._ncov = (log, len(log), values, keep)
        return keep

    @_per_log_state
    def ncov_red(self) -> tuple[Word, ...]:
        """Least red representative of every non-coverable distinct red row."""
        self._require_filled()
        keep = self._noncoverable_masks()
        least = _least_per_value(self._red, self._cells.__getitem__)
        return tuple(s for m, s in least.items() if m in keep)

    @_per_log_state
    def is_rfsa_closed(self) -> Word | None:
        """None when every blue row is an OR of non-coverable red rows.

        Otherwise the least blue word whose row is non-coverable yet missing
        from RED, which is exactly the word the learner must promote.
        """
        self._require_filled()
        cells = self._cells
        missing = self._noncoverable_masks().difference([cells[s] for s in self._red])
        if not missing:
            return None
        return min([s for s in self._blue if cells[s] in missing], key=_lex_key)

    @_per_log_state
    def is_rfsa_consistent(self) -> Word | None:
        """None when row inclusion survives one-symbol extension, else the least fix ``a·e``."""
        self._require_filled()
        cells = self._cells
        masks = [cells[s] for s in self._red]
        # A row is inside itself, but a pair (s, s) breaks nothing.
        pairs = [
            (i1, i2)
            for i1, m1 in enumerate(masks)
            for i2, m2 in enumerate(masks)
            if m1 & ~m2 == 0 and i1 != i2
        ]
        return self._extension_fix(pairs)

    def is_column_coverable(self, e: Word) -> bool:
        """True iff the red part of col(e) is the OR of the other columns inside it."""
        j = self._context_pos.get(tuple(e))
        if j is None:
            raise InputError(f"context {e!r} not in table")
        columns = _transpose([self._mask(s) for s in self._red], len(self._contexts))
        return is_covered(columns[j], columns)

    # ------------------------------------------------------------------ dump

    def dump(self) -> str:
        """Tab-separated grid: contexts first, then red rows, ``--``, blue rows."""

        def label(w: Word) -> str:
            return "".join(w) if w else "^"

        width = len(self._contexts)

        def cells(w: Word) -> list[str]:
            mask, filled = self._cells[w], self._pending.get(w, width)
            return [str((mask >> j) & 1) if j < filled else "None" for j in range(width)]

        lines = ["\t".join([""] + [label(e) for e in self._contexts])]
        for s in self._red:
            lines.append("\t".join([label(s)] + cells(s)))
        lines.append("--")
        for s in self._blue:
            lines.append("\t".join([label(s)] + cells(s)))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ModifiedTable:
    """A reduced table plus the pre-reduction empty-context bits of its red words."""

    table: ObservationTable
    eps_obs: dict[Word, int]


def _check_derivable(table: ObservationTable):
    if EPSILON not in table._context_pos:
        raise ContractError("the empty context is required")
    if table.is_closed() is not None:
        raise ContractError("table is not closed")
    if table.is_consistent() is not None:
        raise ContractError("table is not consistent")


def derive_dfa_with_reps(table: ObservationTable) -> tuple[Automaton, tuple[Word, ...]]:
    """Automaton of a closed and consistent table plus one red word per state."""
    _check_derivable(table)
    if EPSILON not in table._red:
        raise ContractError("red must contain the empty word")
    # A closed table has no unset cell, so each cell's mask is its full row.
    cells = table._cells
    index: dict[int, int] = {}
    reps: list[Word] = []
    for s in table._red:
        value = cells[s]
        if value not in index:
            index[value] = len(reps)
            reps.append(s)
    # One target set per state, shared by every arc into it.
    single = {value: frozenset((i,)) for value, i in index.items()}
    arcs = tuple([(i, a, single[cells[s + (a,)]]) for i, s in enumerate(reps) for a in table._alphabet])
    eps_bit = 1 << table._context_pos[EPSILON]
    finals = frozenset(i for value, i in index.items() if value & eps_bit)
    auto = Automaton._from_normal(table._alphabet, len(reps), single[cells[EPSILON]], finals, arcs)
    return auto, tuple(reps)


def derive_dfa(table: ObservationTable) -> Automaton:
    """Deterministic total automaton with one state per distinct red row."""
    return derive_dfa_with_reps(table)[0]


def _restrict(table: ObservationTable, red, positions) -> ObservationTable:
    """Table over ``red`` and the contexts of ``table`` at ``positions``, in that order.

    When ``positions`` keeps every context in place, the rows are the masks
    of ``table`` unchanged and nothing is transposed.
    """
    contexts = table.contexts
    every = list(positions) == list(range(len(contexts)))

    def rows_of(words):
        masks = [table._mask(w) for w in words]
        if every:
            return masks
        columns = _transpose(masks, len(contexts))
        return _transpose([columns[j] for j in positions], len(words))

    return ObservationTable._build(table.alphabet, red, [contexts[j] for j in positions], rows_of)


def apply_modifications(table: ObservationTable) -> ModifiedTable:
    """Reduce a closed and consistent table to its informative core.

    Keeps the least representative of every distinct red row and column, then
    removes all-zero rows and columns, then removes every column that is the
    OR of other remaining columns inside it (judged simultaneously).  The bits
    of the empty context are recorded for all surviving red words before the
    removals, since the reduction may drop that column.
    """
    _check_derivable(table)
    pos = table._context_pos

    row_reps = _least_per_value(table.red, table._cells.__getitem__)
    red1, masks1 = list(row_reps.values()), list(row_reps)
    # Columns over red1.  The rows dropped below are 0 in every kept column,
    # so these masks order the kept columns as masks over red2 would.
    column = _transpose(masks1, len(table.contexts))
    cols1 = list(_least_per_value(table.contexts, lambda e: column[pos[e]]).values())

    # cols1 has every distinct column, so a row that is 0 in all of them is 0.
    eps_at = pos[EPSILON]
    eps_obs = {s: (m >> eps_at) & 1 for s, m in zip(red1, masks1) if m}
    red2 = list(eps_obs)
    cols2 = [e for e in cols1 if column[pos[e]]]

    values = [column[pos[e]] for e in cols2]
    cols3 = [e for e, v in zip(cols2, values) if not is_covered(v, values)]

    reduced = _restrict(table, red2, [pos[e] for e in cols3])
    return ModifiedTable(reduced, eps_obs)


def modified_row_automaton(modified: ModifiedTable) -> Automaton:
    """Row automaton of a reduced table, indexed by its red words.

    Transitions lead to the red word carrying the successor row; rows removed
    by the reduction leave the corresponding arcs out, so the machine may be
    partial.  Finals come from the retained pre-reduction empty-context bits.
    """
    table = modified.table
    reds = list(table.red)
    rep_index = {s: i for i, s in enumerate(reds)}
    value_index = {table._mask(s): i for i, s in enumerate(reds)}
    arcs = []
    for s in reds:
        for a in table.alphabet:
            target = value_index.get(table._mask(s + (a,)))
            if target is not None:
                arcs.append((rep_index[s], a, target))
    initial = {rep_index[EPSILON]} if EPSILON in rep_index else set()
    final = {rep_index[s] for s in reds if modified.eps_obs.get(s)}
    return Automaton(table.alphabet, len(reds), initial, final, tuple(arcs))


def derive_reversal_rfsa(modified: ModifiedTable) -> Automaton:
    """Nondeterministic acceptor with one state per column of the reduced table.

    A column stands for the set of red words carrying a 1 in it.  Arcs follow
    the reversed transitions of the (trimmed) row automaton: column q2 is an
    ``a``-successor of q1 when every member of q2 can reach some member of q1
    by one ``a``-step of the row automaton.  Start columns are those whose
    members all carried a 1 under the empty context before reduction; final
    columns are those containing the empty word.
    """
    table = modified.table
    table._require_filled()
    cells = table._cells
    reds = table.red
    alphabet = table.alphabet
    masks = [cells[s] for s in reds]
    columns = _transpose(masks, len(table.contexts))

    # The row automaton of ``modified_row_automaton`` as masks over the red
    # rows: pre[k][q] holds the rows whose successor on the k-th symbol is q.
    value_index = {m: i for i, m in enumerate(masks)}
    succ = [[value_index.get(cells[s + (a,)]) for s in reds] for a in alphabet]
    pre = [pred_masks(row, len(reds)) for row in succ]
    post = [[0 if q is None else 1 << q for q in row] for row in succ]
    start = 1 << reds.index(EPSILON) if EPSILON in reds else 0
    eps = sum(1 << i for i, s in enumerate(reds) if modified.eps_obs.get(s))
    useful = _reach(start, post) & _reach(eps, pre)

    columns_inside = _inside(columns)
    arcs = []
    for i, q1 in enumerate(columns):
        for a, by_state in zip(alphabet, pre):
            js = columns_inside(mask_union(by_state, q1 & useful) & useful)
            if js:
                arcs.append((i, a, js))

    final = frozenset(i for i, m in enumerate(columns) if m & start)
    return Automaton._from_normal(alphabet, len(columns), columns_inside(eps), final, tuple(arcs))


def _inside(masks):
    """``inside(value)``: the frozenset of the ``i`` with ``masks[i]`` inside ``value``, one object per value."""
    found: dict[int, frozenset[int]] = {}

    def inside(value):
        out = found.get(value)
        if out is None:
            out = found[value] = frozenset([i for i, m in enumerate(masks) if not m & ~value])
        return out

    return inside


def _reach(mask: int, steps) -> int:
    """Bits reachable from ``mask``, where ``steps[k][i]`` is the mask one step from bit ``i``."""
    seen = frontier = mask
    while frontier:
        stepped = 0
        for by_state in steps:
            stepped |= mask_union(by_state, frontier)
        frontier = stepped & ~seen
        seen |= frontier
    return seen


def derive_rfsa(table: ObservationTable) -> Automaton:
    """Nondeterministic acceptor with one state per non-coverable red row."""
    if table.is_rfsa_closed() is not None:
        raise ContractError("table is not RFSA-closed")
    if table.is_rfsa_consistent() is not None:
        raise ContractError("table is not RFSA-consistent")
    if EPSILON not in table._context_pos:
        raise ContractError("the empty context is required")
    if EPSILON not in table._red:
        raise ContractError("red must contain the empty word")
    reps = table.ncov_red()  # none when every row is all zeros: the empty language
    cells = table._cells  # RFSA-closed, so filled
    masks = [cells[s] for s in reps]
    eps_at = table._context_pos[EPSILON]
    states_inside = _inside(masks)
    initial = states_inside(cells[EPSILON])
    final = frozenset(i for i, m in enumerate(masks) if (m >> eps_at) & 1)
    arcs = []
    for i, s in enumerate(reps):
        for a in table._alphabet:
            js = states_inside(cells[s + (a,)])
            if js:
                arcs.append((i, a, js))
    return Automaton._from_normal(table._alphabet, len(reps), initial, final, tuple(arcs))


def drop_zero_rows_and_columns(table: ObservationTable) -> ObservationTable:
    """Remove red words with all-zero rows and contexts with all-zero columns."""
    table._require_filled()
    cells = table._cells  # one mask per row word, each a full row now
    red = [s for s in table._red if cells[s]]
    used = 0
    for mask in cells.values():
        used |= mask
    return _restrict(table, red, [j for j in range(len(table._contexts)) if (used >> j) & 1])
