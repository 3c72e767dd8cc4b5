"""Finite-state acceptors and the constructions the rest of the package builds on.

A single ``Automaton`` type covers DFAs, NFAs and partial machines; the
``is_deterministic`` / ``is_total`` properties report which contracts a given
value happens to satisfy.  Values are frozen, so they are safe to share
between threads or processes.  Every construction returns a fresh automaton,
except that ``minimize`` returns an input that is already its own canonical
minimal DFA and ``determinize`` an input that its subset construction would
only rebuild.  Every construction here goes through the checked constructor;
only the table derivations, which read their hypotheses off a table already
in normal form, use the unchecked builder ``Automaton._from_normal``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

Word = tuple[str, ...]
EPSILON: Word = ()
_EMPTY: frozenset[int] = frozenset()


def word(text: str) -> Word:
    """Split a plain string into a word over single-character symbols."""
    return tuple(text)


def reverse_word(w: Word) -> Word:
    return tuple(reversed(w))


class InputError(ValueError):
    """A caller passed a value outside the operation's domain."""


class ContractError(ValueError):
    """A documented precondition of the operation does not hold."""


class ParseError(ValueError):
    """Malformed automaton text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line

    def __reduce__(self):
        # Rebuilt from both arguments, so the error survives a process pool.
        return type(self), (self.line, str(self).partition(": ")[2])


@functools.lru_cache(maxsize=64)
def _checked_alphabet(symbols: tuple) -> tuple[tuple[str, ...], frozenset]:
    """The sorted alphabet and its symbol set, checked once per distinct tuple."""
    if len(set(symbols)) != len(symbols):
        raise InputError("duplicate alphabet symbol")
    for sym in symbols:
        if not sym or any(ch.isspace() for ch in sym) or sym.startswith("#"):
            raise InputError(f"bad alphabet symbol {sym!r}")
    return tuple(sorted(symbols)), frozenset(symbols)


def _check_state(q, n: int) -> int:
    """``q`` as the plain int it equals, once it is a state id in 0..n-1."""
    if not isinstance(q, int) or not 0 <= q < n:
        raise InputError(f"state id {q!r} out of range 0..{n - 1}")
    return int(q)


def _check_word(w, symbols):
    """``w``, once every symbol of it is in the set ``symbols``."""
    for a in w:
        if a not in symbols:
            raise InputError(f"symbol {a!r} not in alphabet")
    return w


@dataclass(frozen=True)
class Automaton:
    """Finite acceptor with integer states 0..n_states-1.

    ``transitions`` is kept as a sorted tuple of ``(state, symbol, targets)``
    entries with non-empty target sets; pairs that do not appear map to the
    empty set, so the transition relation is total as a mapping but the
    machine itself may be partial.  Equal target sets are one shared
    frozenset, so a DFA holds at most one per state.

    The constructor checks input from outside in one ordered scan, so that
    an error names the first bad value, and normalises it: the parser, the
    constructions of this module, the oracles and the test references all
    build through it.  ``_from_normal`` takes fields already in normal
    form and checks nothing; the table derivations use it.  Both set the
    fields and the transition index ``_step`` in one place, ``_install``:
    ``_step[a][q]`` is the target set of ``q`` on ``a``, ``_EMPTY`` where
    there is no arc.
    """

    alphabet: tuple[str, ...]
    n_states: int
    initial: frozenset[int]
    final: frozenset[int]
    transitions: tuple[tuple[int, str, frozenset[int]], ...]
    _step: dict = field(init=False, repr=False, compare=False, default=None)
    _symbol_set: frozenset = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        symbols, symbol_set = _checked_alphabet(tuple(self.alphabet))
        n = self.n_states
        if n < 0:
            raise InputError("negative state count")
        initial = frozenset(_check_state(q, n) for q in self.initial)
        final = frozenset(_check_state(q, n) for q in self.final)
        # Each entry's source, then its symbol, then its targets; an entry
        # without targets still has its source and symbol checked.
        triples = []
        for entry in self.transitions:
            q, a, targets = _check_state(entry[0], n), entry[1], entry[2]
            _check_word((a,), symbol_set)
            for r in targets if isinstance(targets, (set, frozenset)) else (targets,):
                triples.append((q, a, _check_state(r, n)))
        # Plain tuple order is state, then symbol in alphabet order, since the
        # alphabet is sorted: the triples of one (q, a) pair are adjacent.
        triples.sort()
        merged = []
        for q, a, r in triples:
            if merged and merged[-1][0] == q and merged[-1][1] == a:
                merged[-1][2].append(r)
            else:
                merged.append((q, a, [r]))
        shared: dict[frozenset[int], frozenset[int]] = {}  # one object per distinct target set
        normal = []
        for q, a, ts in merged:
            ts = frozenset(ts)
            normal.append((q, a, shared.setdefault(ts, ts)))
        self._install(symbols, n, initial, final, tuple(normal), symbol_set)

    @classmethod
    def _from_normal(cls, alphabet, n_states, initial, final, transitions) -> Automaton:
        """An automaton from fields already in the normal form ``__post_init__`` builds.

        Nothing is checked or re-sorted, so the caller must hand over exactly:

        - ``alphabet``, a sorted tuple of symbols that ``_checked_alphabet`` accepts;
        - ``initial`` and ``final``, frozensets of int ids in ``0..n_states-1``;
        - ``transitions``, a tuple of ``(q, a, frozenset)`` entries with
          non-empty target sets of such ids, strictly increasing in ``(q, a)``
          with symbols in alphabet order, equal target sets being one object.
        """
        self = object.__new__(cls)
        self._install(alphabet, n_states, initial, final, transitions, _checked_alphabet(alphabet)[1])
        return self

    def _install(self, alphabet, n_states, initial, final, transitions, symbol_set):
        """Set every field, the transition index and the symbol set among them.

        The index ``_step`` holds one row per symbol, in alphabet order, with
        the target set of each state.

        Each goes through ``object.__setattr__`` in declaration order, as the
        dataclass ``__init__`` sets them: reading ``vars(self)`` instead would
        make CPython keep a separate dict per instance and slow every later
        attribute read on the value.
        """
        step = {a: [_EMPTY] * n_states for a in alphabet}
        for q, a, ts in transitions:
            step[a][q] = ts
        set_field = object.__setattr__
        set_field(self, "alphabet", alphabet)
        set_field(self, "n_states", n_states)
        set_field(self, "initial", initial)
        set_field(self, "final", final)
        set_field(self, "transitions", transitions)
        set_field(self, "_step", step)
        set_field(self, "_symbol_set", symbol_set)

    def step(self, q: int, a: str) -> frozenset[int]:
        """The targets of ``q`` on ``a``; empty for a foreign symbol or a ``q`` that is no state id."""
        row = self._step.get(a)
        if row is not None and isinstance(q, int) and 0 <= q < self.n_states:
            return row[q]
        return _EMPTY

    def run(self, sources, w: Word) -> frozenset[int]:
        """Set of states reachable from ``sources`` along ``w``."""
        _check_word(w, self._symbol_set)
        current = frozenset(sources)
        for q in current:
            _check_state(q, self.n_states)
        for a in w:
            current = self._successors(current, a)
        return current

    def _successors(self, states, a: str) -> frozenset[int]:
        """States reachable from ``states`` by one ``a``-step."""
        row = self._step[a]
        if len(states) == 1:  # a DFA's run: the stored target set is the answer
            (q,) = states
            return row[q]
        out: set[int] = set()
        for q in states:
            out.update(row[q])
        return frozenset(out)

    def _arcs(self, q: int) -> list[tuple[str, int]]:
        """``(symbol, target)`` pairs leaving ``q``, in alphabet order."""
        return [(a, r) for a, row in self._step.items() for r in row[q]]

    def accepts(self, w: Word) -> bool:
        return bool(self.run(self.initial, w) & self.final)

    def accepts_from(self, q: int, w: Word) -> bool:
        """Membership of ``w`` in the language accepted when starting at ``q``."""
        return bool(self.run((q,), w) & self.final)

    @functools.cached_property
    def _delta(self) -> list[list[int]]:
        """``delta[i][q]``: the successor of ``q`` on the i-th symbol of a total DFA."""
        n, k = self.n_states, len(self.alphabet)
        # Transitions are sorted by state, then symbol: a total machine whose
        # entries hold one target each is a DFA with n·k targets in that order.
        flat = [t for _, _, targets in self.transitions for t in targets]
        if not (self.is_total and len(flat) == len(self.transitions)):
            q, a = next((q, a) for q in range(n) for a in self.alphabet if len(self.step(q, a)) != 1)
            raise ContractError(
                f"expected a total deterministic automaton: "
                f"state {q} has {len(self.step(q, a))} successors on {a!r}"
            )
        return [flat[i::k] for i in range(k)]

    @functools.cached_property
    def _pred_masks(self) -> list[list[int]]:
        """``pre[i][r]``: the mask of the states with an arc on the i-th symbol into ``r``."""
        position = {a: i for i, a in enumerate(self.alphabet)}
        pre = [[0] * self.n_states for _ in self.alphabet]
        for q, a, targets in self.transitions:
            row, bit = pre[position[a]], 1 << q
            for r in targets:
                row[r] |= bit
        return pre

    @functools.cached_property
    def is_deterministic(self) -> bool:
        return len(self.initial) == 1 and all(len(ts) <= 1 for _, _, ts in self.transitions)

    @functools.cached_property
    def _numbered(self) -> bool:
        """True iff the DFA starts at 0 alone and a breadth-first walk from there visits 0..n-1 in order.

        The walk takes the symbols in alphabet order.  The automaton must be
        a total DFA, one initial state and one successor per state and
        symbol: any other raises ``ContractError`` on every call, since a
        failed ``_delta`` is not kept.
        """
        delta = self._delta
        if len(self.initial) != 1:
            raise ContractError(
                f"expected a total deterministic automaton: {len(self.initial)} initial states"
            )
        if self.initial != {0}:
            return False
        reached = 1  # the walk has numbered the states 0..reached-1 so far
        for q, targets in enumerate(zip(*delta)):
            if q == reached:  # no state before q leads to it
                return False
            for t in targets:
                if t == reached:
                    reached += 1
                elif t > reached:  # the walk would number t as reached
                    return False
        return reached == self.n_states  # not so without symbols and with more than one state

    @property
    def is_total(self) -> bool:
        # ``transitions`` holds one entry per (state, symbol) pair with a successor.
        return len(self.transitions) == self.n_states * len(self.alphabet)


def is_covered(target, values) -> bool:
    """True iff ``target`` equals the union of the ``values`` strictly inside it.

    Works on int bit masks and on frozensets alike: ``v | target == target``
    says ``v`` is inside ``target``.  Values equal to ``target`` are skipped,
    so ``values`` may contain ``target`` itself.
    """
    union = target ^ target  # the empty value of target's type: 0 or frozenset()
    for v in values:
        if v != target and v | target == target:
            union |= v
    return union == target


# _BYTE_BITS[b]: the positions of the set bits of the byte value b, lowest first.
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
# The least mask of bit length 17.  Timed on the masks the bench workloads
# step, the byte read costs more than peeling one low bit at a time up to 16
# bits and less from 17 bits on.
_WIDE_MASK = 1 << 16


def mask_union(values, mask: int) -> int:
    """OR of ``values[i]`` over the set bits ``i`` of ``mask``.

    A mask of at most 16 bits is peeled one low bit at a time.  A wider one
    is read a byte at a time, with the set-bit positions of each byte value
    from a table, so each set bit costs one index and one OR rather than
    big-int arithmetic over the whole mask.
    """
    union = 0
    if mask < _WIDE_MASK:
        while mask:
            low = mask & -mask
            union |= values[low.bit_length() - 1]
            mask ^= low
        return union
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                union |= values[base + i]
        base += 8
    return union


def pred_masks(successors, n: int) -> list[int]:
    """``out[q]``: the mask of the ``p`` with ``successors[p] == q``; ``None`` is no successor."""
    out = [0] * n
    for p, q in enumerate(successors):
        if q is not None:
            out[q] |= 1 << p
    return out


def least_words(starts, successors):
    """Breadth-first search yielding each reachable node with its least word.

    Every start node has the empty word; ``successors(node)`` lists
    ``(symbol, node)`` pairs in alphabet order.  Nodes come out breadth-first
    and each is expanded only after it is yielded.  The words are
    length-lexicographically least when no two nodes can share a word (one
    start node, at most one successor per symbol), as in every deterministic
    search here; otherwise they are still shortest.
    """
    words = dict.fromkeys(starts, EPSILON)
    queue = list(words)
    for node in queue:  # the loop runs on over the nodes appended while it runs
        w = words[node]
        yield node, w
        for a, nxt in successors(node):
            if nxt not in words:
                words[nxt] = w + (a,)
                queue.append(nxt)


def _first_hit(start, successors, hit) -> Word | None:
    """The word :func:`least_words` gives the first node it yields on which ``hit`` holds, or None.

    Each node is tested when first reached and keeps only a ``(node, symbol)`` link back.
    """
    if hit(start):
        return EPSILON
    links, queue = {start: None}, [start]
    for node in queue:
        for a, nxt in successors(node):
            if nxt not in links:
                links[nxt] = node, a
                if hit(nxt):
                    out = []
                    while (link := links[nxt]) is not None:
                        nxt, a = link
                        out.append(a)
                    return tuple(reversed(out))
                queue.append(nxt)
    return None


def reverse_automaton(a: Automaton) -> Automaton:
    """Swap initial and final states and invert every arc."""
    arcs = [(r, sym, q) for q, sym, ts in a.transitions for r in ts]
    return Automaton(a.alphabet, a.n_states, a.final, a.initial, tuple(arcs))


def determinize(a: Automaton) -> Automaton:
    """Deterministic, total, language-equivalent automaton (subset construction).

    A total DFA that starts at state 0 and whose breadth-first walk from there
    visits its states 0..n-1 in order is returned as it is: the subset
    construction would rebuild an equal value.
    """
    if a.is_total and a.is_deterministic and a._numbered:
        return a
    return determinize_labeled(a)[0]


def determinize_labeled(a: Automaton) -> tuple[Automaton, tuple[frozenset[int], ...]]:
    """Like :func:`determinize` but also returns the source-state subset of each output state."""
    start = frozenset(a.initial)
    labels: list[frozenset[int]] = [start]
    index = {start: 0}
    arcs = []
    finals = set()
    i = 0
    while i < len(labels):
        p = labels[i]
        if p & a.final:
            finals.add(i)
        for sym in a.alphabet:
            t = a._successors(p, sym)
            j = index.get(t)
            if j is None:
                j = index[t] = len(labels)
                labels.append(t)
            arcs.append((i, sym, j))
        i += 1
    out = Automaton(a.alphabet, len(labels), frozenset({0}), frozenset(finals), tuple(arcs))
    return out, tuple(labels)


def minimize(dfa: Automaton) -> Automaton:
    """Minimal total DFA of any automaton, with canonical state numbering.

    States are numbered in breadth-first order from the start state over the
    sorted alphabet, so two inputs with the same language produce identical
    values.  An input that is not a total DFA is determinized first.  A total
    DFA that already is its own canonical minimal DFA, that is one whose
    states are all distinct and whose numbering ``_numbered`` accepts, is
    returned as it is: the class walk would number each state as itself.
    """
    if not (dfa.is_total and dfa.is_deterministic):
        dfa = determinize(dfa)
    (q0,) = dfa.initial
    symbols, delta, n = dfa.alphabet, dfa._delta, dfa.n_states

    cls = [1 if q in dfa.final else 0 for q in range(n)]
    count = len(set(cls))
    while True:
        sig: dict[tuple[int, ...], int] = {}
        stepped = [[cls[t] for t in row] for row in delta]
        new = [sig.setdefault(key, len(sig)) for key in zip(cls, *stepped)]
        if len(sig) == count:
            break
        cls, count = new, len(sig)
    if count == n and dfa._numbered:
        return dfa

    # Only the classes reached from the start's class are numbered, in
    # breadth-first order; any member stands for its class.
    rep = dict(zip(cls, range(n)))

    def class_arcs(c):
        return [(a, cls[row[rep[c]]]) for a, row in zip(symbols, delta)]

    number = {c: i for i, (c, _) in enumerate(least_words((cls[q0],), class_arcs))}
    arcs = [(number[c], a, number[t]) for c in number for a, t in class_arcs(c)]
    out_final = frozenset(number[c] for c in number if rep[c] in dfa.final)
    return Automaton(symbols, len(number), frozenset({0}), out_final, tuple(arcs))


def useful_states(a: Automaton) -> frozenset[int]:
    """States on some path from an initial state to a final state.

    They are the states reachable from the initial states both in ``a`` and
    in its reversal, whose initial states are the finals of ``a``.
    """
    back = reverse_automaton(a)
    fwd = {q for q, _ in least_words(a.initial, a._arcs)}
    return frozenset(q for q, _ in least_words(back.initial, back._arcs) if q in fwd)


def trim(a: Automaton) -> Automaton:
    """Drop every useless state (unreachable or with no path to a final state)."""
    useful = sorted(useful_states(a))
    remap = {q: i for i, q in enumerate(useful)}
    arcs = [
        (remap[q], sym, remap[r])
        for q, sym, ts in a.transitions
        if q in remap
        for r in ts
        if r in remap
    ]
    return Automaton(
        a.alphabet,
        len(useful),
        frozenset(remap[q] for q in a.initial if q in remap),
        frozenset(remap[q] for q in a.final if q in remap),
        tuple(arcs),
    )


def shortest_difference_witness(a: Automaton, b: Automaton) -> Word | None:
    """Length-lexicographically least word in the symmetric difference, if any.

    Works on arbitrary (possibly nondeterministic, partial) inputs by a
    breadth-first walk of the product of the two subset constructions, built
    lazily so only subset pairs actually reached are ever materialized; ties
    within a length are broken by alphabet order.
    """
    if a.alphabet != b.alphabet:
        raise InputError("alphabet mismatch")
    return least_difference(a.alphabet, _forward_side(a), _forward_side(b))


def least_difference(alphabet, side_a, side_b) -> Word | None:
    """Length-lexicographically least word on which two subset walks disagree.

    Each side is ``(start, finals, step)``: ``step(state, symbol)`` is the
    state after one symbol, and a state accepts iff ``state & finals`` is
    non-empty, so states may be frozensets or int masks.  The pairs are
    searched by :func:`_first_hit`, so only the pairs reached are built.
    """
    (start_a, final_a, step_a), (start_b, final_b, step_b) = side_a, side_b

    def successors(pair):
        sa, sb = pair
        return [(sym, (step_a(sa, sym), step_b(sb, sym))) for sym in alphabet]

    return _first_hit((start_a, start_b), successors, lambda ab: bool(ab[0] & final_a) != bool(ab[1] & final_b))


def _forward_side(a: Automaton):
    """``a`` as a side of :func:`least_difference`, on frozensets of states."""
    return frozenset(a.initial), a.final, a._successors


def _reversed_side(a: Automaton):
    """The reversal of ``a`` as a side of :func:`least_difference`, on int masks.

    It starts at the finals of ``a``, accepts at its initial states and steps
    to the predecessors, so no reversed automaton is built; ``a`` may be
    nondeterministic or partial.
    """
    pre = dict(zip(a.alphabet, a._pred_masks))
    start = sum(1 << q for q in a.final)
    finals = sum(1 << q for q in a.initial)
    return start, finals, lambda mask, sym: mask_union(pre[sym], mask)


class _ResidualOrder:
    """Residual inclusion between the states of a total DFA, with least witnesses.

    ``dist[p][q]`` is the length of the shortest word in L_p \\ L_q, or -1 when
    L_p ⊆ L_q.  It comes from one backward breadth-first search over the pair
    graph seeded at the (final, non-final) pairs, so all pairs together cost
    O(n²·|Σ|); the search steps back over per-symbol predecessor lists that
    it builds from the successor rows, once per kernel.  It is computed on
    first use only, as are the strictly-below masks ``below``, read off it,
    which start the excess search.
    """

    def __init__(self, dfa: Automaton):
        self.n = dfa.n_states
        # (symbol, successor row, successor bit row) triples in alphabet order,
        # for the walks and ``dist``; the bit rows step a mask of states by
        # ``mask_union``.
        self.steps = tuple((a, row, [1 << t for t in row]) for a, row in zip(dfa.alphabet, dfa._delta))
        self.final_mask = sum(1 << q for q in dfa.final)

    @functools.cached_property
    def dist(self) -> list[list[int]]:
        n, final = self.n, self.final_mask
        # pre[i][q]: the predecessors of q on the i-th symbol, in increasing order.
        pre = [[[] for _ in range(n)] for _ in self.steps]
        for by_state, (_, row, _) in zip(pre, self.steps):
            for q, t in enumerate(row):
                by_state[t].append(q)
        is_final = [final >> q & 1 for q in range(n)]
        seeded = [-1 if f else 0 for f in is_final]
        dist = [seeded.copy() if f else [-1] * n for f in is_final]
        frontier = [(p, q) for p, f in enumerate(is_final) if f for q, g in enumerate(is_final) if not g]
        d = 0
        while frontier:
            d += 1
            reached = []
            # One symbol at a time, skipping pairs without predecessors on it.
            for by_state in pre:
                for p, q in frontier:
                    sources = by_state[q]
                    if sources:
                        for p2 in by_state[p]:
                            row = dist[p2]
                            for q2 in sources:
                                if row[q2] < 0:
                                    row[q2] = d
                                    reached.append((p2, q2))
            frontier = reached
        return dist

    @functools.cached_property
    def below(self) -> list[int]:
        """``below[q]``: the mask of the states p != q with L_p ⊆ L_q."""
        out = [0] * self.n
        for p, row in enumerate(self.dist):
            bit = 1 << p
            for q, d in enumerate(row):
                if d < 0 and p != q:
                    out[q] |= bit
        return out

    def _walk(self, p: int, q: int) -> Word:
        """The length-lex least word in L_p \\ L_q, which must not be empty.

        Every shortest witness steps to a pair one closer to the seeds, so
        taking the least symbol that does so at each step gives the least one.
        """
        dist = self.dist
        d, out = dist[p][q], []
        if d < 0:
            raise ContractError(f"no word in L_{p} \\ L_{q}: L_{p} ⊆ L_{q}")
        while d > 0:
            d -= 1
            for a, row, _ in self.steps:
                p2, q2 = row[p], row[q]
                if dist[p2][q2] == d:
                    out.append(a)
                    p, q = p2, q2
                    break
        return tuple(out)

    def excess_witness(self, q: int) -> Word | None:
        """Least word of L_q outside the union of the L_p strictly below q, if any.

        The first hit of :func:`_first_hit` over pairs of a state and the bit
        mask of the states ``below[q]`` reach by the same word: a final state
        whose mask holds no final one.  A pair whose state lies in its mask is
        dropped, since from there every word the state accepts the mask accepts too.
        """
        final, steps = self.final_mask, self.steps

        def successors(node):
            s, mask = node
            for a, row, bits in steps:
                t, stepped = row[s], mask_union(bits, mask)
                if not stepped >> t & 1:
                    yield a, (t, stepped)

        return _first_hit((q, self.below[q]), successors, lambda sm: final >> sm[0] & 1 and not sm[1] & final)


def _joint_colors(a: Automaton, b: Automaton) -> tuple[list[int], list[int]]:
    """Stable structural colors computed jointly so they compare across automata.

    A state's color refines on its own color and its targets' colors per
    symbol; incoming arcs are not read.  Colors only prune the search of
    :func:`isomorphic`, which checks every arc both ways.
    """

    def key(aut, col, q):
        return col[q], tuple(tuple(sorted(col[r] for r in aut.step(q, s))) for s in aut.alphabet)

    ka = [(q in a.initial, q in a.final) for q in range(a.n_states)]
    kb = [(q in b.initial, q in b.final) for q in range(b.n_states)]
    count = 0  # each round refines the last, so the colors are stable once their count is
    while True:
        index = {k: i for i, k in enumerate(sorted(set(ka) | set(kb)))}
        ca, cb = [index[k] for k in ka], [index[k] for k in kb]
        if len(index) == count:
            return ca, cb
        count = len(index)
        ka = [key(a, ca, q) for q in range(a.n_states)]
        kb = [key(b, cb, q) for q in range(b.n_states)]


def isomorphic(a: Automaton, b: Automaton) -> bool:
    """True iff some state bijection carries initial, final and arcs of ``a`` onto ``b``."""
    if a.alphabet != b.alphabet or a.n_states != b.n_states:
        return False
    if len(a.initial) != len(b.initial) or len(a.final) != len(b.final):
        return False
    if len(a.transitions) != len(b.transitions):
        return False
    ca, cb = _joint_colors(a, b)
    if sorted(ca) != sorted(cb):
        return False

    by_color: dict[int, list[int]] = {}
    for q, c in enumerate(cb):
        by_color.setdefault(c, []).append(q)
    order = sorted(range(a.n_states), key=lambda q: (len(by_color[ca[q]]), q))
    mapping: dict[int, int] = {}  # order[i] -> its image, inserted in that order

    def consistent(p: int, q: int) -> bool:
        for sym in a.alphabet:
            pt = a.step(p, sym)
            qt = b.step(q, sym)
            for p2, q2 in mapping.items():
                if (p2 in pt) != (q2 in qt):
                    return False
                if (p in a.step(p2, sym)) != (q in b.step(q2, sym)):
                    return False
            if (p in pt) != (q in qt):
                return False
        return True

    # An iterative search, so no closure refers to itself and a call leaves no
    # reference cycle: images[i] holds the untried images of order[i].
    images = []
    while len(mapping) < len(order):
        p = order[len(mapping)]
        if len(images) == len(mapping):
            images.append(iter(by_color[ca[p]]))
        q = next((q for q in images[-1] if q not in mapping.values() and consistent(p, q)), None)
        if q is not None:
            mapping[p] = q
            continue
        images.pop()
        if not images:
            return False
        mapping.popitem()
    return True


def parse_automaton(text: str) -> Automaton:
    """Parse the line-based automaton format (strict; see :func:`format_automaton`)."""
    alphabet = None
    n_states = None
    initial = None
    final = None
    arcs: list[tuple[int, str, int, int]] = []
    seen: set[str] = set()
    last_line = 0

    def ints(tokens, line):
        out = []
        for t in tokens:
            try:
                out.append(int(t))
            except ValueError:
                raise ParseError(line, f"expected a state id, got {t!r}") from None
        if len(set(out)) != len(out):
            raise ParseError(line, "duplicate state id")
        return out

    for line_no, raw in enumerate(text.splitlines(), 1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(line_no, "expected 'key: value' form")
        key = key.strip()
        tokens = rest.split()
        if key in seen and key != "trans":
            raise ParseError(line_no, f"duplicate {key}: line")
        seen.add(key)
        if key == "alphabet":
            try:
                alphabet, _ = _checked_alphabet(tuple(tokens))
            except InputError as exc:
                raise ParseError(line_no, str(exc)) from None
        elif key == "states":
            if len(tokens) != 1:
                raise ParseError(line_no, "states: expects one count")
            (n_states,) = ints(tokens, line_no)
            if n_states < 0:
                raise ParseError(line_no, "negative state count")
        elif key == "initial":
            initial = (ints(tokens, line_no), line_no)
        elif key == "final":
            final = (ints(tokens, line_no), line_no)
        elif key == "trans":
            if len(tokens) != 3:
                raise ParseError(line_no, "trans: expects 'state symbol state'")
            src = ints([tokens[0]], line_no)[0]
            dst = ints([tokens[2]], line_no)[0]
            arcs.append((src, tokens[1], dst, line_no))
        else:
            raise ParseError(line_no, f"unknown key {key!r}")

    if alphabet is None:
        raise ParseError(last_line, "missing alphabet: line")
    if n_states is None:
        raise ParseError(last_line, "missing states: line")

    def check_ids(ids, line):
        for q in ids:
            if not 0 <= q < n_states:
                raise ParseError(line, f"state id {q} out of range 0..{n_states - 1}")

    init_ids, init_line = initial if initial is not None else ([], last_line)
    final_ids, final_line = final if final is not None else ([], last_line)
    check_ids(init_ids, init_line)
    check_ids(final_ids, final_line)
    triples = []
    for src, sym, dst, line_no in arcs:
        check_ids([src, dst], line_no)
        if sym not in alphabet:
            raise ParseError(line_no, f"symbol {sym!r} not in alphabet")
        triples.append((src, sym, dst))
    try:
        return Automaton(alphabet, n_states, frozenset(init_ids), frozenset(final_ids), tuple(triples))
    except InputError as exc:
        raise ParseError(last_line, str(exc)) from None


def format_automaton(a: Automaton) -> str:
    """Render the line-based text format; ``parse_automaton`` round-trips it."""
    lines = [
        "alphabet: " + " ".join(a.alphabet) if a.alphabet else "alphabet:",
        f"states: {a.n_states}",
        "initial: " + " ".join(str(q) for q in sorted(a.initial)) if a.initial else "initial:",
        "final: " + " ".join(str(q) for q in sorted(a.final)) if a.final else "final:",
    ]
    for q, sym, ts in a.transitions:
        for r in sorted(ts):
            lines.append(f"trans: {q} {sym} {r}")
    return "\n".join(lines) + "\n"
