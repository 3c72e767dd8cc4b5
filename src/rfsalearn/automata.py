"""Finite-state acceptors and the constructions the rest of the package builds on.

A single ``Automaton`` type covers DFAs, NFAs and partial machines; the
``is_deterministic`` / ``is_total`` properties report which contracts a given
value happens to satisfy.  Values are frozen, so they are safe to share
between threads or processes.  Every construction returns a fresh automaton,
except that ``minimize`` returns an input that is already its own canonical
minimal DFA.
"""
from __future__ import annotations

import functools
from collections import deque
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


def _state_ids_ok(ids, n: int) -> bool:
    """True iff the values ``ids`` are all plain ints in 0..n-1."""
    return not ids or ({*map(type, ids)} == {int} and min(ids) >= 0 and max(ids) < n)


def _reiterable(values):
    """``values``, read into a tuple first when it may be a one-pass iterator."""
    return values if isinstance(values, (tuple, list, set, frozenset)) else tuple(values)


@dataclass(frozen=True)
class Automaton:
    """Finite acceptor with integer states 0..n_states-1.

    ``transitions`` is kept as a sorted tuple of ``(state, symbol, targets)``
    entries with non-empty target sets; pairs that do not appear map to the
    empty set, so the transition relation is total as a mapping but the
    machine itself may be partial.
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
        entries = _reiterable(self.transitions)
        try:
            columns = tuple(zip(*entries))[:3]
            if len(columns) == 3 and {*map(type, columns[2])} == {int}:  # one target each
                triples = set(zip(*columns))
                targets = set(columns[2])
            else:
                # One (q, a, r) triple per target; an entry without targets
                # still has its state and symbol checked.
                spread = [
                    (e[0], e[1], r)
                    for e in entries
                    for r in (e[2] if isinstance(e[2], (set, frozenset)) else (e[2],))
                ]
                triples = set(spread)
                targets = [r for _, _, r in spread]
                columns = ([e[0] for e in entries], {e[1] for e in entries})
            # Ids are typed before a set can merge an int subclass (``True``) into an int.
            valid = {*columns[1]} <= symbol_set and _state_ids_ok((*columns[0], *targets), n)
        except (TypeError, IndexError, KeyError):
            valid = False
        if not valid:
            # A bad value, or an int subclass: scan in order, so that the
            # error names the first bad value, and keep each id as a plain int.
            triples = set()
            for entry in entries:
                q, a, rest = _check_state(entry[0], n), entry[1], entry[2]
                _check_word((a,), symbol_set)
                for r in rest if isinstance(rest, (set, frozenset)) else {rest}:
                    triples.add((q, a, _check_state(r, n)))
            targets = {r for _, _, r in triples}

        # Plain tuple order is state, then symbol in alphabet order, since the
        # alphabet is sorted.
        ordered = sorted(triples)
        if len({(q, a) for q, a, _ in ordered}) == len(ordered):  # one target per pair
            single = {r: frozenset((r,)) for r in targets}
            normal = tuple([(q, a, single[r]) for q, a, r in ordered])
        else:
            grouped: dict[tuple[int, str], list[int]] = {}
            for q, a, r in ordered:
                grouped.setdefault((q, a), []).append(r)
            normal = tuple((q, a, frozenset(ts)) for (q, a), ts in grouped.items())
        object.__setattr__(self, "alphabet", symbols)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "transitions", normal)
        object.__setattr__(self, "_step", {(q, a): ts for q, a, ts in normal})
        object.__setattr__(self, "_symbol_set", symbol_set)

    def step(self, q: int, a: str) -> frozenset[int]:
        return self._step.get((q, a), frozenset())

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
        if len(states) == 1:  # a DFA's run: the stored target set is the answer
            (q,) = states
            return self._step.get((q, a), _EMPTY)
        out: set[int] = set()
        for q in states:
            out.update(self._step.get((q, a), ()))
        return frozenset(out)

    def _arcs(self, q: int) -> list[tuple[str, int]]:
        """``(symbol, target)`` pairs leaving ``q``, in alphabet order."""
        return [(a, r) for a in self.alphabet for r in self._step.get((q, a), ())]

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
    def _preds(self) -> dict[tuple[int, str], list[int]]:
        """``(state, symbol)`` → the states with an arc on ``symbol`` into ``state``."""
        preds: dict[tuple[int, str], list[int]] = {}
        for q, a, targets in self.transitions:
            for r in targets:
                preds.setdefault((r, a), []).append(q)
        return preds

    @property
    def is_deterministic(self) -> bool:
        return len(self.initial) == 1 and all(len(ts) <= 1 for _, _, ts in self.transitions)

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


def mask_union(values, mask: int) -> int:
    """OR of ``values[i]`` over the set bits ``i`` of ``mask``."""
    union = 0
    while mask:
        low = mask & -mask
        union |= values[low.bit_length() - 1]
        mask ^= low
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
    and each is expanded only after it is yielded, so a caller that stops at
    the first hit expands nothing past it.  The words are
    length-lexicographically least when no two nodes can share a word (one
    start node, at most one successor per symbol), as in every deterministic
    search here; otherwise they are still shortest.
    """
    words = dict.fromkeys(starts, EPSILON)
    queue = deque(words)
    while queue:
        node = queue.popleft()
        w = words[node]
        yield node, w
        for a, nxt in successors(node):
            if nxt not in words:
                words[nxt] = w + (a,)
                queue.append(nxt)


def reverse_automaton(a: Automaton) -> Automaton:
    """Swap initial and final states and invert every arc."""
    arcs = [(r, sym, q) for q, sym, ts in a.transitions for r in ts]
    return Automaton(a.alphabet, a.n_states, a.final, a.initial, tuple(arcs))


def determinize(a: Automaton) -> Automaton:
    """Deterministic, total, language-equivalent automaton (subset construction)."""
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
    DFA that already is its own canonical minimal DFA is returned as it is.
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

    # Only the classes reached from the start's class are numbered, in
    # breadth-first order; any member stands for its class.
    rep = dict(zip(cls, range(n)))

    def class_arcs(c):
        return [(a, cls[row[rep[c]]]) for a, row in zip(symbols, delta)]

    number = {c: i for i, (c, _) in enumerate(least_words((cls[q0],), class_arcs))}
    if len(number) == n and all(number[c] == q for q, c in enumerate(cls)):
        return dfa  # each state is its own class, numbered as it is: already canonical
    arcs = [(number[c], a, number[t]) for c in number for a, t in class_arcs(c)]
    out_final = frozenset(number[c] for c in number if rep[c] in dfa.final)
    return Automaton(symbols, len(number), frozenset({0}), out_final, tuple(arcs))


def useful_states(a: Automaton) -> frozenset[int]:
    """States on some path from an initial state to a final state.

    One search forward from the initial states and one backward from the
    finals over the predecessor view; only the states they reach are used.
    """
    def back_arcs(q):
        return [(sym, p) for sym in a.alphabet for p in a._preds.get((q, sym), ())]

    fwd = {q for q, _ in least_words(a.initial, a._arcs)}
    return frozenset(q for q, _ in least_words(a.final, back_arcs) if q in fwd)


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
    searched breadth-first and only the pairs reached are built.
    """
    (start_a, final_a, step_a), (start_b, final_b, step_b) = side_a, side_b

    def successors(pair):
        sa, sb = pair
        return [(sym, (step_a(sa, sym), step_b(sb, sym))) for sym in alphabet]

    for (sa, sb), w in least_words(((start_a, start_b),), successors):
        if bool(sa & final_a) != bool(sb & final_b):
            return w
    return None


def _forward_side(a: Automaton):
    """``a`` as a side of :func:`least_difference`, on frozensets of states."""
    return frozenset(a.initial), a.final, a._successors


def _reversed_side(a: Automaton):
    """The reversal of ``a`` as a side of :func:`least_difference`, on int masks.

    It starts at the finals of ``a``, accepts at its initial states and steps
    to the predecessors, so no reversed automaton is built; ``a`` may be
    nondeterministic or partial.
    """
    # pre[sym][r]: the mask of the states with a ``sym``-arc into r.
    pre = {sym: [0] * a.n_states for sym in a.alphabet}
    for q, sym, targets in a.transitions:
        row, bit = pre[sym], 1 << q
        for r in targets:
            row[r] |= bit
    start = sum(1 << q for q in a.final)
    finals = sum(1 << q for q in a.initial)
    return start, finals, lambda mask, sym: mask_union(pre[sym], mask)


class _ResidualOrder:
    """Residual inclusion between the states of a total DFA, with least witnesses.

    ``dist[p][q]`` is the length of the shortest word in L_p \\ L_q, or -1 when
    L_p ⊆ L_q.  It comes from one backward breadth-first search over the pair
    graph seeded at the (final, non-final) pairs, so all pairs together cost
    O(n²·|Σ|), and it is computed on first use only, as is ``includes``, the
    inclusion matrix read off it.
    """

    def __init__(self, dfa: Automaton):
        self.dfa = dfa
        self.alphabet = dfa.alphabet
        self.n = dfa.n_states
        # (symbol, successor row, successor bit row) triples in alphabet order,
        # for the walks; the bit rows step a mask of states by ``mask_union``.
        self.steps = tuple((a, row, [1 << t for t in row]) for a, row in zip(dfa.alphabet, dfa._delta))
        self.final_mask = sum(1 << q for q in dfa.final)

    @functools.cached_property
    def dist(self) -> list[list[int]]:
        n, final, preds = self.n, self.final_mask, self.dfa._preds
        # pre[i][q]: the predecessors of q on the i-th symbol, indexed for the hot loop
        pre = [[preds.get((q, a), ()) for q in range(n)] for a in self.alphabet]
        dist = [[-1] * n for _ in range(n)]
        frontier = []
        for p in range(n):
            if final >> p & 1:
                for q in range(n):
                    if not final >> q & 1:
                        dist[p][q] = 0
                        frontier.append((p, q))
        d = 0
        while frontier:
            d += 1
            reached = []
            for p, q in frontier:
                for by_state in pre:
                    sources = by_state[q]
                    for p2 in by_state[p]:
                        row = dist[p2]
                        for q2 in sources:
                            if row[q2] < 0:
                                row[q2] = d
                                reached.append((p2, q2))
            frontier = reached
        return dist

    @functools.cached_property
    def includes(self) -> tuple[tuple[bool, ...], ...]:
        """``includes[p][q]`` says L_p ⊆ L_q."""
        return tuple(tuple(d < 0 for d in row) for row in self.dist)

    def _walk(self, p: int, q: int) -> Word:
        """The length-lex least word in L_p \\ L_q, which must not be empty.

        Every shortest witness steps to a pair one closer to the seeds, so
        taking the least symbol that does so at each step gives the least one.
        """
        dist = self.dist
        d, out = dist[p][q], []
        while d > 0:
            d -= 1
            for a, row, _ in self.steps:
                p2, q2 = row[p], row[q]
                if dist[p2][q2] == d:
                    out.append(a)
                    p, q = p2, q2
                    break
        return tuple(out)

    def excess_witness(self, q: int, includes) -> Word | None:
        """Least word of L_q outside the union of the L_p strictly below q, if any.

        ``includes[p][q]`` says L_p ⊆ L_q.  Breadth-first over pairs of a state
        and the bit mask of the states the union has reached by the same word;
        a pair whose state lies in its mask is dropped, since from there every
        word the state accepts the mask accepts too.
        """
        below = sum(1 << p for p in range(self.n) if p != q and includes[p][q])
        final, steps = self.final_mask, self.steps

        def successors(node):
            s, mask = node
            for a, row, bits in steps:
                t, stepped = row[s], mask_union(bits, mask)
                if not stepped >> t & 1:
                    yield a, (t, stepped)

        for (s, mask), w in least_words(((q, below),), successors):
            if final >> s & 1 and not mask & final:
                return w
        return None


def _joint_colors(a: Automaton, b: Automaton) -> tuple[list[int], list[int]]:
    """Stable structural colors computed jointly so they compare across automata."""

    pa, pb = a._preds, b._preds
    ca = [(q in a.initial, q in a.final) for q in range(a.n_states)]
    cb = [(q in b.initial, q in b.final) for q in range(b.n_states)]
    index = {k: i for i, k in enumerate(sorted(set(ca) | set(cb)))}
    ca = [index[k] for k in ca]
    cb = [index[k] for k in cb]
    for _ in range(max(a.n_states, b.n_states) + 1):
        def key(aut, col, pred, q):
            out = tuple(tuple(sorted(col[r] for r in aut.step(q, s))) for s in aut.alphabet)
            inc = tuple(tuple(sorted(col[r] for r in pred.get((q, s), ()))) for s in aut.alphabet)
            return (col[q], out, inc)

        ka = [key(a, ca, pa, q) for q in range(a.n_states)]
        kb = [key(b, cb, pb, q) for q in range(b.n_states)]
        index = {k: i for i, k in enumerate(sorted(set(ka) | set(kb)))}
        na = [index[k] for k in ka]
        nb = [index[k] for k in kb]
        if len(set(na)) == len(set(ca)) and len(set(nb)) == len(set(cb)):
            return na, nb
        ca, cb = na, nb
    return ca, cb


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
    mapping: dict[int, int] = {}
    used: set[int] = set()

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

    def assign(i: int) -> bool:
        if i == len(order):
            return True
        p = order[i]
        for q in by_color[ca[p]]:
            if q in used or not consistent(p, q):
                continue
            mapping[p] = q
            used.add(q)
            if assign(i + 1):
                return True
            del mapping[p]
            used.remove(q)
        return False

    return assign(0)


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
