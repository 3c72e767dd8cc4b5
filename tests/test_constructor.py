"""``Automaton``'s constructor: one test per rejection message, and agreement
with the scan-everything normaliser in ``helpers`` on random raw inputs."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import AB, nth_from_end_nfa, reference_normalise, reference_step_rows
from rfsalearn.automata import Automaton, InputError, determinize
from rfsalearn.residuals import canonical_rfsa
from rfsalearn.tables import ObservationTable


def rejects(message, alphabet=AB, n=2, initial=(0,), final=(), transitions=()):
    with pytest.raises(InputError) as info:
        Automaton(alphabet, n, initial, final, transitions)
    assert str(info.value) == message
    # The reference raises the same message on the same input.
    with pytest.raises(InputError) as info:
        reference_normalise(alphabet, n, initial, final, transitions)
    assert str(info.value) == message


def test_duplicate_alphabet_symbol():
    rejects("duplicate alphabet symbol", alphabet=("a", "b", "a"))


# Bad alphabets and their messages; the first bad symbol in the given order is named.
BAD_ALPHABETS = [
    *((("a", sym), f"bad alphabet symbol {sym!r}") for sym in ("", " ", "a b", "x\t", "#", "#a")),
    (("#a", ""), "bad alphabet symbol '#a'"),
]


def test_bad_alphabet_symbol():
    for alphabet, message in BAD_ALPHABETS:
        rejects(message, alphabet=alphabet)


def test_observation_table_checks_the_alphabet_like_automaton():
    for alphabet, message in [*BAD_ALPHABETS, (("a", "b", "a"), "duplicate alphabet symbol")]:
        with pytest.raises(InputError) as info:
            ObservationTable(alphabet)
        assert str(info.value) == message
        with pytest.raises(InputError) as info:
            ObservationTable.from_rows(alphabet, [()], [()], {})
        assert str(info.value) == message


def test_observation_table_rejects_foreign_symbols_like_add_context():
    rows = {(): [0], ("a",): [1], ("b",): [0]}
    # (red, contexts, the symbol named): the first foreign symbol, red words first.
    for red, contexts, symbol in [
        ([()], [("c",)], "c"),
        ([(), ("z",)], [()], "z"),
        ([(), ("z",)], [("c",)], "z"),
        ([()], [(), ("a", "z", "c")], "z"),
    ]:
        with pytest.raises(InputError) as info:
            ObservationTable.from_rows(AB, red, contexts, rows)
        assert str(info.value) == f"symbol {symbol!r} not in alphabet"
    for context, symbol in [(("c",), "c"), (("a", "z", "c"), "z")]:
        with pytest.raises(InputError) as info:
            ObservationTable(AB).add_context(context)
        assert str(info.value) == f"symbol {symbol!r} not in alphabet"


def test_observation_table_rejects_cells_other_than_0_or_1():
    rows = {(): [0], ("a",): [1], ("b",): [0]}
    # The row with the bad cell is named; bools are bits.
    for word, cell in [((), "0"), (("a",), 2), (("b",), None), (("a",), "1"), ((), 0.5)]:
        with pytest.raises(InputError) as info:
            ObservationTable.from_rows(AB, [()], [()], {**rows, word: [cell]})
        assert str(info.value) == f"row for {word!r} has a bit other than 0 or 1"
    table = ObservationTable.from_rows(AB, [()], [()], {(): [False], ("a",): [True], ("b",): [0]})
    assert (table.row(()), table.row(("a",))) == ((0,), (1,))


def test_bad_alphabet_raises_on_every_call():
    for _ in range(2):
        rejects("bad alphabet symbol ''", alphabet=("b", ""))


def test_negative_state_count():
    rejects("negative state count", n=-1, initial=())


def test_initial_state_out_of_range():
    for q in (2, -1):
        rejects(f"state id {q} out of range 0..1", initial={q})
    for q in ("0", 1.5, None, (0,)):
        rejects(f"state id {q!r} out of range 0..1", initial=[0, q])


def test_final_state_out_of_range():
    rejects("state id 5 out of range 0..1", final={1, 5})
    # Initial states are checked before final ones.
    rejects("state id 3 out of range 0..1", initial=[3], final=[4])


def test_transition_source_out_of_range():
    rejects("state id 2 out of range 0..1", transitions=[(0, "a", 1), (2, "a", 0)])


def test_transition_target_out_of_range():
    rejects("state id 2 out of range 0..1", transitions=[(0, "a", 2)])
    rejects("state id -1 out of range 0..1", transitions=[(0, "a", {0, -1})])
    rejects("state id '1' out of range 0..1", transitions=[(0, "b", frozenset({"1"}))])


def test_foreign_transition_symbol():
    rejects("symbol 'z' not in alphabet", transitions=[(0, "a", 1), (1, "z", 0)])


def test_entry_without_targets_is_checked():
    rejects("state id 9 out of range 0..1", transitions=[(9, "a", set())])
    rejects("symbol 'z' not in alphabet", transitions=[(0, "z", frozenset())])


def test_first_offending_entry_is_named():
    # Within an entry: source, then symbol, then targets; entries in order.
    rejects("state id 7 out of range 0..1", transitions=[(0, "a", 0), (7, "z", 8), (9, "a", 0)])
    rejects("symbol 'z' not in alphabet", transitions=[(1, "z", 8), (7, "a", 0)])
    rejects("state id 8 out of range 0..1", transitions=[(1, "a", {8}), (0, "z", 0)])


def test_entries_are_read_by_index():
    # The scan reads an entry's source, symbol and targets at indices 0, 1
    # and 2, so a mapping entry gives its values there and not its keys.
    a = Automaton(AB, 3, {0}, {0}, [{0: 0, 1: "a", 2: 1}])
    assert a.transitions == ((0, "a", frozenset({1})),)


def test_one_pass_iterables_are_read_once():
    with pytest.raises(InputError, match="^state id 4 out of range 0..1$"):
        Automaton(AB, 2, iter([0, 4]), (), ())
    with pytest.raises(InputError, match="^symbol 'z' not in alphabet$"):
        Automaton(AB, 2, (0,), (), iter([(0, "a", 1), (0, "z", 1)]))
    a = Automaton(AB, 2, iter([0]), iter([1]), iter([(0, "a", 1), (1, "b", {0, 1})]))
    assert a == Automaton(AB, 2, {0}, {1}, [(0, "a", 1), (1, "b", 0), (1, "b", 1)])


def test_int_subclass_ids_are_accepted_as_before():
    # ``True`` passes the ``isinstance(q, int)`` check and equals state 1.
    a = Automaton(AB, 2, {True}, {0}, [(True, "a", 0), (0, "b", {True, 0})])
    assert (a.alphabet, a.initial, a.final, a.transitions) == reference_normalise(
        AB, 2, {True}, {0}, [(True, "a", 0), (0, "b", {True, 0})]
    )
    # Each id is kept as the plain int it equals, also where a set of ids
    # would hold ``True`` in place of an equal 1.
    for b in (a, Automaton(AB, 2, {0}, {0}, [(1, "a", 0), (True, "b", 0)])):
        ids = [*b.initial, *b.final, *(r for q, _, ts in b.transitions for r in (q, *ts))]
        assert {type(q) for q in ids} == {int}


# ------------------------------------------------------ random raw inputs

ODD_IDS = st.sampled_from([-1, "0", 1.5, None, True])


@st.composite
def raw_automata(draw):
    """Mostly valid raw constructor arguments: duplicates, unsorted entries,
    int and set targets, empty target sets, and now and then a bad value."""
    alphabet = draw(st.permutations(["a", "b", "c"][: draw(st.integers(1, 3))]))
    if draw(st.integers(0, 9)) == 0:
        alphabet = alphabet + [draw(st.sampled_from(["a", "", "#", "b c", "d"]))]
    n = draw(st.integers(0, 6)) if draw(st.integers(0, 19)) else -1
    rare = draw(st.integers(0, 3)) == 0
    state = st.integers(0, max(n - 1, 0))
    if rare:
        state = st.one_of(state, ODD_IDS)
        alphabet = alphabet + ["z"]
    targets = st.one_of(state, st.sets(state, max_size=3), st.frozensets(state, max_size=3))
    entry = st.tuples(state, st.sampled_from(alphabet), targets)
    if rare:  # the foreign symbol is not part of the alphabet itself
        alphabet = alphabet[:-1]
    entries = draw(st.lists(entry, max_size=14))
    initial = draw(st.lists(state, max_size=3))
    return tuple(alphabet), n, initial, draw(st.lists(state, max_size=3)), entries


def fields(a):
    return a.alphabet, a.n_states, a.initial, a.final, a.transitions


# The bench's size: a 64-state DFA with one target per pair, and its
# canonical RFSA, whose arcs have several targets.
NTH_6 = determinize(nth_from_end_nfa(6))


@given(raw_automata())
@example(fields(NTH_6))
@example(fields(canonical_rfsa(NTH_6)))
@settings(max_examples=200, deadline=None)
def test_constructor_matches_reference_normaliser(raw):
    try:
        expected = reference_normalise(*raw)
    except InputError as exc:
        with pytest.raises(InputError) as info:
            Automaton(*raw)
        assert str(info.value) == str(exc)
        return
    a = Automaton(*raw)
    assert (a.alphabet, a.initial, a.final, a.transitions) == expected
    assert a.n_states == raw[1]
    # An int subclass such as ``True`` is kept as the plain int it equals.
    ids = [*a.initial, *a.final, *(r for q, _, ts in a.transitions for r in (q, *ts))]
    assert {type(q) for q in ids} <= {int}
    assert a._step == reference_step_rows(expected[0], raw[1], expected[3])
