import itertools
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    AB,
    RecordingTeacher,
    ReferenceTable,
    all_words,
    ends_a,
    even_a,
    obviously_different,
    reference_consistency_fix,
    reference_transpose,
    row_includes,
    table_for,
    table_from_bits,
    third_from_end_a,
    universal_lang,
)
from rfsalearn.automata import Automaton, ContractError, InputError, isomorphic, minimize, word
from rfsalearn.learners import lstar_col
from rfsalearn.tables import (
    ObservationTable,
    _least_per_value,
    _restrict,
    _transpose,
    apply_modifications,
    derive_rfsa,
    derive_dfa,
    derive_dfa_with_reps,
    drop_zero_rows_and_columns,
)
from rfsalearn.teacher import TeacherSession

# The running 4x5 example: rows s1..s4 over columns e, e1..e4.  Column e is
# the OR of e1, e2, e3 and is the only coverable one.
COVER_ROWS = [
    [1, 0, 1, 1, 0],
    [1, 1, 0, 1, 1],
    [1, 0, 1, 0, 0],
    [0, 0, 0, 0, 1],
]


def cover_table():
    return table_from_bits(["", "a", "b", "aa"], ["", "a", "ab", "bb", "ba"], COVER_ROWS)


def transposed_cover_table():
    columns = list(zip(*COVER_ROWS))
    return table_from_bits(["", "a", "b", "aa", "ab"], ["", "a", "ab", "bb"], columns)


# ---------------------------------------------------------------- predicates


def test_obviously_different_self_is_false():
    t = table_for(even_a(), ["", "a"], [""])
    assert not obviously_different(t, (), ())


def test_obviously_different_first_two_rows_of_cover_example():
    t = table_from_bits(["", "a"], ["", "a"], [[1, 0], [1, 1]])
    assert obviously_different(t, (), word("a"))


def test_obviously_different_all_zero_table():
    t = table_from_bits(["", "a"], ["", "a"], [[0, 0], [0, 0]])
    assert not obviously_different(t, (), word("a"))


def test_is_closed_when_blue_matches_red():
    t = table_for(universal_lang(), [""], [""])
    assert t.is_closed() is None


def test_is_closed_violator_ends_a():
    t = table_for(ends_a(), [""], [""])
    assert t.is_closed() == word("a")


def test_is_consistent_vacuous_when_rows_distinct():
    t = table_for(ends_a(), ["", "a"], [""])
    assert t.is_consistent() is None


def test_is_consistent_returns_least_context():
    # L = {b}: rows of eps and a agree under eps, but their b-successors split.
    t = table_from_bits(
        ["", "a"],
        [""],
        [[0], [0]],
        blue_bits={word("b"): [1], word("ab"): [0], word("aa"): [0], word("ba"): [0], word("bb"): [0]},
    )
    assert t.is_consistent() == word("b")


def test_single_red_word_is_consistent():
    t = table_for(even_a(), [""], [""])
    assert t.is_consistent() is None


def test_row_includes_reflexive():
    t = cover_table()
    for s in t.red:
        assert row_includes(t, s, s)


def test_row_includes_cover_example_rows():
    t = cover_table()
    s1, s3 = (), word("b")
    assert t.row(s3) == (1, 0, 1, 0, 0)
    assert t.row(s1) == (1, 0, 1, 1, 0)
    assert row_includes(t, s3, s1)
    assert not row_includes(t, s1, s3)


def test_row_coverable_zero_row_with_no_candidates():
    t = table_from_bits(["", "a"], ["", "a"], [[0, 0], [1, 1]])
    assert t.is_row_coverable((), [])


def test_row_coverable_transposed_cover_example():
    t = transposed_cover_table()
    target = ()  # the column labeled e read as a row: (1, 1, 1, 0)
    candidates = [word("a"), word("b"), word("aa")]
    assert t.row(target) == (1, 1, 1, 0)
    assert [t.row(c) for c in candidates] == [(0, 1, 0, 0), (1, 0, 1, 0), (1, 1, 0, 0)]
    assert t.is_row_coverable(target, candidates)


def test_row_not_coverable_with_unique_one():
    t = table_from_bits(["", "a"], ["", "a"], [[1, 0], [0, 1]])
    assert not t.is_row_coverable((), [word("a")])


def test_ncov_red_single_row():
    t = table_for(universal_lang(), [""], [""])
    assert t.ncov_red() == ((),)


def test_ncov_red_or_decomposition():
    t = table_from_bits(["", "a", "b"], ["", "a"], [[1, 0], [0, 1], [1, 1]])
    assert t.ncov_red() == ((), word("a"))


def test_ncov_red_keeps_strictly_larger_row():
    t = table_from_bits(["", "a"], ["", "a"], [[1, 0], [1, 1]])
    assert t.ncov_red() == ((), word("a"))


def test_rfsa_closed_when_blue_duplicated():
    t = table_for(even_a(), ["", "a"], ["", "a"])
    assert t.is_rfsa_closed() is None


def test_rfsa_closed_violation_and_cover():
    bad = table_from_bits(
        ["", "a"],
        ["", "a"],
        [[1, 0], [1, 0]],
        blue_bits={word("aa"): [1, 1], word("ab"): [0, 0], word("b"): [0, 0]},
    )
    assert bad.is_rfsa_closed() == word("aa")
    good = table_from_bits(
        ["", "a"],
        ["", "a"],
        [[1, 0], [0, 1]],
        blue_bits={word("aa"): [1, 1], word("ab"): [0, 0], word("b"): [0, 0]},
    )
    assert good.is_rfsa_closed() is None


def test_rfsa_consistent_vacuous_for_incomparable_rows():
    t = table_from_bits(["", "a"], ["", "a"], [[1, 0], [0, 1]])
    assert t.is_rfsa_consistent() is None


def test_rfsa_consistent_violation_returns_context():
    t = table_from_bits(
        ["", "a"],
        [""],
        [[0], [0]],
        blue_bits={word("aa"): [1], word("ab"): [0], word("b"): [0], word("ba"): [0], word("bb"): [0]},
    )
    # row(eps) == row(a) so each includes the other, but obs(a·a, eps) = 1
    # while obs(eps·a... wait: the violating pair is (a, eps) via symbol a.
    assert t.is_rfsa_consistent() == word("a")


def test_lstar_final_tables_are_rfsa_closed():
    from rfsalearn.learners import lstar_col

    for lang in (even_a(), ends_a()):
        res = lstar_col(TeacherSession(lang))
        table = res.final_table
        assert table.is_closed() is None and table.is_consistent() is None
        assert len({table.row(s) for s in table.red}) == len(table.red)
        assert table.is_rfsa_closed() is None


# ------------------------------------------------------------- column covers


def test_column_coverable_exactly_e_in_cover_example():
    t = cover_table()
    expected = {(): True, word("a"): False, word("ab"): False, word("bb"): False, word("ba"): False}
    for e, value in expected.items():
        assert t.is_column_coverable(e) == value


def test_column_coverable_e4_or_is_too_small():
    t = cover_table()
    assert not t.is_column_coverable(word("ba"))


def test_column_coverable_all_zero_column():
    t = table_from_bits(["", "a"], ["", "a"], [[1, 0], [1, 0]])
    assert t.is_column_coverable(word("a"))


def test_column_coverable_unknown_context():
    with pytest.raises(InputError):
        cover_table().is_column_coverable(word("zz"))


# ----------------------------------------------------- exhaustive cover oracle


def oracle_coverable(target, vectors):
    """Exhaustive search for a covering set among the other distinct vectors."""
    others = [v for v in set(vectors) if v != target]
    for size in range(len(others) + 1):
        for combo in itertools.combinations(others, size):
            joined = tuple(max(bits) if bits else 0 for bits in zip(*combo)) if combo else tuple(
                0 for _ in target
            )
            if joined == target:
                return True
    return False


def test_row_and_column_coverability_match_oracle_small():
    t = cover_table()
    red = list(t.red)
    for s in red:
        vectors = [t.row(r) for r in red if r != s]
        assert t.is_row_coverable(s, [r for r in red if r != s]) == oracle_coverable(
            t.row(s), vectors
        )
    for e in t.contexts:
        column = tuple(t.obs(s, e) for s in red)
        others = [tuple(t.obs(s, e2) for s in red) for e2 in t.contexts if e2 != e]
        assert t.is_column_coverable(e) == oracle_coverable(column, others)


# ------------------------------------------------------------------ mutations


def test_mutations_keep_structure():
    lang = ends_a()
    session = TeacherSession(lang)
    t = ObservationTable(lang.alphabet)
    t.fill(session)
    t.add_red(word("a"))
    t.fill(session)
    t.add_context(word("ba"))
    t.fill(session)
    red = set(t.red)
    for s in red:
        assert s == () or s[:-1] in red
    expected_blue = [r + (a,) for r in t.red for a in t.alphabet if r + (a,) not in red]
    assert list(t.blue) == expected_blue
    for s in t.words():
        for e in t.contexts:
            assert t.obs(s, e) == int(lang.accepts(s + e))


def test_unset_cells_after_add_context_raise_until_filled():
    lang = ends_a()
    t = ObservationTable(lang.alphabet)
    t.fill(TeacherSession(lang))
    before = {s: t.row(s) for s in t.words()}
    t.add_context(word("b"))
    for s in t.words():
        with pytest.raises(ContractError):
            t.obs(s, word("b"))
        with pytest.raises(ContractError):
            t.row(s)
        assert t.obs(s, ()) == before[s][0]
    assert t.dump() == "\t^\tb\n^\t0\tNone\n--\na\t1\tNone\nb\t0\tNone\n"


def test_unset_cells_after_add_red_raise_until_filled():
    lang = ends_a()
    t = ObservationTable(lang.alphabet)
    t.fill(TeacherSession(lang))
    before = {s: t.row(s) for s in t.words()}
    t.add_red(word("a"))
    fresh = [s for s in t.words() if s not in before]
    assert fresh == [word("aa"), word("ab")]
    for s in fresh:
        with pytest.raises(ContractError):
            t.obs(s, ())
        with pytest.raises(ContractError):
            t.row(s)
    for s, bits in before.items():
        assert t.row(s) == bits
        assert t.obs(s, ()) == bits[0]


def test_add_red_requires_prefix():
    t = ObservationTable(AB)
    with pytest.raises(ContractError):
        t.add_red(word("ab"))


def test_mutations_reject_foreign_symbols():
    lang = ends_a()
    t = ObservationTable(lang.alphabet)
    t.fill(TeacherSession(lang))
    before = t.dump()
    with pytest.raises(ContractError):
        t.add_red(("z",))
    with pytest.raises(InputError, match="^symbol 'q' not in alphabet$"):
        t.add_context(("a", "q"))
    assert t.dump() == before and t.contexts == ((),)
    teacher = RecordingTeacher(lang)
    t.fill(teacher)
    assert teacher.asked == []


def test_rows_without_contexts_have_no_unset_cells():
    t = table_from_bits([""], [], [[]])
    t.add_red(word("a"))
    assert t.is_closed() is None
    assert t.dump() == "\n^\na\n--\nb\naa\nab\n"


def test_add_context_counts_cells():
    lang = even_a()
    session = TeacherSession(lang)
    t = ObservationTable(lang.alphabet)
    t.fill(session)
    before = session.stats.mq_total
    t.add_context(word("ab"))
    t.fill(session)
    assert session.stats.mq_total - before == len(t.words())


def test_add_context_idempotent():
    lang = even_a()
    session = TeacherSession(lang)
    t = ObservationTable(lang.alphabet)
    t.fill(session)
    before = session.stats.mq_total
    t.add_context(())
    t.fill(session)
    assert session.stats.mq_total == before


def test_fill_never_requeries_cells():
    lang = even_a()
    session = TeacherSession(lang)
    t = ObservationTable(lang.alphabet)
    t.fill(session)
    count = session.stats.mq_total
    t.fill(session)
    assert session.stats.mq_total == count


def test_add_red_then_fill_queries_only_new_cells():
    lang = even_a()
    session = TeacherSession(lang)
    t = ObservationTable(lang.alphabet)
    t.fill(session)
    before = session.stats.mq_total
    t.add_red(word("a"))
    t.fill(session)
    # two fresh blue words, one context
    assert session.stats.mq_total - before == 2


# ----------------------------------------------------------------- derivation


def test_derive_dfa_universal_language():
    t = table_for(universal_lang(), [""], [""])
    auto = derive_dfa(t)
    assert auto.n_states == 1
    assert auto.accepts(word("abab"))


def test_derive_dfa_requires_closed():
    t = table_for(ends_a(), [""], [""])
    with pytest.raises(ContractError):
        derive_dfa(t)


def test_derive_dfa_even_a_matches_minimal():
    t = table_for(even_a(), ["", "a"], [""])
    assert isomorphic(minimize(derive_dfa(t)), minimize(even_a()))


def test_derive_dfa_with_reps_needs_the_empty_context_first():
    # Neither closed nor holding the empty context: the context check comes first.
    t = table_for(ends_a(), [""], ["a"])
    with pytest.raises(ContractError, match="^the empty context is required$"):
        derive_dfa_with_reps(t)


def test_derive_dfa_with_reps_needs_a_closed_table():
    with pytest.raises(ContractError, match="^table is not closed$"):
        derive_dfa_with_reps(table_for(ends_a(), [""], [""]))
    # Closedness is checked before RED is asked for ε.
    t = ObservationTable._build(AB, [word("a")], [()], lambda words: [int(w == word("aa")) for w in words])
    with pytest.raises(ContractError, match="^table is not closed$"):
        derive_dfa_with_reps(t)


def test_derive_dfa_with_reps_needs_a_consistent_table():
    # Closed, but ε and a share a row while their a-successors a and aa do not.
    t = table_from_bits(["", "a", "aa"], [""], [[0], [0], [1]])
    assert t.is_closed() is None
    with pytest.raises(ContractError, match="^table is not consistent$"):
        derive_dfa_with_reps(t)


def test_derive_dfa_with_reps_needs_the_empty_word_red():
    # Closed and consistent, but RED lacks ε (a reduction may drop it).
    t = ObservationTable._build(AB, [word("a")], [()], lambda words: [0] * len(words))
    assert t.is_closed() is None and t.is_consistent() is None
    with pytest.raises(ContractError, match="^red must contain the empty word$"):
        derive_dfa_with_reps(t)


@st.composite
def mask_tables(draw):
    width = draw(st.integers(0, 12))
    masks = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
    return masks, width


@given(mask_tables())
@settings(max_examples=300, deadline=None)
def test_transpose_matches_bit_loop_reference(example):
    masks, width = example
    columns = _transpose(masks, width)
    assert columns == reference_transpose(masks, width)
    assert _transpose(columns, len(masks)) == masks


def test_transpose_edge_shapes():
    assert _transpose([], 0) == []
    assert _transpose([0, 0, 0], 0) == []
    assert _transpose([], 3) == [0, 0, 0]
    assert _transpose([0b101], 3) == [1, 0, 1]
    assert _transpose([0b101], 5) == [1, 0, 1, 0, 0]
    for n in range(1, 9):
        # Every mask of width n, once each: 2^n rows.
        masks = list(range(1 << n))
        columns = _transpose(masks, n)
        assert columns == reference_transpose(masks, n)
        assert _transpose(columns, len(masks)) == masks


# -------------------------------------------------------------- modifications


def test_apply_modifications_fixpoint_table():
    t = table_for(even_a(), ["", "a"], ["", "a"])
    m = apply_modifications(t)
    assert list(m.table.red) == [(), word("a")]
    assert list(m.table.contexts) == [(), word("a")]
    assert m.eps_obs == {(): 1, word("a"): 0}


def test_apply_modifications_removes_covered_column():
    # contexts labeled so the coverable column sits under the empty context;
    # blue rows duplicate the first red row so the table is closed
    red = ["", "a", "b", "aa"]
    contexts = ["", "a", "ab", "bb", "ba"]
    blue = {
        word(s): list(COVER_ROWS[0])
        for s in ("ab", "ba", "bb", "aaa", "aab")
    }
    t = table_from_bits(red, contexts, COVER_ROWS, blue_bits=blue)
    m = apply_modifications(t)
    kept = list(m.table.contexts)
    assert () not in kept
    assert set(kept) == {word("a"), word("ab"), word("bb"), word("ba")}
    # pre-reduction empty-context bits survive
    assert m.eps_obs == {(): 1, word("a"): 1, word("b"): 1, word("aa"): 0}


def test_apply_modifications_drops_zero_rows_and_columns():
    t = table_from_bits(
        ["", "a"],
        ["", "a"],
        [[1, 0], [0, 0]],
        blue_bits={word("aa"): [1, 0], word("ab"): [0, 0], word("b"): [1, 0]},
    )
    m = apply_modifications(t)
    assert list(m.table.red) == [()]
    assert list(m.table.contexts) == [()]


def test_modifications_output_invariants():
    from rfsalearn.learners import two_step_reversal

    for lang in (even_a(), ends_a()):
        session = TeacherSession(lang)
        res = two_step_reversal(session)
        reduced = res.final_table.table
        rows = [reduced.row(s) for s in reduced.red]
        cols = [tuple(reduced.obs(s, e) for s in reduced.red) for e in reduced.contexts]
        assert all(any(r) for r in rows)
        assert all(any(c) for c in cols)
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)
        assert not any(reduced.is_column_coverable(e) for e in reduced.contexts)


def test_even_a_reversal_reduction_keeps_two_columns():
    from rfsalearn.learners import two_step_reversal

    res = two_step_reversal(TeacherSession(even_a()))
    assert len(res.final_table.table.contexts) == 2


def zero_row_and_column_table():
    return table_from_bits(
        ["", "a"],
        ["", "a"],
        [[0, 0], [1, 0]],
        blue_bits={word("aa"): [1, 0], word("ab"): [0, 0], word("b"): [0, 0]},
    )


def test_drop_zero_rows_and_columns():
    reduced = drop_zero_rows_and_columns(zero_row_and_column_table())
    assert list(reduced.red) == [word("a")]
    assert list(reduced.contexts) == [()]


def table_view(table):
    """RED, BLUE, contexts and every row as a bit tuple."""
    return list(table.red), list(table.blue), list(table.contexts), {w: table.row(w) for w in table.words()}


def reference_restrict(table, red, positions):
    """``table_view`` of the restriction of ``table``, read off its bit lists."""
    red = [tuple(s) for s in red]
    blue = [r + (a,) for r in red for a in table.alphabet if r + (a,) not in red]
    rows = {w: tuple(table.row(w)[j] for j in positions) for w in red + blue}
    return red, blue, [table.contexts[j] for j in positions], rows


def reference_drop_zero_rows_and_columns(table):
    width = len(table.contexts)
    red = [s for s in table.red if any(table.row(s))]
    used = [j for j in range(width) if any(table.row(w)[j] for w in table.words())]
    return reference_restrict(table, red, used)


def reduction_tables():
    """One table whose columns are all used, one with an all-zero row and column."""
    every_used = table_for(third_from_end_a(), ["", "a", "aa", "ab", "b"], ["", "a", "b", "ab", "bb"])
    return every_used, zero_row_and_column_table()


def test_drop_zero_rows_and_columns_matches_bit_list_reference():
    every_used, one_unused = reduction_tables()
    for table, kept in ((every_used, 5), (one_unused, 1)):
        reduced = drop_zero_rows_and_columns(table)
        assert len(reduced.contexts) == kept
        assert table_view(reduced) == reference_drop_zero_rows_and_columns(table)


def test_restrict_matches_bit_list_reference():
    for table in reduction_tables():
        width = len(table.contexts)
        red = table.red[:2]
        for positions in (list(range(width)), list(range(width))[::-1], [0, width - 1]):
            restricted = _restrict(table, red, positions)
            assert table_view(restricted) == reference_restrict(table, red, positions)


@st.composite
def restrictions(draw):
    """A random filled table, a subset of its RED and its context positions.

    The positions are a shuffled subset, as ``apply_modifications`` passes
    its kept columns in length-lex order, or every position in place.
    """
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    word_ = st.lists(st.sampled_from(alphabet), max_size=3).map(tuple)
    red = {()}
    for w in draw(st.lists(word_, max_size=6)):
        red |= {w[:i] for i in range(len(w) + 1)}
    red = sorted(red, key=lambda w: (len(w), w))
    contexts = draw(st.lists(word_, min_size=1, max_size=8, unique=True))
    width = len(contexts)
    rows = {
        s: draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
        for s in red + [r + (a,) for r in red for a in alphabet]
    }
    table = ObservationTable.from_rows(alphabet, red, contexts, rows)
    kept_red = draw(st.lists(st.sampled_from(red), unique=True))
    if draw(st.booleans()):
        positions = list(range(width))
    else:
        order = draw(st.permutations(range(width)))
        positions = order[: draw(st.integers(0, width))]
    return table, kept_red, positions


@given(restrictions())
@settings(max_examples=200, deadline=None)
def test_restrict_matches_bit_list_reference_on_random_tables(example):
    table, red, positions = example
    restricted = _restrict(table, red, positions)
    assert table_view(restricted) == reference_restrict(table, red, positions)
    assert not restricted._pending


def test_drop_zero_rows_and_columns_rejects_an_unfilled_table():
    t = ObservationTable(AB)
    t.fill(TeacherSession(even_a()))
    t.add_red(word("a"))  # new blue rows aa and ab have unset cells
    with pytest.raises(ContractError, match=r"^row \('a', 'a'\) not fully filled$"):
        drop_zero_rows_and_columns(t)
    t.add_context(word("b"))  # now every row has one
    with pytest.raises(ContractError, match=r"^row \(\) not fully filled$"):
        drop_zero_rows_and_columns(t)


# -------------------------------------------------------------------- deriving


def test_derive_rfsa_deterministic_shaped_table():
    from rfsalearn.automata import determinize

    t = table_for(even_a(), ["", "a"], ["", "a"])
    nfa = derive_rfsa(t)
    assert isomorphic(minimize(determinize(nfa)), minimize(even_a()))


def test_derive_rfsa_checks_the_table_before_an_empty_answer():
    # Every row is zero, so the language read off would be empty; the table
    # must still hold ε as a context and in RED, for both derivations alike.
    # The context is asked for first, also of a table that fails a condition:
    # row(a) is non-coverable and not red, so that one is not RFSA-closed.
    no_eps_context = ObservationTable.from_rows(AB, [()], [("a",)], {(): [0], ("a",): [0], ("b",): [0]})
    not_closed = ObservationTable.from_rows(AB, [()], [("a",)], {(): [0], ("a",): [1], ("b",): [0]})
    assert not_closed.is_rfsa_closed() == word("a")
    no_eps_red = ObservationTable._build(AB, [word("a")], [()], lambda words: [0] * len(words))
    for derive in (derive_dfa, derive_rfsa):
        for table in (no_eps_context, not_closed):
            with pytest.raises(ContractError, match="^the empty context is required$"):
                derive(table)
        with pytest.raises(ContractError, match="^red must contain the empty word$"):
            derive(no_eps_red)


def test_derive_rfsa_requires_conditions():
    bad = table_from_bits(
        ["", "a"],
        ["", "a"],
        [[1, 0], [1, 0]],
        blue_bits={word("aa"): [1, 1], word("ab"): [0, 0], word("b"): [0, 0]},
    )
    with pytest.raises(ContractError):
        derive_rfsa(bad)


# ----------------------------------------------------------------------- dump


def test_dump_format():
    t = table_for(even_a(), [""], [""])
    expected = "\t^\n^\t1\n--\na\t0\nb\t1\n"
    assert t.dump() == expected


# ------------------------------------------------- length-lex order of words

# Multi-character symbols: "a"·"ba" and "ab"·"a" spell the same string, and
# "a"·"bb" spells a later string than "ab"·"a" but comes first by symbol rank.
MULTI = ("bb", "ba", "a", "b", "ab")


def multi_letter_lang():
    """Words whose symbol weights sum to 0 mod 3, over MULTI."""
    weight = {"a": 1, "ab": 2, "b": 0, "ba": 1, "bb": 2}
    arcs = [(q, a, (q + w) % 3) for q in range(3) for a, w in weight.items()]
    return Automaton(MULTI, 3, {0}, {0}, arcs)


def rank_key(alphabet):
    """Length-lex key through each symbol's rank in the sorted alphabet."""
    rank = {a: i for i, a in enumerate(sorted(alphabet))}
    return lambda w: (len(w), tuple(rank[a] for a in w))


def reference_least_per_value(words, value, key):
    least = {}
    for w in words:
        v = value(w)
        if v not in least or key(w) < key(least[v]):
            least[v] = w
    return sorted(least.values(), key=key)


def random_tables(lang, count, seed):
    """Tables over random prefix-closed RED lists and random context lists."""
    rng = random.Random(seed)
    contexts = list(all_words(lang.alphabet, 2))
    for _ in range(count):
        red = [()]
        for _ in range(rng.randrange(1, 8)):
            w = rng.choice(red) + (rng.choice(lang.alphabet),)
            if w not in red:
                red.append(w)
        yield table_for(lang, red, rng.sample(contexts, rng.randrange(1, 5)))


def test_table_key_orders_multi_letter_words_by_symbol_rank():
    # RED lists "ab" first, so its blue words come first in stored order.
    red = [(), ("ab",), ("a",)]
    blue = {("ab", "a"): [1], ("a", "ba"): [1], ("a", "bb"): [1]}
    t = table_from_bits(red, [()], [[0], [0], [0]], blue, alphabet=MULTI)
    assert t.is_closed() == ("a", "ba")
    words = [("ab", "a"), ("a", "bb")]
    assert list(_least_per_value(words, len).values()) == [("a", "bb")]


def test_table_key_picks_the_rank_reference_violators():
    for lang in (ends_a(), even_a(), third_from_end_a(), multi_letter_lang()):
        key = rank_key(lang.alphabet)
        for t in random_tables(lang, 40, seed=7):
            red_rows = {t.row(s) for s in t.red}
            violators = [s for s in t.blue if t.row(s) not in red_rows]
            assert t.is_closed() == min(violators, key=key, default=None)
            violators = [s for s in violators if not t.is_row_coverable(s, t.words())]
            assert t.is_rfsa_closed() == min(violators, key=key, default=None)
            reps = reference_least_per_value(t.red, t.row, key)
            assert t.ncov_red() == tuple(s for s in reps if not t.is_row_coverable(s, t.words()))


def test_consistency_checks_match_brute_force_reference():
    fixes = {False: 0, True: 0}
    for lang in (ends_a(), even_a(), third_from_end_a(), multi_letter_lang()):
        for t in random_tables(lang, 40, seed=11):
            for rfsa, check in ((False, t.is_consistent), (True, t.is_rfsa_consistent)):
                expected = reference_consistency_fix(t, rfsa)
                assert check() == expected
                fixes[rfsa] += expected is not None
    assert all(fixes.values())  # the tables do break both conditions


def test_consistency_checks_need_a_filled_table_once_rows_are_related():
    # ε and a share a row and their filled a-extensions give a fix, but the
    # extension rows of the newly promoted b (a row of its own) are unset.
    t = table_from_bits(["", "a", "aa"], ["", "b"], [[0, 0], [0, 0], [1, 0]], {word("b"): [0, 1]})
    t.add_red(word("b"))
    for check in (t.is_consistent, t.is_rfsa_consistent):
        with pytest.raises(ContractError, match=r"^row \('b', 'a'\) not fully filled$"):
            check()


def test_table_key_picks_the_rank_reference_representatives():
    for lang in (third_from_end_a(), multi_letter_lang()):
        key = rank_key(lang.alphabet)
        session = TeacherSession(lang)
        table = lstar_col(session).final_table
        # More contexts keep a learned table closed and consistent, and give
        # it equal columns to choose among.
        for e in all_words(lang.alphabet, 2):
            table.add_context(e)
        table.fill(session)
        words = sorted(table.words(), key=lambda w: (-len(w), w))
        least = _least_per_value(words, table.row)
        assert list(least.values()) == reference_least_per_value(words, table.row, key)

        red1 = reference_least_per_value(table.red, table.row, key)

        def column(e):
            return tuple(table.obs(s, e) for s in red1)

        cols1 = reference_least_per_value(table.contexts, column, key)
        assert len(cols1) < len(table.contexts)
        reduced = apply_modifications(table).table
        assert [s for s in red1 if s in reduced.red] == list(reduced.red)
        assert [e for e in cols1 if e in reduced.contexts] == list(reduced.contexts)


# ------------------------------------------------------ structural invariants


def test_obviously_different_symmetry_and_row_equality():
    t = cover_table()
    for r in t.words():
        for s in t.words():
            assert obviously_different(t, r, s) == obviously_different(t, s, r)
            assert obviously_different(t, r, s) == (t.row(r) != t.row(s))


def test_row_inclusion_is_a_preorder():
    t = cover_table()
    words_all = list(t.words())
    for r in words_all:
        assert row_includes(t, r, r)
    for r in words_all:
        for s in words_all:
            for u in words_all:
                if row_includes(t, r, s) and row_includes(t, s, u):
                    assert row_includes(t, r, u)
            if row_includes(t, r, s) and row_includes(t, s, r):
                assert t.row(r) == t.row(s)


def test_reduction_keeps_row_language_minus_failure_state():
    from rfsalearn.automata import shortest_difference_witness
    from rfsalearn.tables import modified_row_automaton

    # starts-with-a has a failure state; its row vanishes in the reduction but
    # the row automaton keeps the language
    lang = __import__("helpers").starts_a()
    t = table_for(lang, ["", "a", "b"], ["", "a"])
    full = derive_dfa(t)
    m = apply_modifications(t)
    inner = modified_row_automaton(m)
    assert inner.n_states == full.n_states - 1
    assert shortest_difference_witness(inner, full) is None


def test_reduction_keeps_row_language_on_learned_tables():
    from rfsalearn.automata import shortest_difference_witness
    from rfsalearn.learners import two_step_reversal
    from rfsalearn.tables import modified_row_automaton

    for lang in (even_a(), ends_a(), __import__("helpers").starts_a()):
        session = TeacherSession(lang)
        res = two_step_reversal(session)
        inner = modified_row_automaton(res.final_table)
        # the row automaton accepts the reversal of the target language
        from rfsalearn.automata import reverse_automaton

        assert shortest_difference_witness(reverse_automaton(inner), lang) is None


# ------------------------------------------- incremental table vs full rescan


class HashedLanguage:
    """A language with no finite structure: a word's membership is a seeded hash of it.

    Its rows are near-random bit vectors, so rows often lie inside one
    another and one row is often the OR of others: the cases the
    incremental non-coverable set must get right.
    """

    def __init__(self, alphabet, seed):
        self.alphabet = alphabet
        self.seed = seed

    def accepts(self, w):
        return zlib.crc32(repr((self.seed, w)).encode()) & 1


@st.composite
def table_scripts(draw):
    """A random target and a random sequence of table mutations.

    The target is a total DFA or a ``HashedLanguage``.  Alphabets have 1-3
    letters or are the multi-character ``MULTI``.  A step is ``("fill",)``,
    ``("violator", name)`` (promote the least violator of the closedness
    predicate ``name``, if the table is filled and has one), ``("close",)``
    (fill and promote ``is_closed`` violators until closed, at most 12
    times), ``("promote", i)`` (promote the ``i``-th row word modulo the row
    count: a no-op for a red word, possibly before its row is filled),
    ``("context", e)`` or ``("rebuild",)`` (replace a filled table by
    ``from_rows`` of its red words, contexts and rows, so that later steps
    mutate a table built by ``_build``).  Last comes the order in which the
    predicates are compared after each step.
    """
    alphabet = draw(st.sampled_from([("a",), ("a", "b"), ("a", "b", "c"), MULTI]))
    if draw(st.booleans()):
        target = HashedLanguage(alphabet, draw(st.integers(0, 2**16)))
    else:
        n = draw(st.integers(1, 6))
        arcs = [(q, a, draw(st.integers(0, n - 1))) for q in range(n) for a in alphabet]
        target = Automaton(alphabet, n, {0}, draw(st.sets(st.integers(0, n - 1))), arcs)
    step = st.one_of(
        st.just(("fill",)),
        st.tuples(st.just("violator"), st.sampled_from(["is_closed", "is_rfsa_closed"])),
        st.just(("close",)),
        st.tuples(st.just("promote"), st.integers(0, 63)),
        st.tuples(st.just("context"), st.lists(st.sampled_from(alphabet), max_size=3).map(tuple)),
        st.just(("rebuild",)),
    )
    return target, draw(st.lists(step, max_size=30)), draw(st.permutations(PREDICATES))


PREDICATES = ("is_closed", "is_consistent", "is_rfsa_closed", "is_rfsa_consistent", "ncov_red")


def outcome(predicate):
    """``predicate()``'s answer, or the message of the ``ContractError`` it raised."""
    try:
        return predicate()
    except ContractError as exc:
        return str(exc)


@given(table_scripts())
@settings(max_examples=300, deadline=None)
def test_incremental_table_matches_full_rescan_reference(script):
    target, steps, predicates = script
    table, reference = ObservationTable(target.alphabet), ReferenceTable(target.alphabet)
    teacher, reference_teacher = RecordingTeacher(target), RecordingTeacher(target)

    def apply(step):
        nonlocal table
        if step[0] == "fill":
            table.fill(teacher)
            reference.fill(reference_teacher)
        elif step[0] == "promote":
            w = reference.words()[step[1] % len(reference.words())]
            table.add_red(w)
            reference.add_red(w)
        elif step[0] == "context":
            table.add_context(step[1])
            reference.add_context(step[1])
        elif step[0] == "rebuild" and not table._pending:
            rows = {w: table.row(w) for w in table.words()}
            table = ObservationTable.from_rows(table.alphabet, table.red, table.contexts, rows)
        assert table.blue == tuple(reference.blue)
        assert table.words() == reference.words()
        for name in predicates:
            expected = outcome(getattr(reference, name))
            # The second call on the unchanged table answers from what the first kept.
            assert outcome(getattr(table, name)) == expected
            assert outcome(getattr(table, name)) == expected
        assert table.dump() == reference.dump()
        assert teacher.asked == reference_teacher.asked

    def promote_violator(name="is_closed"):
        violator = outcome(getattr(reference, name))
        if isinstance(violator, tuple):
            apply(("promote", reference.words().index(violator)))
        return violator

    for step in steps + [("close",)]:
        if step[0] == "violator":
            promote_violator(step[1])
        elif step[0] == "close":
            for _ in range(12):
                apply(("fill",))
                if promote_violator() is None:
                    break
        else:
            apply(step)
