import gc
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    AB,
    all_words,
    empty_lang,
    ends_a,
    even_a,
    minimal_dfas,
    nfa_ends_a,
    nth_from_end_nfa,
    reference_includes,
    reference_is_total,
    reference_isomorphic,
    reference_mask_union,
    renumbered,
    starts_a,
    universal_lang,
)
from rfsalearn.automata import (
    Automaton,
    ContractError,
    InputError,
    ParseError,
    _first_hit,
    _forward_side,
    _ResidualOrder,
    _reversed_side,
    determinize,
    determinize_labeled,
    format_automaton,
    isomorphic,
    least_difference,
    least_words,
    mask_union,
    minimize,
    parse_automaton,
    reverse_automaton,
    reverse_word,
    shortest_difference_witness,
    trim,
    word,
)
from rfsalearn.learners import lstar_col, nlstar
from rfsalearn.residuals import residual_index
from rfsalearn.teacher import TeacherSession


# ----------------------------------------------------------------- run/accepts


def test_run_empty_word_is_identity():
    a = even_a()
    assert a.run({0}, ()) == frozenset({0})
    assert a.run({0, 1}, ()) == frozenset({0, 1})


def test_run_even_a_hand_simulation():
    assert even_a().run({0}, word("aba")) == frozenset({0})


def test_run_missing_transition_gives_empty_set():
    partial = Automaton(("a", "b"), 2, {0}, {1}, [(0, "a", 1)])
    assert partial.run({0}, word("b")) == frozenset()


def test_run_rejects_foreign_symbol():
    with pytest.raises(InputError):
        even_a().run({0}, ("c",))


def test_accepts_empty_language_rejects_everything():
    a = empty_lang()
    for w in all_words(("a", "b"), 3):
        assert not a.accepts(w)


def test_accepts_even_a_hand_values():
    a = even_a()
    assert a.accepts(word("aa"))
    assert not a.accepts(word("a"))


def test_accepts_epsilon_iff_initial_meets_final():
    assert even_a().accepts(())
    assert not ends_a().accepts(())


def test_accepts_from():
    a = even_a()
    assert a.accepts_from(0, ())
    assert a.accepts_from(1, word("a"))
    assert not a.accepts_from(1, ())
    with pytest.raises(InputError):
        a.accepts_from(5, ())


def test_run_and_accepts_from_reject_bad_source_states():
    a = even_a()
    for q in ("x", 1.5, None, -1, a.n_states):
        message = re.escape(f"state id {q!r} out of range 0..1")
        with pytest.raises(InputError, match=message):
            a.run((q,), ())
        with pytest.raises(InputError, match=message):
            a.run([0, q], word("a"))
        with pytest.raises(InputError, match=message):
            a.accepts_from(q, word("a"))


def test_accepts_from_useless_state_is_false():
    a = Automaton(("a",), 2, {0}, {0}, [(1, "a", 1)])
    for w in all_words(("a",), 4):
        assert not a.accepts_from(1, w)


# -------------------------------------------------------------------- reversal


def test_reverse_word():
    assert reverse_word(()) == ()
    assert reverse_word(word("ab")) == word("ba")


@given(st.lists(st.sampled_from("ab"), max_size=8))
def test_reverse_word_involution(symbols):
    w = tuple(symbols)
    assert reverse_word(reverse_word(w)) == w


def test_reverse_automaton_ends_a_frozen_values():
    rev = reverse_automaton(ends_a())
    expected = {"": False, "a": True, "b": False, "ab": True, "ba": False}
    for text, value in expected.items():
        assert rev.accepts(word(text)) == value


def test_reverse_automaton_agrees_with_word_reversal():
    for a in (even_a(), ends_a(), nfa_ends_a(), empty_lang()):
        rev = reverse_automaton(a)
        for w in all_words(a.alphabet, 6):
            assert rev.accepts(w) == a.accepts(reverse_word(w))


def test_reverse_twice_preserves_language():
    a = ends_a()
    twice = reverse_automaton(reverse_automaton(a))
    assert shortest_difference_witness(a, twice) is None


def test_reverse_of_empty_language():
    assert shortest_difference_witness(reverse_automaton(empty_lang()), empty_lang()) is None


# --------------------------------------------------------------- determinize


def test_determinize_nfa_ends_a_subsets():
    det, labels = determinize_labeled(nfa_ends_a())
    assert det.n_states == 2
    assert labels == (frozenset({0}), frozenset({0, 1}))
    assert det.is_deterministic and det.is_total
    assert det.final == frozenset({1})


def test_determinize_preserves_language():
    for a in (even_a(), nfa_ends_a(), empty_lang()):
        det = determinize(a)
        for w in all_words(a.alphabet, 6):
            assert det.accepts(w) == a.accepts(w)


def test_determinize_empty_initial():
    a = Automaton(("a", "b"), 2, set(), {1}, [(0, "a", 1)])
    det = determinize(a)
    assert det.final == frozenset()
    assert not det.accepts(word("a"))


def _with_unreachable(dfa, to=0):
    """``dfa`` plus a state n that nothing leads to; its arcs go to ``to``, or to itself if None."""
    n = dfa.n_states
    to = n if to is None else to
    arcs = [(q, a, t) for q, a, ts in dfa.transitions for t in ts] + [(n, a, to) for a in dfa.alphabet]
    return Automaton(dfa.alphabet, n + 1, dfa.initial, dfa.final | {n}, arcs)


def _total_dfa_variants(dfa):
    n = dfa.n_states
    yield dfa
    yield renumbered(dfa, list(range(n))[::-1])
    yield renumbered(dfa, [(q + 1) % n for q in range(n)])
    yield renumbered(dfa, [0] + list(range(n - 1, 0, -1)))  # the start keeps 0
    yield _with_unreachable(dfa)
    yield _with_unreachable(dfa, None)


def _walk_order(dfa):
    """The states in the order a breadth-first walk from the start visits them."""
    return [q for q, _ in least_words(dfa.initial, dfa._arcs)]


def _depth_first_order(dfa):
    """The states in the order a depth-first walk from the start visits them."""
    order, stack = [], list(dfa.initial)
    while stack:
        q = stack.pop()
        if q not in order:
            order.append(q)
            stack.extend(r for _, r in reversed(dfa._arcs(q)))
    return order


@given(minimal_dfas())
@settings(max_examples=150, deadline=None)
def test_determinize_equals_the_subset_construction_on_total_dfas(dfa):
    for a in _total_dfa_variants(dfa):
        det = determinize(a)
        assert det == determinize_labeled(a)[0]
        numbered = _walk_order(a) == list(range(a.n_states))
        assert a._numbered == numbered
        assert (det is a) == numbered


def test_numbered_breadth_first_cases():
    assert ends_a()._numbered
    assert not _with_unreachable(ends_a())._numbered
    assert not _with_unreachable(ends_a(), None)._numbered
    assert not renumbered(ends_a(), [1, 0])._numbered
    # No symbols: only state 0 is reached.
    assert Automaton((), 1, {0}, {0}, [])._numbered
    assert not Automaton((), 2, {0}, {0}, [])._numbered
    # An input that is not a total DFA raises on every call and keeps nothing.
    nfa = nfa_ends_a()
    for _ in range(2):
        with pytest.raises(ContractError, match="total deterministic"):
            nfa._numbered
    assert "_numbered" not in vars(nfa)


def test_numbered_rejects_every_automaton_that_is_not_a_total_dfa():
    total = [(0, "a", 1), (0, "b", 0), (1, "a", 1), (1, "b", 0)]
    rejected = {
        "2 successors": Automaton(AB, 2, {0, 1}, {1}, [(0, "a", 0), (0, "b", 0), (0, "a", 1)]),
        "0 successors": Automaton(AB, 2, {1}, {1}, [(0, "a", 1), (0, "b", 0), (1, "a", 1)]),
        "2 initial states": Automaton(AB, 2, {0, 1}, {1}, total),
        "0 initial states": Automaton(AB, 2, set(), {1}, total),
    }
    for message, a in rejected.items():
        for _ in range(2):
            with pytest.raises(ContractError, match=f"total deterministic automaton: .*{message}"):
                a._numbered
        assert "_numbered" not in vars(a)
        # The callers: determinize and minimize rebuild, the oracle refuses.
        assert determinize(a) == determinize_labeled(a)[0]
        assert minimize(a) == minimize(determinize_labeled(a)[0])
        with pytest.raises(ContractError, match="expected a minimal DFA"):
            residual_index(a)
    # A total DFA that starts elsewhere is only misnumbered.
    assert Automaton(AB, 2, {1}, {1}, total)._numbered is False


def test_numbered_breadth_first_is_kept_on_the_automaton():
    dfa = ends_a()
    assert "_numbered" not in vars(dfa)
    assert dfa._numbered
    assert vars(dfa)["_numbered"] is True
    # Not part of the value: equality, hash and repr ignore it.
    fresh = ends_a()
    assert dfa == fresh and hash(dfa) == hash(fresh) and repr(dfa) == repr(fresh)


def test_determinize_returns_the_corpus_targets_as_they_are(corpus):
    # Every bench target is its own canonical minimal DFA, so minimize returns it too.
    nth_start = [minimize(determinize(reverse_automaton(nth_from_end_nfa(n)))) for n in range(6, 10)]
    for target in (*corpus, *nth_end_dfas(), *nth_start):
        assert determinize(target) is target
        assert minimize(target) is target


def test_determinize_rebuilds_what_it_does_not_return():
    rebuilt = (_with_unreachable(ends_a()), renumbered(ends_a(), [1, 0]), renumbered(starts_a(), [0, 2, 1]))
    for a in (*rebuilt, nfa_ends_a()):
        det = determinize(a)
        assert det is not a
        assert det == determinize_labeled(a)[0]


# ------------------------------------------------------------------- minimize


def test_minimize_requires_deterministic():
    # An input that is not a total DFA is determinized first.
    assert minimize(nfa_ends_a()) == minimize(determinize(nfa_ends_a()))


def test_minimize_idempotent():
    # A canonical minimal DFA comes back as the same object.
    for a in (even_a(), ends_a(), empty_lang(), nfa_ends_a(), *nth_end_dfas()):
        m = minimize(a)
        assert minimize(m) is m


def test_minimize_renumbers_a_permuted_minimal_dfa():
    m = minimize(determinize(nth_from_end_nfa(4)))
    n = m.n_states
    flip = n - 1  # q -> n-1-q: still minimal, no longer numbered breadth-first
    permuted = Automaton(
        m.alphabet,
        n,
        {flip - q for q in m.initial},
        {flip - q for q in m.final},
        [(flip - q, a, flip - r) for q, a, ts in m.transitions for r in ts],
    )
    # Numbered depth-first, the start keeps 0 and every state stays reachable
    # and distinct: only the numbering walk tells it from the canonical one.
    order = _depth_first_order(m)
    depth_first = renumbered(m, [order.index(q) for q in range(n)])
    assert depth_first.initial == {0}
    for a in (permuted, depth_first):
        assert not a._numbered
        out = minimize(a)
        assert out is not a and a != m
        assert out == m


@st.composite
def total_dfas(draw):
    """Random total DFAs over 1-3 letters with up to 8 states and any start state."""
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    n = draw(st.integers(1, 8))
    arcs = [(q, a, draw(st.integers(0, n - 1))) for q in range(n) for a in alphabet]
    final = draw(st.sets(st.integers(0, n - 1)))
    return Automaton(alphabet, n, {draw(st.integers(0, n - 1))}, final, arcs)


@given(total_dfas())
@settings(max_examples=150, deadline=None)
def test_minimize_is_idempotent_on_random_dfas(dfa):
    m = minimize(dfa)
    assert minimize(m) is m


def test_minimize_merges_duplicate_state():
    dup = Automaton(
        ("a", "b"),
        3,
        {0},
        {0, 2},
        [(0, "a", 1), (1, "a", 2), (2, "a", 1), (0, "b", 0), (1, "b", 1), (2, "b", 2)],
    )
    m = minimize(dup)
    assert m.n_states == 2
    assert shortest_difference_witness(m, even_a()) is None


def test_minimize_empty_language_single_sink():
    m = minimize(empty_lang())
    assert m.n_states == 1
    assert m.final == frozenset()
    assert m.is_total


def test_minimize_canonical_numbering():
    renumbered = Automaton(
        ("a", "b"), 2, {1}, {0}, [(1, "a", 0), (1, "b", 1), (0, "a", 0), (0, "b", 1)]
    )
    assert minimize(ends_a()) == minimize(renumbered)


def test_minimize_totalizes_partial_input():
    partial = Automaton(("a", "b"), 2, {0}, {1}, [(0, "a", 1)])
    m = minimize(partial)
    assert m.is_total and m.is_deterministic
    assert m.accepts(word("a"))
    assert not m.accepts(word("ab"))


def test_minimize_drops_unreachable_states():
    # State 2 is final and state 3 is partial; neither is reachable, so
    # neither the extra final nor the sink that 3 needs may survive.
    extra = [(2, "a", 2), (2, "b", 3), (3, "a", 2)]
    for base in (even_a(), ends_a(), empty_lang()):
        padded = Automaton(
            base.alphabet, 4, base.initial, base.final | {2}, base.transitions + tuple(extra)
        )
        assert minimize(padded) == minimize(base)


def test_minimize_output_has_distinct_state_languages():
    for a in (even_a(), ends_a(), empty_lang()):
        m = minimize(a)
        n = m.n_states
        for q1 in range(n):
            for q2 in range(q1 + 1, n):
                assert any(
                    m.accepts_from(q1, w) != m.accepts_from(q2, w)
                    for w in all_words(m.alphabet, n)
                )


# ------------------------------------------------------------ transition views


def nth_end_dfas():
    return [minimize(determinize(nth_from_end_nfa(n))) for n in range(3, 7)]


def partial_dfa():
    return Automaton(AB, 2, {0}, {1}, [(0, "a", 1), (0, "b", 0), (1, "a", 1)])


def nfa_fixtures():
    return [nfa_ends_a(), partial_dfa()] + [nth_from_end_nfa(n) for n in range(3, 7)]


def test_delta_is_the_single_successor(corpus):
    for dfa in list(corpus) + nth_end_dfas():
        delta = dfa._delta
        assert len(delta) == len(dfa.alphabet)
        for i, a in enumerate(dfa.alphabet):
            assert len(delta[i]) == dfa.n_states
            for q in range(dfa.n_states):
                assert dfa.step(q, a) == {delta[i][q]}


def test_delta_rejects_nfa_and_partial_input():
    with pytest.raises(ContractError, match="state 0 has 2 successors on 'a'"):
        nfa_ends_a()._delta
    partial = partial_dfa()
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(ContractError, match="state 1 has 0 successors on 'b'"):
            partial._delta
    with pytest.raises(ContractError, match="total deterministic"):
        nth_from_end_nfa(3)._delta


def test_views_leave_equality_and_hash_unchanged(corpus):
    for aut in list(corpus[:20]) + nth_end_dfas() + nfa_fixtures():
        fields = (aut.alphabet, aut.n_states, aut.initial, aut.final, aut.transitions)
        built, plain = Automaton(*fields), Automaton(*fields)
        before = hash(built)
        built._pred_masks
        if built.is_deterministic and built.is_total:
            built._delta
        assert built == plain and plain == built
        assert hash(built) == before == hash(plain)
        assert repr(built) == repr(plain)


def test_minimize_partial_equals_minimize_of_completion(corpus):
    partials = [partial_dfa(), trim(starts_a())]
    partials += [p for p in map(trim, corpus) if not p.is_total]
    assert len(partials) > 10
    for p in partials:
        assert p.is_deterministic and not p.is_total
        assert minimize(p) == minimize(determinize(p))


def test_residual_order_reads_the_cached_delta():
    for base in nth_end_dfas():
        rows = [row for _, row, _ in _ResidualOrder(base).steps]
        assert len(rows) == len(base._delta)
        assert all(row is cached for row, cached in zip(rows, base._delta))


# ----------------------------------------------------------------------- trim


def test_trim_removes_dead_state():
    with_dead = Automaton(
        ("a", "b"),
        3,
        {0},
        {1},
        [(0, "a", 1), (0, "b", 2), (1, "a", 1), (1, "b", 1), (2, "a", 2), (2, "b", 2)],
    )
    t = trim(with_dead)
    assert t.n_states == 2
    for w in all_words(("a", "b"), 6):
        assert t.accepts(w) == with_dead.accepts(w)


def test_trim_empty_language_has_no_states():
    assert trim(empty_lang()).n_states == 0


def test_trim_keeps_total_language():
    for a in (even_a(), ends_a()):
        t = trim(a)
        for w in all_words(("a", "b"), 6):
            assert t.accepts(w) == a.accepts(w)


# -------------------------------------------------------------------- witness


def test_witness_identical_automata():
    assert shortest_difference_witness(even_a(), even_a()) is None


def test_witness_empty_vs_universal_is_epsilon():
    assert shortest_difference_witness(empty_lang(), universal_lang()) == ()


def test_witness_even_a_vs_universal():
    assert shortest_difference_witness(even_a(), universal_lang()) == word("a")


def test_witness_symmetric_absence_and_one_sided():
    pairs = [
        (even_a(), ends_a()),
        (even_a(), universal_lang()),
        (ends_a(), nfa_ends_a()),
    ]
    for a, b in pairs:
        w_ab = shortest_difference_witness(a, b)
        w_ba = shortest_difference_witness(b, a)
        assert (w_ab is None) == (w_ba is None)
        if w_ab is not None:
            assert a.accepts(w_ab) != b.accepts(w_ab)


def test_witness_alphabet_mismatch():
    other = Automaton(("a", "c"), 1, {0}, {0}, [(0, "a", 0), (0, "c", 0)])
    with pytest.raises(InputError):
        shortest_difference_witness(even_a(), other)


# ---------------------------------------------------------------- isomorphism


def test_isomorphic_reflexive():
    assert isomorphic(even_a(), even_a())


def test_isomorphic_state_count_mismatch():
    assert not isomorphic(even_a(), universal_lang())


def test_isomorphic_permutation():
    perm = Automaton(
        ("a", "b"), 2, {1}, {1}, [(1, "a", 0), (0, "a", 1), (1, "b", 1), (0, "b", 0)]
    )
    assert isomorphic(even_a(), perm)


def test_isomorphic_same_size_different_structure():
    assert not isomorphic(even_a(), ends_a())


def _random_automaton(rng):
    """A 2-letter automaton with 0-4 states: a total DFA or an NFA, often without initial or final states.

    Half of those with two states or more get a last state that copies the
    arcs and finality of state 0, so the two accept the same language.
    """
    n = rng.randint(0, 4)
    states = range(n)
    p_initial, p_final = rng.choice((0, 0.3, 0.6)), rng.choice((0, 0.3, 0.6))
    initial = {q for q in states if rng.random() < p_initial}
    final = {q for q in states if rng.random() < p_final}
    if rng.random() < 0.5:
        arcs = [(q, a, rng.randrange(n)) for q in states for a in AB]
    else:
        density = rng.choice((0.2, 0.4, 0.6))
        arcs = [(q, a, t) for q in states for a in AB for t in states if rng.random() < density]
    if n >= 2 and rng.random() < 0.5:
        twin = n - 1
        arcs = [(q, a, t) for q, a, t in arcs if q != twin] + [(twin, a, t) for q, a, t in arcs if q == 0]
        final = final - {twin} | ({twin} if 0 in final else set())
    return Automaton(AB, n, initial, final, arcs)


def _with_one_arc_moved(a, rng):
    """``a`` with the target of one arc drawn again, or ``a`` itself when it has no arcs."""
    arcs = [(q, sym, t) for q, sym, ts in a.transitions for t in ts]
    if arcs:
        i = rng.randrange(len(arcs))
        arcs[i] = arcs[i][:2] + (rng.randrange(a.n_states),)
    return Automaton(AB, a.n_states, a.initial, a.final, arcs)


def test_isomorphic_agrees_with_every_bijection():
    rng = random.Random(27)
    outcomes = {True: 0, False: 0}
    for _ in range(1500):
        a, other = _random_automaton(rng), _random_automaton(rng)
        perm = list(range(a.n_states))
        rng.shuffle(perm)
        permuted = renumbered(a, perm)
        assert isomorphic(a, permuted) and reference_isomorphic(a, permuted)
        for b in (other, _with_one_arc_moved(permuted, rng)):
            expected = reference_isomorphic(a, b)
            assert isomorphic(a, b) == expected == isomorphic(b, a)
            outcomes[expected] += 1
    assert min(outcomes.values()) > 50  # both answers are well covered


def test_isomorphic_leaves_no_reference_cycle(corpus):
    pairs = [(even_a(), renumbered(even_a(), [1, 0])), (even_a(), ends_a())]
    for i, target in enumerate(corpus[:20]):
        pairs.append((target, renumbered(target, list(range(target.n_states))[::-1])))
        pairs.append((target, corpus[i + 1]))
    gc.collect()
    gc.disable()
    try:
        for a, b in pairs:
            isomorphic(a, b)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_checkers_build_no_cached_view(corpus):
    targets = list(corpus[:10])
    hypotheses = [learn(TeacherSession(t)).hypothesis for t in targets for learn in (lstar_col, nlstar)]
    for aut in targets + hypotheses + nfa_fixtures():
        fields = (aut.alphabet, aut.n_states, aut.initial, aut.final, aut.transitions)
        a, b, untouched = (Automaton._from_normal(*fields) for _ in range(3))
        assert isomorphic(a, b)
        trim(a)
        assert set(vars(a)) == set(vars(b)) == set(vars(untouched))


# -------------------------------------------------------------- parse/format


def test_format_parse_round_trip():
    # ``True`` is an accepted state id, kept as the plain int it equals.
    with_bool = Automaton(AB, 2, {True}, {0}, [(True, "a", 0), (0, "b", {True, 0})])
    twin = Automaton(AB, 2, {1}, {0}, [(1, "a", 0), (0, "b", {1, 0})])
    assert repr(with_bool) == repr(twin)
    assert format_automaton(with_bool) == format_automaton(twin)
    for a in (even_a(), ends_a(), nfa_ends_a(), empty_lang(), trim(empty_lang()), with_bool):
        assert parse_automaton(format_automaton(a)) == a


def test_parse_example_with_comment_and_blank():
    text = """# sample machine
alphabet: a b

states: 3
initial: 0
final: 0 2
trans: 0 a 1
trans: 0 b 0
"""
    a = parse_automaton(text)
    assert a.n_states == 3
    assert a.initial == frozenset({0})
    assert a.final == frozenset({0, 2})
    assert a.step(0, "a") == frozenset({1})


def test_parse_multiple_initial_marks_nfa():
    text = "alphabet: a\nstates: 2\ninitial: 0 1\nfinal: 1\ntrans: 0 a 1\n"
    a = parse_automaton(text)
    assert not a.is_deterministic


def test_parse_errors_carry_line_numbers():
    cases = [
        ("alphabet: a\nstates: 1\nbogus: 3\n", 3),
        ("alphabet: a\nstates: 1\nstates: 2\n", 3),
        ("alphabet: a\nstates: 1\ninitial: 4\n", 3),
        ("alphabet: a\nstates: 1\ntrans: 0 z 0\n", 3),
        ("alphabet: a\nstates: x\n", 2),
        ("alphabet: a\ninitial: 0\n", 2),
        ("alphabet: a #b\nstates: 1\ninitial: 0\nfinal:\n", 1),
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert err.value.line == line


def test_parse_error_survives_pickling():
    err = pickle.loads(pickle.dumps(ParseError(3, "expected 'key: value' form")))
    assert isinstance(err, ParseError)
    assert err.line == 3
    assert str(err) == "line 3: expected 'key: value' form"


def test_parse_alphabet_errors_keep_their_messages():
    for text, message in (
        ("alphabet: a b a\nstates: 1\n", "line 1: duplicate alphabet symbol"),
        ("# comment\nalphabet: a #b\nstates: 1\n", "line 2: bad alphabet symbol '#b'"),
    ):
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert str(err.value) == message


def test_parse_repeated_key_messages():
    head = "alphabet: a\nstates: 2\ninitial: 0\nfinal: 1\ntrans: 0 a 1\ntrans: 1 a 1\n"
    for line in ("alphabet: a", "states: 2", "initial: 0", "final: 1"):
        key = line.partition(":")[0]
        with pytest.raises(ParseError) as err:
            parse_automaton(head + line + "\n")
        assert str(err.value) == f"line 7: duplicate {key}: line"
    # Only ``trans:`` may repeat.
    assert parse_automaton(head).step(1, "a") == frozenset({1})


def test_parse_value_errors_name_their_line():
    for text, line, message in (
        ("alphabet: a\nstates: 2\ninitial: 0 0\n", 3, "duplicate state id"),
        ("alphabet: a\nstates: 1 2\n", 2, "states: expects one count"),
        ("# count\nalphabet: a\nstates: -1\n", 3, "negative state count"),
        ("alphabet: a\nstates: 2\ntrans: 0 a\n", 3, "trans: expects 'state symbol state'"),
        # A missing line is reported at the last line of the text.
        ("states: 1\ninitial: 0\n# end\n", 3, "missing alphabet: line"),
    ):
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"


# ----------------------------------------------------------- property checks


@st.composite
def automata(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    alphabet = ("a", "b")
    arcs = []
    for q in range(n):
        for a in alphabet:
            targets = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2))
            for r in targets:
                arcs.append((q, a, r))
    initial = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n))
    final = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
    return Automaton(alphabet, n, initial, final, arcs)


@given(automata())
@settings(max_examples=60, deadline=None)
def test_reversal_identity_random(a):
    rev = reverse_automaton(a)
    for w in all_words(a.alphabet, 5):
        assert rev.accepts(w) == a.accepts(reverse_word(w))


@given(automata())
@settings(max_examples=60, deadline=None)
def test_determinize_minimize_preserve_membership_random(a):
    det = determinize(a)
    m = minimize(det)
    for w in all_words(a.alphabet, 5):
        assert det.accepts(w) == a.accepts(w)
        assert m.accepts(w) == a.accepts(w)


@given(automata(), automata())
@settings(max_examples=60, deadline=None)
def test_minimize_canonical_for_equal_languages_random(a, b):
    ma = minimize(determinize(a))
    mb = minimize(determinize(b))
    if shortest_difference_witness(a, b) is None:
        assert ma == mb
    else:
        assert ma != mb


@given(automata())
@settings(max_examples=60, deadline=None)
def test_round_trip_random(a):
    assert parse_automaton(format_automaton(a)) == a


@given(automata())
@settings(max_examples=40, deadline=None)
def test_trim_preserves_membership_random(a):
    t = trim(a)
    for w in all_words(a.alphabet, 5):
        assert t.accepts(w) == a.accepts(w)


# ------------------------------------------------- least words, by brute force
#
# ``_first_hit`` is the one search behind the difference walk and the excess
# witness.  Each result is checked against plain enumeration over
# ``all_words``, which is exact up to ``HIT_BOUND``; past it, a result must
# still be a hit, and longer than the bound.

HIT_BOUND = 6


def assert_first_hit(got, alphabet, hit):
    expected = next((w for w in all_words(alphabet, HIT_BOUND) if hit(w)), None)
    if expected is None:
        assert got is None or (len(got) > HIT_BOUND and hit(got))
    else:
        assert got == expected


@given(automata(), automata())
@settings(max_examples=80, deadline=None)
def test_difference_witness_is_first_differing_word(a, b):
    assert_first_hit(shortest_difference_witness(a, b), AB, lambda w: a.accepts(w) != b.accepts(w))


@st.composite
def small_dfas(draw):
    """Deterministic, possibly partial, with 1-6 states over 1-3 letters."""
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    n = draw(st.integers(1, 6))
    targets = st.one_of(st.none(), st.integers(0, n - 1))
    arcs = [(q, a, r) for q in range(n) for a in alphabet if (r := draw(targets)) is not None]
    return Automaton(alphabet, n, {0}, set(), arcs)


@given(small_dfas())
@settings(max_examples=80, deadline=None)
def test_least_words_are_least_access_words(dfa):
    expected = {}
    for w in all_words(dfa.alphabet, dfa.n_states - 1):
        for q in dfa.run(dfa.initial, w):
            expected.setdefault(q, w)
    found = list(least_words(dfa.initial, dfa._arcs))
    assert dict(found) == expected
    assert [w for _, w in found] == sorted(expected.values(), key=lambda w: (len(w), w))


@given(automata(), automata())
@settings(max_examples=80, deadline=None)
def test_least_difference_reversed_side_matches_enumeration(h, t):
    got = least_difference(AB, _reversed_side(h), _forward_side(t))
    assert_first_hit(got, AB, lambda w: h.accepts(reverse_word(w)) != t.accepts(w))


@given(minimal_dfas())
@settings(max_examples=60, deadline=None)
def test_excess_witness_matches_enumeration(dfa):
    order, includes = _ResidualOrder(dfa), reference_includes(dfa)
    for q in range(dfa.n_states):
        below = [p for p in range(dfa.n_states) if p != q and includes[p][q]]

        def excess(w):
            return dfa.accepts_from(q, w) and not any(dfa.accepts_from(p, w) for p in below)

        assert_first_hit(order.excess_witness(q), dfa.alphabet, excess)


def test_first_hit_at_the_start_is_the_empty_word():
    def never(node):
        raise AssertionError("a hit at the start expands nothing")

    assert _first_hit(0, never, lambda node: True) == ()
    assert least_difference(AB, _forward_side(empty_lang()), _forward_side(universal_lang())) == ()
    # L_1 of ends_a holds the empty word and L_0 below it does not.
    assert _ResidualOrder(ends_a()).excess_witness(1) == ()


def test_first_hit_unreachable_is_none():
    graph = {0: [("a", 1), ("b", 2)], 1: [("a", 0)], 2: [("b", 2)], 3: [("a", 0)]}
    assert _first_hit(0, graph.__getitem__, lambda node: node == 3) is None
    assert _first_hit(0, graph.__getitem__, lambda node: node == 2) == ("b",)
    assert least_difference(AB, _forward_side(even_a()), _forward_side(minimize(even_a()))) is None
    rev = reverse_automaton(nfa_ends_a())
    assert least_difference(AB, _reversed_side(rev), _forward_side(ends_a())) is None
    # The 2nd-from-end language has one composed residual: it has no excess.
    order = _ResidualOrder(minimize(nth_from_end_nfa(2)))
    assert [order.excess_witness(q) is None for q in range(order.n)].count(True) == 1


@given(st.one_of(automata(), small_dfas()))
@settings(max_examples=80, deadline=None)
def test_is_total_matches_pair_set_reference(a):
    assert a.is_total == reference_is_total(a)


def test_is_total_without_states_or_symbols():
    for a in (
        Automaton(AB, 0, set(), set(), []),
        Automaton((), 2, {0}, {1}, []),
        Automaton((), 0, set(), set(), []),
    ):
        assert a.is_total and reference_is_total(a)


# ------------------------------------------------------------------ mask step


def mixed_values(rng, n):
    """``n`` values of mixed widths, about a quarter of them 0."""
    widths = (1, 8, 16, 17, 64, 300)
    return [0 if rng.random() < 0.25 else rng.getrandbits(rng.choice(widths)) for _ in range(n)]


def test_mask_union_matches_peel_loop_across_the_split():
    # 17 bits is where the byte-wise read takes over from the peel loop.
    rng = random.Random(5)
    for length in (0, 1, 16, 17, 63, 64, 65, 127, 128):
        values = mixed_values(rng, max(length, 1))
        top = 1 << length >> 1  # the bit that gives the mask its length
        for mask in (top, (1 << length) - 1, top | rng.getrandbits(length)):
            assert mask.bit_length() == length
            assert mask_union(values, mask) == reference_mask_union(values, mask)
    values = mixed_values(rng, 5000)
    for mask in ((1 << 4999) | rng.getrandbits(5000), (1 << 4999) | 1 << 2500 | 1):
        assert mask.bit_length() == 5000
        assert mask_union(values, mask) == reference_mask_union(values, mask)


@st.composite
def mask_steps(draw):
    """Values of mixed widths, some 0, and a mask of bit length up to 300 over them."""
    length = draw(st.integers(0, 300))
    mask = draw(st.integers(0, (1 << length) - 1)) | 1 << length >> 1
    width = st.sampled_from((1, 8, 64, 300)).flatmap(lambda w: st.integers(0, (1 << w) - 1))
    values = draw(st.lists(st.one_of(st.just(0), width), min_size=length, max_size=length))
    return values, mask


@given(mask_steps())
@settings(max_examples=100, deadline=None)
def test_mask_union_matches_peel_loop_on_random_lengths(example):
    values, mask = example
    assert mask_union(values, mask) == reference_mask_union(values, mask)
