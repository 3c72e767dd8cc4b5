"""Acceptance suite: one test per criterion, each reporting a pass/fail line."""
import dataclasses
import itertools
import random

from conftest import CRITERION_LINES, LEARNERS
from helpers import label_problem, min_distinguishing_context_count, table_from_bits, third_from_end_a
from rfsalearn.automata import (
    determinize,
    format_automaton,
    isomorphic,
    minimize,
    reverse_automaton,
    shortest_difference_witness,
    trim,
    word,
)
from rfsalearn.cli import main as cli_main
from rfsalearn.residuals import canonical_rfsa
from rfsalearn.tables import ObservationTable


def report(number, name, failures, detail=""):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    line = f"criterion {number:02d} {name}: {status}"
    if detail:
        line += f" [{detail}]"
    CRITERION_LINES.append(line)
    print(line)
    assert not failures, f"{name}: {failures[:5]}"


def test_c01_correctness_sweep(corpus_runs):
    runs, elapsed = corpus_runs
    failures = [
        (run.language_id, alg)
        for run in runs
        for alg in LEARNERS
        if not run.correct[alg]
    ]
    # Renumbered by the residual each representative names, lstar's hypothesis is the minimal DFA itself.
    failures += [
        (run.language_id, "lstar", problem)
        for run in runs
        if (problem := label_problem("lstar", run.results["lstar"], run.target))
    ]
    report(1, "correctness sweep", failures, f"{len(runs)} languages x 4 learners in {elapsed:.1f}s")


def test_c02_reversal_two_step_canonical(corpus_runs):
    runs, _ = corpus_runs
    failures = [
        run.language_id
        for run in runs
        if not isomorphic(run.results["rev2step"].hypothesis, run.canonical)
    ]
    # Renumbered by the residual each state names, the hypothesis is the canonical RFSA itself.
    failures += [
        (run.language_id, problem)
        for run in runs
        if (problem := label_problem("rev2step", run.results["rev2step"], run.target))
    ]
    report(2, "reversal two-step yields the canonical RFSA", failures)


def test_c03_nlstar_and_prime_contexts_canonical(corpus_runs):
    runs, _ = corpus_runs
    failures = []
    for run in runs:
        for alg in ("nlstar", "prime2step"):
            if not isomorphic(run.results[alg].hypothesis, run.canonical):
                failures.append((run.language_id, alg))
            if problem := label_problem(alg, run.results[alg], run.target):
                failures.append((run.language_id, alg, problem))
    report(3, "direct and prime-context learners yield the canonical RFSA", failures)


def test_c04_subset_construction_oracle(corpus_runs):
    runs, _ = corpus_runs
    from rfsalearn.residuals import c_of_b

    failures = []
    for run in runs:
        reversed_min = minimize(determinize(reverse_automaton(run.target)))
        candidate = c_of_b(reverse_automaton(trim(reversed_min)))
        if not isomorphic(candidate, run.canonical):
            failures.append(run.language_id)
    report(4, "non-coverable-subset construction matches the canonical RFSA", failures)


def test_c05_query_bounds(corpus_runs):
    runs, _ = corpus_runs
    failures = []
    for run in runs:
        if run.results["lstar"].stats.eq_count > run.index:
            failures.append((run.language_id, "lstar"))
        if run.results["nlstar"].stats.eq_count > run.index**2:
            failures.append((run.language_id, "nlstar"))
        prime = run.results["prime2step"]
        if prime.stats.eq_count != prime.iterations:
            failures.append((run.language_id, "prime2step extra equivalence query"))
    report(5, "equivalence-query bounds", failures)


def test_c06_prime_residual_states(corpus_runs):
    runs, _ = corpus_runs
    from rfsalearn.residuals import is_prime, residual_index

    failures = []
    for run in runs:
        base = run.target
        index = residual_index(base)
        rfsa = run.canonical
        prefixes = [()]
        frontier = [()]
        for _ in range(4):
            frontier = [w + (a,) for w in frontier for a in base.alphabet]
            prefixes.extend(frontier)
        for w in prefixes:
            (state,) = base.run(base.initial, w)
            if not is_prime(index, state):
                continue
            reached = rfsa.run(rfsa.initial, w)
            realized = any(
                shortest_difference_witness(
                    dataclasses.replace(rfsa, initial=frozenset({q})),
                    dataclasses.replace(base, initial=frozenset({state})),
                )
                is None
                for q in reached
            )
            if not realized:
                failures.append((run.language_id, "".join(w) or "^"))
    report(6, "every reached prime residual is realized by a state", failures)


def test_c07_distinguishing_context_count(corpus_runs):
    runs, _ = corpus_runs
    failures = []
    checked = 0
    for run in runs:
        if run.index > 4:
            continue
        checked += 1
        minimum = min_distinguishing_context_count(run.target)
        primes = run.canonical.n_states
        if minimum != primes:
            failures.append((run.language_id, f"I_L={run.index}", f"primes={primes}", f"min={minimum}"))
    report(7, "minimal distinguishing contexts equal the prime count", failures, f"{checked} languages with index <= 4")


def test_distinguishing_context_count_at_most_primes(corpus_runs):
    runs, _ = corpus_runs
    small = [run for run in runs if run.index <= 4]
    assert len(small) == 26
    for run in small:
        assert min_distinguishing_context_count(run.target) <= run.canonical.n_states, run.language_id


def test_c08_coverable_column_example():
    rows = [
        [1, 0, 1, 1, 0],
        [1, 1, 0, 1, 1],
        [1, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
    ]
    table = table_from_bits(["", "a", "b", "aa"], ["", "a", "ab", "bb", "ba"], rows)
    coverable = {e: table.is_column_coverable(e) for e in table.contexts}
    expected = {
        (): True,
        word("a"): False,
        word("ab"): False,
        word("bb"): False,
        word("ba"): False,
    }
    failures = [e for e in coverable if coverable[e] != expected[e]]
    report(8, "worked 4x5 example covers exactly the first column", failures)


def test_c09_size_gap_demo(tmp_path):
    target = third_from_end_a()
    failures = []
    mindfa = minimize(target)
    if mindfa.n_states != 8:
        failures.append(f"minimal DFA has {mindfa.n_states} states")
    rfsa = canonical_rfsa(mindfa)
    if not rfsa.n_states < 8:
        failures.append(f"canonical RFSA has {rfsa.n_states} states")
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "lang_gap.aut").write_text(format_automaton(target), encoding="utf-8")
    out = tmp_path / "bench.csv"
    code = cli_main(["bench", str(corpus_dir), "--out", str(out)])
    if code != 0:
        failures.append(f"bench exit code {code}")
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    for row in rows:
        if row[1] == "rev2step" and not int(row[4]) < int(row[2]):
            failures.append(f"rev2step produced {row[4]} states vs index {row[2]}")
    report(9, "third-from-end language shows the size gap", failures,
           f"index=8, canonical={rfsa.n_states}")


def oracle_coverable(target, vectors):
    others = [v for v in set(vectors) if v != target]
    width = len(target)
    for size in range(len(others) + 1):
        for combo in itertools.combinations(others, size):
            joined = tuple(
                max(bits) if bits else 0 for bits in zip(*combo)
            ) if combo else tuple([0] * width)
            if joined == target:
                return True
    return False


def test_c10_coverability_matches_exhaustive_search():
    rng = random.Random(2024)
    red_pool = ["", "a", "b", "aa", "ab"]
    context_pool = ["", "a", "b", "aa", "ab"]
    failures = []
    for trial in range(500):
        n_rows = rng.randint(1, 5)
        n_cols = rng.randint(1, 5)
        red = red_pool[:n_rows]
        contexts = [word(e) for e in context_pool[:n_cols]]
        red_words = [word(s) for s in red]
        red_set = set(red_words)
        blue = [r + (a,) for r in red_words for a in ("a", "b") if r + (a,) not in red_set]
        bits = {
            s: [rng.randint(0, 1) for _ in contexts] for s in red_words + blue
        }
        table = ObservationTable.from_rows(("a", "b"), red_words, contexts, bits)
        words_all = list(table.words())
        target_word = rng.choice(words_all)
        candidates = [s for s in words_all if rng.random() < 0.7]
        got = table.is_row_coverable(target_word, candidates)
        expected = oracle_coverable(
            table.row(target_word),
            [table.row(c) for c in candidates],
        )
        if got != expected:
            failures.append(("row", trial))
        probe = rng.choice(list(table.contexts))
        got_col = table.is_column_coverable(probe)
        column = tuple(table.obs(s, probe) for s in table.red)
        others = [
            tuple(table.obs(s, e) for s in table.red)
            for e in table.contexts
            if e != probe
        ]
        if got_col != oracle_coverable(column, others):
            failures.append(("column", trial))
    report(10, "coverability agrees with exhaustive covering-set search", failures, "500 random tables")
