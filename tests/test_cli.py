import pytest

from helpers import even_a, nfa_ends_a, starts_a, third_from_end_a
from rfsalearn import cli
from rfsalearn.automata import Automaton, ContractError, format_automaton, minimize, parse_automaton
from rfsalearn.cli import BENCH_HEADER, generate_corpus, lang_file_name, main
from rfsalearn.learners import DiagnosticError, two_step_prime_contexts, two_step_reversal
from rfsalearn.residuals import is_prime, residual_index
from rfsalearn.teacher import TeacherSession


def write_target(tmp_path, automaton, name="target.aut"):
    path = tmp_path / name
    path.write_text(format_automaton(automaton), encoding="utf-8")
    return path


def test_canonical_even_a(tmp_path, capsys):
    path = write_target(tmp_path, even_a())
    assert main(["canonical", str(path)]) == 0
    printed = capsys.readouterr().out
    assert parse_automaton(printed).n_states == 2


def test_canonical_empty_language_zero_states(tmp_path, capsys):
    from helpers import empty_lang

    path = write_target(tmp_path, empty_lang())
    assert main(["canonical", str(path)]) == 0
    printed = capsys.readouterr().out
    assert "states: 0" in printed


def test_canonical_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.aut"
    path.write_text("alphabet: a\nstates: 1\nwhat: 1\n", encoding="utf-8")
    assert main(["canonical", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_canonical_missing_file_exit_3(tmp_path):
    assert main(["canonical", str(tmp_path / "absent.aut")]) == 3


def test_learn_writes_hypothesis_and_stats(tmp_path):
    target = write_target(tmp_path, even_a())
    out = tmp_path / "hyp.aut"
    stats = tmp_path / "stats.csv"
    code = main(
        ["learn", "--alg", "lstar", "--target", str(target), "--out", str(out), "--stats", str(stats)]
    )
    assert code == 0
    hypothesis = parse_automaton(out.read_text(encoding="utf-8"))
    assert hypothesis.n_states == 2
    lines = stats.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == BENCH_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "target" and fields[1] == "lstar"
    assert fields[9] == "1"


def test_learn_rev2step_matches_canonical(tmp_path):
    target = write_target(tmp_path, starts_a())
    out = tmp_path / "hyp.aut"
    assert main(["learn", "--alg", "rev2step", "--target", str(target), "--out", str(out)]) == 0
    from rfsalearn.automata import determinize, isomorphic, minimize
    from rfsalearn.residuals import canonical_rfsa

    hypothesis = parse_automaton(out.read_text(encoding="utf-8"))
    assert isomorphic(hypothesis, canonical_rfsa(minimize(determinize(starts_a()))))


def _doubled_sink():
    """Words starting with a, with two equal sink states: not minimal."""
    arcs = [(0, "a", 1), (0, "b", 2), (1, "a", 1), (1, "b", 1), (2, "a", 3), (2, "b", 3), (3, "a", 2), (3, "b", 3)]
    return Automaton(("a", "b"), 4, {0}, {1}, arcs)


def _partial_starts_a():
    """Words starting with a, without the sink state."""
    return Automaton(("a", "b"), 2, {0}, {1}, [(0, "a", 1), (1, "a", 1), (1, "b", 1)])


@pytest.mark.parametrize(
    "target, columns",
    [
        (even_a(), (2, 2)),
        (_doubled_sink(), (3, 2)),
        (third_from_end_a(), (8, 4)),  # minimal, but its start state is 7
        (_partial_starts_a(), (3, 2)),
        (nfa_ends_a(), (2, 2)),
    ],
    ids=["canonical", "non_minimal", "misnumbered", "partial", "nfa"],
)
def test_language_columns_on_every_kind_of_target(target, columns):
    # index: states of the minimal DFA; primes: its prime residuals.
    mindfa = minimize(target)
    index = residual_index(mindfa)
    assert (mindfa.n_states, sum(is_prime(index, q) for q in range(mindfa.n_states))) == columns
    assert cli._language_columns(target) == columns


def raising(error):
    def learner(teacher):
        raise error

    return learner


def test_learn_diagnostic_error_records_a_wrong_run_and_exits_4(tmp_path, monkeypatch):
    target = write_target(tmp_path, even_a())
    monkeypatch.setitem(cli.ALGORITHMS, "lstar", raising(DiagnosticError("completed table is not RFSA-closed")))
    out, stats = tmp_path / "hyp.aut", tmp_path / "stats.csv"
    argv = ["learn", "--alg", "lstar", "--target", str(target), "--out", str(out), "--stats", str(stats)]
    assert main(argv) == 4
    lines = stats.read_text(encoding="utf-8").splitlines()
    assert lines[0] == BENCH_HEADER
    fields = lines[1].split(",")
    assert fields[1] == "lstar" and fields[4] == "0" and fields[9] == "0"
    assert not out.exists()


def test_learner_contract_error_is_reported_with_exit_4(tmp_path, monkeypatch, capsys):
    target = write_target(tmp_path, even_a())
    monkeypatch.setitem(cli.ALGORITHMS, "nlstar", raising(ContractError("table is not closed")))
    assert main(["learn", "--alg", "nlstar", "--target", str(target)]) == 4
    assert capsys.readouterr().err == "error: table is not closed\n"


def test_learn_unknown_alg_exit_2(tmp_path, capsys):
    target = write_target(tmp_path, even_a())
    for command in ("learn", "table"):
        assert main([command, "--alg", "foo", "--target", str(target)]) == 2
        assert "argument --alg: invalid choice: 'foo'" in capsys.readouterr().err


def test_gen_corpus_deterministic(tmp_path):
    dir_a = tmp_path / "one"
    dir_b = tmp_path / "two"
    for out_dir in (dir_a, dir_b):
        code = main(
            ["gen-corpus", str(out_dir), "--n", "5", "--max-states", "4", "--alphabet", "2", "--seed", "11"]
        )
        assert code == 0
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == [lang_file_name(k) for k in range(5)]
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_gen_corpus_respects_bounds(tmp_path):
    out_dir = tmp_path / "corpus"
    assert main(["gen-corpus", str(out_dir), "--n", "8", "--max-states", "5", "--seed", "3"]) == 0
    for path in out_dir.iterdir():
        automaton = parse_automaton(path.read_text(encoding="utf-8"))
        assert 2 <= automaton.n_states <= 5
        assert automaton.is_deterministic and automaton.is_total


def test_gen_corpus_rejects_one_state_bound(tmp_path, capsys):
    # Every one-state language is empty or universal, both of which the
    # generator redraws, so this bound used to loop forever.
    out_dir = tmp_path / "corpus"
    assert main(["gen-corpus", str(out_dir), "--n", "1", "--max-states", "1"]) == 2
    assert "max states must be at least 2" in capsys.readouterr().err
    assert not out_dir.exists()


def test_gen_corpus_rejects_an_empty_corpus_and_a_large_alphabet(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    for flag, value in (("--n", "0"), ("--alphabet", "27")):
        assert main(["gen-corpus", str(out_dir), flag, value]) == 2
        assert capsys.readouterr().err == (
            "usage error: corpus parameters must be positive (alphabet size at most 26)\n"
        )
    assert not out_dir.exists()


def test_gen_corpus_unary_alphabet(tmp_path):
    out_dir = tmp_path / "unary"
    assert main(["gen-corpus", str(out_dir), "--n", "3", "--max-states", "4", "--alphabet", "1", "--seed", "5"]) == 0
    for path in out_dir.iterdir():
        automaton = parse_automaton(path.read_text(encoding="utf-8"))
        assert automaton.alphabet == ("a",)


def test_bench_report_shape(tmp_path):
    corpus = tmp_path / "corpus"
    main(["gen-corpus", str(corpus), "--n", "2", "--max-states", "4", "--seed", "9"])
    out = tmp_path / "bench.csv"
    code = main(["bench", str(corpus), "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == BENCH_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 4
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
    for row in rows:
        assert row[9] == "1"
        if row[1] == "lstar":
            assert int(row[7]) <= int(row[2])
    by_lang = {}
    for row in rows:
        by_lang.setdefault(row[0], {})[row[1]] = row
    for per_alg in by_lang.values():
        assert per_alg["rev2step"][4] == per_alg["nlstar"][4]


def test_bench_without_out_writes_the_report_to_stdout(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    main(["gen-corpus", str(corpus), "--n", "2", "--max-states", "4", "--seed", "9"])
    out = tmp_path / "bench.csv"
    assert main(["bench", str(corpus), "--algs", "lstar,nlstar", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["bench", str(corpus), "--algs", "lstar,nlstar"]) == 0
    printed = capsys.readouterr().out
    strip = lambda text: [row.rsplit(",", 1)[0] for row in text.splitlines()]
    assert strip(printed) == strip(out.read_text(encoding="utf-8"))
    assert len(strip(printed)) == 1 + 2 * 2


def test_bench_deterministic_prefix(tmp_path):
    corpus = tmp_path / "corpus"
    main(["gen-corpus", str(corpus), "--n", "2", "--max-states", "4", "--seed", "13"])
    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        main(["bench", str(corpus), "--out", str(out), "--algs", "lstar,nlstar"])
        rows = out.read_text(encoding="utf-8").strip().splitlines()
        outputs.append([row.rsplit(",", 1)[0] for row in rows])
    assert outputs[0] == outputs[1]


def test_bench_unknown_alg_exit_2(tmp_path):
    corpus = tmp_path / "corpus"
    main(["gen-corpus", str(corpus), "--n", "1", "--max-states", "3", "--seed", "1"])
    assert main(["bench", str(corpus), "--algs", "lstar,bogus"]) == 2


def test_bench_repeated_alg_writes_each_record_once(tmp_path):
    corpus = tmp_path / "corpus"
    main(["gen-corpus", str(corpus), "--n", "2", "--max-states", "3", "--seed", "1"])
    once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
    assert main(["bench", str(corpus), "--algs", "lstar", "--out", str(once)]) == 0
    assert main(["bench", str(corpus), "--algs", "lstar, lstar,lstar", "--out", str(twice)]) == 0
    strip = lambda p: [r.rsplit(",", 1)[0] for r in p.read_text().strip().splitlines()]
    assert len(strip(twice)) == 1 + 2
    assert strip(twice) == strip(once)


def test_bench_no_alg_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    main(["gen-corpus", str(corpus), "--n", "1", "--max-states", "3", "--seed", "1"])
    out = tmp_path / "bench.csv"
    for algs in ("", ",", " , ,"):
        assert main(["bench", str(corpus), "--algs", algs, "--out", str(out)]) == 2
        assert "no algorithm given" in capsys.readouterr().err
    assert not out.exists()


def test_bench_parse_error_exit_2_with_a_pool(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus"
    main(["gen-corpus", str(corpus), "--n", "2", "--max-states", "3"])
    (corpus / "lang_bad.aut").write_text("nonsense\n", encoding="utf-8")
    monkeypatch.setattr(cli, "_usable_cpu_count", lambda: 2)
    errors = []
    for jobs in ("1", "2"):
        assert main(["bench", str(corpus), "--algs", "lstar", "--jobs", jobs]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "parse error: line 1: expected 'key: value' form\n"


def test_bench_empty_corpus_exit_3(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["bench", str(empty)]) == 3


def test_table_dump(tmp_path, capsys):
    target = write_target(tmp_path, even_a())
    assert main(["table", "--alg", "lstar", "--target", str(target), "--dump"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("alg=lstar states=2")
    assert "--" in out
    assert "^" in out


@pytest.mark.parametrize(
    "alg, learner", [("rev2step", two_step_reversal), ("prime2step", two_step_prime_contexts)]
)
def test_table_dump_of_a_two_step_learner_prints_its_reduced_table(tmp_path, capsys, alg, learner):
    target = write_target(tmp_path, third_from_end_a())
    assert main(["table", "--alg", alg, "--target", str(target), "--dump"]) == 0
    head, _, dump = capsys.readouterr().out.partition("\n")
    result = learner(TeacherSession(third_from_end_a()))
    reduced = result.final_table.table if alg == "rev2step" else result.final_table
    assert head.startswith(f"alg={alg} states={result.hypothesis.n_states} ")
    assert dump == reduced.dump()


def test_usage_error_exit_2():
    assert main(["no-such-command"]) == 2


def test_generate_corpus_library_properties():
    corpus = generate_corpus(6, 4, 2, 123)
    again = generate_corpus(6, 4, 2, 123)
    assert corpus == again
    for automaton in corpus:
        assert automaton.n_states >= 2


def test_bench_parallel_matches_sequential(tmp_path):
    corpus = tmp_path / "corpus"
    main(["gen-corpus", str(corpus), "--n", "3", "--max-states", "4", "--seed", "21"])
    seq = tmp_path / "seq.csv"
    par = tmp_path / "par.csv"
    main(["bench", str(corpus), "--out", str(seq), "--algs", "lstar,rev2step"])
    main(["bench", str(corpus), "--out", str(par), "--algs", "lstar,rev2step", "--jobs", "2"])
    strip = lambda p: [r.rsplit(",", 1)[0] for r in p.read_text().strip().splitlines()]
    assert strip(seq) == strip(par)


def test_bench_rejects_jobs_below_one(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    main(["gen-corpus", str(corpus), "--n", "1", "--max-states", "3"])
    for jobs in ("0", "-3"):
        assert main(["bench", str(corpus), "--algs", "lstar", "--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("has_affinity", [True, False])
def test_bench_jobs_capped_at_usable_cpus(tmp_path, monkeypatch, has_affinity):
    corpus = tmp_path / "corpus"
    main(["gen-corpus", str(corpus), "--n", "2", "--max-states", "3"])
    if has_affinity:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("one usable CPU must not build a process pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "report.csv"
    assert main(["bench", str(corpus), "--algs", "lstar", "--jobs", "2", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 3


def test_bench_indexes_each_language_once(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    main(["gen-corpus", str(corpus), "--n", "3", "--max-states", "5", "--seed", "17"])
    # The expected rows come one record at a time, each with its own index.
    expected = [BENCH_HEADER]
    for path in sorted(corpus.glob("*.aut")):
        target = parse_automaton(path.read_text(encoding="utf-8"))
        for alg in sorted(cli.ALGORITHMS):
            expected.append(cli.run_benchmark_record(path.stem, target, alg)[0].csv_row())
    strip = lambda rows: [row.rsplit(",", 1)[0] for row in rows]

    indexed = []
    real_index = cli.residual_index
    monkeypatch.setattr(cli, "residual_index", lambda dfa: indexed.append(dfa) or real_index(dfa))
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["bench", str(corpus), "--jobs", jobs, "--out", str(out)]) == 0
        assert strip(out.read_text(encoding="utf-8").splitlines()) == strip(expected)
        if jobs == "1":
            assert len(indexed) == 3
