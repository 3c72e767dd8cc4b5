"""Command-line surface: automaton I/O, corpus generation, learning runs, benchmarks.

Exit codes: 0 ok, 2 usage or parse error, 3 I/O error, 4 algorithm diagnostic.
"""
from __future__ import annotations

import argparse
import os
import random
import string
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass
from pathlib import Path

from .automata import (
    Automaton,
    ContractError,
    InputError,
    ParseError,
    format_automaton,
    minimize,
    parse_automaton,
    shortest_difference_witness,
)
from .learners import (
    DiagnosticError,
    lstar_col,
    nlstar,
    two_step_prime_contexts,
    two_step_reversal,
)
from .residuals import canonical_rfsa, is_prime, residual_index
from .teacher import TeacherSession

ALGORITHMS = {
    "lstar": lstar_col,
    "nlstar": nlstar,
    "rev2step": two_step_reversal,
    "prime2step": two_step_prime_contexts,
}

BENCH_HEADER = "language,alg,index,primes,hyp_states,mq_total,mq_distinct,eq,cex_max,correct,wall_ms"


@dataclass
class BenchRecord:
    language_id: str
    alg: str
    index: int
    primes: int
    hyp_states: int
    mq_total: int
    mq_distinct: int
    eq_count: int
    longest_cex: int
    correct: int
    wall_ms: float

    def csv_row(self) -> str:
        # The fields are declared in the order of BENCH_HEADER's columns.
        *columns, wall_ms = astuple(self)
        return ",".join([*map(str, columns), f"{wall_ms:.1f}"])


def generate_corpus(n: int, max_states: int, alphabet_size: int, seed: int) -> list[Automaton]:
    """Seeded random regular languages as minimal DFAs.

    Draws total DFAs with uniform transitions and each state final with
    probability one half, minimizes them, and redraws any language equal to
    the empty or the universal one.
    """
    if n <= 0 or not 1 <= alphabet_size <= 26:
        raise InputError("corpus parameters must be positive (alphabet size at most 26)")
    if max_states < 2:
        # every one-state language is the empty or the universal one
        raise InputError(f"max states must be at least 2, got {max_states}")
    alphabet = tuple(string.ascii_lowercase[:alphabet_size])
    rng = random.Random(seed)
    out: list[Automaton] = []
    while len(out) < n:
        arcs = [
            (q, a, rng.randrange(max_states))
            for q in range(max_states)
            for a in alphabet
        ]
        final = {q for q in range(max_states) if rng.random() < 0.5}
        candidate = minimize(Automaton(alphabet, max_states, {0}, final, arcs))
        if candidate.n_states == 1:
            continue  # the empty or the universal language
        out.append(candidate)
    return out


def lang_file_name(k: int) -> str:
    return f"lang_{k:03d}.aut"


def _language_columns(target: Automaton) -> tuple[int, int]:
    """The ``index`` and ``primes`` columns: states of the minimal DFA and prime residuals."""
    mindfa = minimize(target)
    index = residual_index(mindfa)
    return mindfa.n_states, sum(is_prime(index, q) for q in range(mindfa.n_states))


def run_benchmark_record(
    language_id: str, target: Automaton, alg: str
) -> tuple[BenchRecord, Automaton | None]:
    """One learning run with post-hoc correctness verified by a fresh witness check."""
    return _learning_record(language_id, target, alg, *_language_columns(target))


def _learning_record(
    language_id: str, target: Automaton, alg: str, index: int, primes: int
) -> tuple[BenchRecord, Automaton | None]:
    session = TeacherSession(target)
    begin = time.perf_counter()
    correct = 0
    hyp_states = 0
    hypothesis = None
    try:
        result = ALGORITHMS[alg](session)
        hypothesis = result.hypothesis
        hyp_states = hypothesis.n_states
        correct = int(shortest_difference_witness(hypothesis, target) is None)
    except DiagnosticError:
        correct = 0
    elapsed_ms = (time.perf_counter() - begin) * 1000.0
    stats = session.stats
    record = BenchRecord(
        language_id,
        alg,
        index,
        primes,
        hyp_states,
        stats.mq_total,
        stats.mq_distinct,
        stats.eq_count,
        stats.longest_counterexample,
        correct,
        elapsed_ms,
    )
    return record, hypothesis


def _bench_worker(job: tuple[str, str, list[str]]) -> list[BenchRecord]:
    """Every learner's record on one language, which is parsed and indexed once."""
    language_id, path, algs = job
    target = parse_automaton(Path(path).read_text(encoding="utf-8"))
    columns = _language_columns(target)
    return [_learning_record(language_id, target, alg, *columns)[0] for alg in algs]


def _usable_cpu_count() -> int:
    """CPUs this process may run on (its affinity set where the platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmd_canonical(args) -> int:
    text = Path(args.path).read_text(encoding="utf-8")
    target = parse_automaton(text)
    result = canonical_rfsa(minimize(target))
    sys.stdout.write(format_automaton(result))
    return 0


def cmd_learn(args) -> int:
    target = parse_automaton(Path(args.target).read_text(encoding="utf-8"))
    language_id = Path(args.target).stem
    record, hypothesis = run_benchmark_record(language_id, target, args.alg)
    if args.out and hypothesis is not None:
        Path(args.out).write_text(format_automaton(hypothesis), encoding="utf-8")
    if args.stats:
        Path(args.stats).write_text(
            BENCH_HEADER + "\n" + record.csv_row() + "\n", encoding="utf-8"
        )
    return 0 if record.correct else 4


def cmd_gen_corpus(args) -> int:
    corpus = generate_corpus(args.n, args.max_states, args.alphabet, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, automaton in enumerate(corpus):
        (out_dir / lang_file_name(k)).write_text(format_automaton(automaton), encoding="utf-8")
    return 0


def cmd_bench(args) -> int:
    algs = list(dict.fromkeys(a.strip() for a in args.algs.split(",") if a.strip()))
    if not algs:
        print("no algorithm given", file=sys.stderr)
        return 2
    for alg in algs:
        if alg not in ALGORITHMS:
            print(f"unknown algorithm {alg!r}", file=sys.stderr)
            return 2
    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    workers = min(args.jobs, _usable_cpu_count())
    corpus_dir = Path(args.corpus)
    files = sorted(corpus_dir.glob("*.aut"))
    if not files:
        print(f"no .aut files in {corpus_dir}", file=sys.stderr)
        return 3
    jobs = [(path.stem, str(path), sorted(algs)) for path in files]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_bench_worker, jobs))
    else:
        batches = [_bench_worker(job) for job in jobs]
    records = [record for batch in batches for record in batch]
    records.sort(key=lambda record: (record.language_id, record.alg))
    out = BENCH_HEADER + "\n" + "\n".join(record.csv_row() for record in records) + "\n"
    if args.out:
        Path(args.out).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return 0 if all(record.correct for record in records) else 4


def cmd_table(args) -> int:
    target = parse_automaton(Path(args.target).read_text(encoding="utf-8"))
    session = TeacherSession(target)
    result = ALGORITHMS[args.alg](session)
    table = result.final_table
    if hasattr(table, "table"):  # reduced table wrapper
        table = table.table
    stats = result.stats
    print(
        f"alg={args.alg} states={result.hypothesis.n_states} "
        f"mq_total={stats.mq_total} mq_distinct={stats.mq_distinct} eq={stats.eq_count}"
    )
    if args.dump:
        sys.stdout.write(table.dump())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rfsalearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canonical", help="print the canonical RFSA of an automaton file")
    p.add_argument("path")
    p.set_defaults(run=cmd_canonical)

    p = sub.add_parser("learn", help="run one learner against a target automaton")
    p.add_argument("--alg", required=True, choices=sorted(ALGORITHMS))
    p.add_argument("--target", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--stats", default=None)
    p.set_defaults(run=cmd_learn)

    p = sub.add_parser("gen-corpus", help="write a seeded corpus of random minimal DFAs")
    p.add_argument("out_dir")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--max-states", type=int, default=8)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(run=cmd_gen_corpus)

    p = sub.add_parser("bench", help="run learners over a corpus and write a CSV report")
    p.add_argument("corpus")
    p.add_argument("--algs", default=",".join(sorted(ALGORITHMS)))
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(run=cmd_bench)

    p = sub.add_parser("table", help="show the final observation table of a learning run")
    p.add_argument("--alg", required=True, choices=sorted(ALGORITHMS))
    p.add_argument("--target", required=True)
    p.add_argument("--dump", action="store_true")
    p.set_defaults(run=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (DiagnosticError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
