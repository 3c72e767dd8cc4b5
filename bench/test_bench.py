"""Tests of the benchmark itself: pinned query counts, metric names, the gate.

Run from the repository root: ``python3 -m pytest bench/test_bench.py``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from workloads import automata, cli

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def mq_total(targets, alg: str) -> int:
    return sum(cli.run_benchmark_record(tid, t, alg)[0].mq_total for tid, t in targets)


@pytest.mark.parametrize(
    "alg, expected",
    [("lstar", 19_681), ("nlstar", 27_116), ("rev2step", 155_797), ("prime2step", 39_177)],
)
def test_corpus_seed_42_mq_counts(alg, expected):
    assert mq_total(workloads.corpus_targets(42), alg) == expected


def test_nth_end_7_prime2step_mq_count():
    assert mq_total(workloads.nth_end_targets([7]), "prime2step") == 49_087


def test_nth_start_10_rev2step_mq_count():
    assert mq_total(workloads.nth_start_targets([10]), "rev2step") == 22_539


def test_family_sizes():
    assert [t.n_states for _, t in workloads.nth_end_targets([3, 7])] == [8, 128]
    assert [t.n_states for _, t in workloads.nth_start_targets([6, 10])] == [8, 12]


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


SMOKE = workloads.Workload(
    "smoke",
    {},
    lambda: workloads.corpus_targets(42)[:3]
    + workloads.nth_end_targets([3])
    + workloads.nth_start_targets([6]),
)


def smoke_main(monkeypatch, tmp_path, capsys, trace: int):
    monkeypatch.setattr(run.workloads, "workload", lambda name, seed: SMOKE)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "corpus", "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    return code, json.loads(lines[-1]), lines, captured.err


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_slice_reports_every_metric(monkeypatch, tmp_path, capsys, trace, section):
    code, result, lines, _ = smoke_main(monkeypatch, tmp_path, capsys, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"corpus {name} = ") and f" {unit} " in line for line in lines)
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    assert meta["records_attempted"] == 4 * meta["canonical_ops_attempted"]
    assert set(meta["samples"]) == set(declared)
    if trace:
        assert (tmp_path / "spans-corpus.csv").stat().st_size > 0
        assert result["metrics"]["teacher.mq_calls"]["value"] > 0
    else:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_op_times_are_normalised_by_the_chunk_then_medians():
    times = run.OpTimes()
    for seconds, chunk_s in [(0.004, 0.002), (0.003, 0.001), (0.010, 0.002)]:
        times.add([run.Outcome("t", run.CANONICAL, seconds=seconds, chunk_s=chunk_s)])
    metrics = times.metrics()
    # normalised to a 1 ms chunk: 2, 3 and 5 ms
    assert metrics["oracle_s"] == metrics["wall_s"] == pytest.approx(0.003)
    assert metrics["lstar_s"] == 0.0


def test_tracer_restores_the_package(monkeypatch, tmp_path, capsys):
    learners = dict(cli.ALGORITHMS)
    minimize = cli.minimize
    smoke_main(monkeypatch, tmp_path, capsys, 1)
    assert cli.ALGORITHMS == learners and cli.minimize is minimize is automata.minimize


def test_failing_record_is_isolated_and_fails_the_run(monkeypatch, tmp_path, capsys):
    def broken(teacher):
        raise automata.ContractError("injected")

    monkeypatch.setitem(cli.ALGORITHMS, "nlstar", broken)
    code, result, _, err = smoke_main(monkeypatch, tmp_path, capsys, 0)
    assert code == 1 and result["correct"] is False
    # --seconds 0.01 leaves room for exactly one pass: one nlstar op per target
    targets = len(SMOKE.build())
    assert result["attempted"] == 5 * targets
    assert result["failed"] == targets
    assert err.count("ContractError: injected") == targets


def test_run_pass_records_exception_type():
    targets = workloads.nth_end_targets([3])

    def oracle_fails(target):
        raise RuntimeError("canonical RFSA construction changed the language")

    outcomes = run.run_pass(targets, run.plan(1, 0), oracle_fails)
    errors = {o.kind: o.error for o in outcomes if o.error}
    assert list(errors) == [run.CANONICAL]
    assert errors[run.CANONICAL].strip().splitlines()[-1].startswith("RuntimeError")
    gate = run.Gate(targets)
    gate.check(outcomes)
    assert set(dict(gate.failures)) == {f"end_3/{kind}" for kind in ("canonical", "nlstar", "rev2step", "prime2step")}


def test_gate_rejects_a_wrong_canonical_result():
    targets = workloads.nth_end_targets([3])
    minimal_dfa = lambda t: automata.minimize(automata.determinize(t))  # noqa: E731
    outcomes = run.run_pass(targets, run.plan(1, 0), minimal_dfa)
    gate = run.Gate(targets)
    gate.check(outcomes)
    failures = dict(gate.failures)
    assert "end_3/canonical" in failures and "end_3/lstar" not in failures


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        workloads.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
