"""The benchmark's workloads: the targets each one runs, and how they are built.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and refuses an ``rfsalearn`` that comes from anywhere else, so
the benchmark always measures the code next to it.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import rfsalearn  # noqa: E402

if Path(rfsalearn.__file__).resolve().parent != SRC / "rfsalearn":
    raise ImportError(f"rfsalearn must come from {SRC}, not {rfsalearn.__file__}")

from rfsalearn import automata, cli, residuals  # noqa: E402,F401

Target = tuple[str, automata.Automaton]

CORPUS_SEED = 42
CORPUS_SHAPE = {"n": 200, "max_states": 8, "alphabet": 2}
NTH_END = range(3, 7)
NTH_START = range(6, 10)


def nth_from_end_nfa(n: int) -> automata.Automaton:
    """(n+1)-state NFA for "the n-th symbol from the end is a" over {a, b}."""
    arcs = [(0, "a", 0), (0, "b", 0), (0, "a", 1)]
    arcs += [(i, s, i + 1) for i in range(1, n) for s in "ab"]
    return automata.Automaton(("a", "b"), n + 1, {0}, {n}, arcs)


def corpus_targets(seed: int = CORPUS_SEED) -> list[Target]:
    corpus = cli.generate_corpus(
        CORPUS_SHAPE["n"], CORPUS_SHAPE["max_states"], CORPUS_SHAPE["alphabet"], seed
    )
    return [(f"lang_{k:03d}", target) for k, target in enumerate(corpus)]


def nth_end_targets(ns=NTH_END) -> list[Target]:
    """Minimal DFAs with 2^n states whose canonical RFSA has n+1 states."""
    return [
        (f"end_{n}", automata.minimize(automata.determinize(nth_from_end_nfa(n))))
        for n in ns
    ]


def nth_start_targets(ns=NTH_START) -> list[Target]:
    """Minimal DFAs with n+2 states whose reversal needs 2^n DFA states."""
    return [
        (
            f"start_{n}",
            automata.minimize(
                automata.determinize(automata.reverse_automaton(nth_from_end_nfa(n)))
            ),
        )
        for n in ns
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    build: Callable[[], list[Target]]


def workload(name: str, corpus_seed: int = CORPUS_SEED) -> Workload:
    """The named workload; only ``corpus`` depends on ``corpus_seed``."""
    if name == "corpus":
        return Workload(
            name, {**CORPUS_SHAPE, "seed": corpus_seed}, lambda: corpus_targets(corpus_seed)
        )
    if name == "nth-end":
        return Workload(name, {"n": [NTH_END.start, NTH_END.stop - 1]}, nth_end_targets)
    if name == "nth-start":
        return Workload(name, {"n": [NTH_START.start, NTH_START.stop - 1]}, nth_start_targets)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("corpus", "nth-end", "nth-start")
