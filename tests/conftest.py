import time
from dataclasses import dataclass

import pytest
from hypothesis import settings

from rfsalearn.automata import Automaton, shortest_difference_witness
from rfsalearn.cli import generate_corpus
from rfsalearn.learners import (
    LearnerResult,
    lstar_col,
    nlstar,
    two_step_prime_contexts,
    two_step_reversal,
)
from rfsalearn.residuals import canonical_rfsa
from rfsalearn.teacher import TeacherSession

# Property tests draw the same examples on every run, so a failure reproduces
# and tier-1 results do not depend on the run.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

CORPUS_N = 200
CORPUS_MAX_STATES = 8
CORPUS_ALPHABET = 2
CORPUS_SEED = 42

CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in CRITERION_LINES:
            terminalreporter.write_line("  " + line)

LEARNERS = {
    "lstar": lstar_col,
    "nlstar": nlstar,
    "rev2step": two_step_reversal,
    "prime2step": two_step_prime_contexts,
}


@dataclass
class LanguageRun:
    language_id: str
    target: Automaton
    index: int
    canonical: Automaton
    results: dict[str, LearnerResult]
    correct: dict[str, bool]


@pytest.fixture(scope="session")
def corpus():
    return generate_corpus(CORPUS_N, CORPUS_MAX_STATES, CORPUS_ALPHABET, CORPUS_SEED)


@pytest.fixture(scope="session")
def corpus_runs(corpus):
    runs = []
    begin = time.perf_counter()
    for k, target in enumerate(corpus):
        results = {}
        correct = {}
        for name, learner in LEARNERS.items():
            session = TeacherSession(target)
            result = learner(session)
            results[name] = result
            correct[name] = shortest_difference_witness(result.hypothesis, target) is None
        runs.append(
            LanguageRun(
                f"lang_{k:03d}",
                target,
                target.n_states,
                canonical_rfsa(target),
                results,
                correct,
            )
        )
    elapsed = time.perf_counter() - begin
    return runs, elapsed
