"""The package's public surface, pinned so that growing it is a visible change."""
import rfsalearn

PUBLIC = {
    "EPSILON",
    "Automaton",
    "ContractError",
    "DiagnosticError",
    "InputError",
    "LearnerResult",
    "ModifiedTable",
    "ObservationTable",
    "ParseError",
    "QueryStats",
    "ResidualIndex",
    "ReversalTeacher",
    "StateSetFamily",
    "TeacherSession",
    "Word",
    "apply_modifications",
    "c_of_b",
    "canonical_rfsa",
    "derive_rfsa",
    "derive_dfa",
    "derive_reversal_rfsa",
    "determinize",
    "determinize_labeled",
    "format_automaton",
    "is_coverable_state",
    "is_prime",
    "isomorphic",
    "lstar_col",
    "min_distinguishing_context_count",
    "minimize",
    "modified_row_automaton",
    "nlstar",
    "parse_automaton",
    "reachable_state_sets",
    "residual_index",
    "reverse_automaton",
    "reverse_word",
    "shortest_difference_witness",
    "trim",
    "two_step_prime_contexts",
    "two_step_reversal",
    "word",
}


def test_public_surface_is_pinned():
    assert len(rfsalearn.__all__) == len(set(rfsalearn.__all__))
    assert set(rfsalearn.__all__) == PUBLIC
    for name in rfsalearn.__all__:
        assert hasattr(rfsalearn, name), name
