"""The records: named tuples with the field lists they had as frozen
dataclasses, and the two classes that validate their arguments, whose
attributes cannot be assigned or deleted."""

import numpy as np
import pytest

from cxho import contour, dynamics, fock, maximize, params, wavefunctions
from cxho.fock import StateVec
from cxho.params import validate

FIELDS = {
    params.ModelParams: ("m", "omega", "hbar", "eps", "eps_prime", "r_m",
                         "theta_m", "r_omega", "theta_omega", "momega", "r",
                         "theta", "momega_sq"),
    params.DerivedScales: ("m_eff", "m_herm", "omega_herm", "m_anti",
                           "omega_anti"),
    params.PhaseClassification: ("theory", "region", "potential",
                                 "excluded_corner", "normalizable",
                                 "frame_factor"),
    contour.ContourPath: ("nodes", "weights", "direction",
                          "max_tangent_angle"),
    fock.FockRep: ("params", "n_max", "lowering", "raising", "h", "h_adj",
                   "q_op", "p_op", "q_herm", "p_herm", "h_herm", "h_anti"),
    dynamics.Trajectory: ("t", "amplitude", "q_op", "p_op", "q_herm",
                          "p_herm", "h_herm", "kept"),
    maximize.MaximizationResult: ("a", "b", "duration", "amplitude_abs",
                                  "analytic_max", "ground_overlap",
                                  "degenerate", "iterations", "converged",
                                  "seed", "history"),
    wavefunctions.GramMatrices: ("S", "Qmat", "cross", "condition_number",
                                 "metric_min_eigenvalue"),
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda r: r.__name__)
def test_record_fields(record):
    assert record._fields == FIELDS[record]


@pytest.fixture
def system():
    p = validate(1, 1 - 0.2j)
    return dynamics.TwoStateSystem(StateVec([1, 0, 0, 0]), StateVec([0, 1, 0, 0]),
                                   0.0, 2.0, p, fock.build(p, 4))


def test_state_cannot_be_changed():
    state = StateVec([0.6, 0.8j])
    with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
        state.coeffs = np.zeros(2)
    with pytest.raises(AttributeError):
        state.norm_cache = 1.0
    with pytest.raises(AttributeError, match="cannot delete field 'coeffs'"):
        del state.coeffs
    with pytest.raises(ValueError, match="read-only"):
        state.coeffs[0] = 1.0
    assert state.coeffs.tolist() == [0.6, 0.8j]


@pytest.mark.parametrize("name", ["a0", "b0", "t_a", "t_b", "params", "rep",
                                  "other"])
def test_two_state_system_cannot_be_changed(system, name):
    with pytest.raises(AttributeError):
        setattr(system, name, None)
    with pytest.raises(AttributeError):
        delattr(system, name)
    assert system.t_b == 2.0 and system.a0.coeffs[0] == 1.0


@pytest.mark.parametrize("a_scale, b_scale, message", [
    (1.0, 2.0, "b0 must be metric-normalized, norm = 2.0"),
    (1.5, 2.0, "a0 must be metric-normalized, norm = 1.5"),
    (1.0 + 1e-11, 1.0, "a0 must be metric-normalized, norm = 1.00000000001"),
])
def test_two_state_system_rejects_an_unnormalized_state(system, a_scale,
                                                        b_scale, message):
    with pytest.raises(ValueError) as raised:
        dynamics.TwoStateSystem(StateVec(a_scale * system.a0.coeffs),
                                StateVec(b_scale * system.b0.coeffs),
                                system.t_a, system.t_b, system.params,
                                system.rep)
    assert str(raised.value) == message
