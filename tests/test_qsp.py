import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qsp_lab.qsp import (
    _f_and_jacobian,
    _f_values,
    optimize_phases,
    qsp_scalar_unitary,
    validate_qsp_polynomial,
)

FEW = settings(max_examples=25, deadline=None)

phase_vectors = st.integers(1, 8).flatmap(
    lambda d: arrays(np.float64, d, elements=st.floats(-np.pi, np.pi))
)
signals = st.floats(-1.0, 1.0)


@FEW
@given(phi=phase_vectors, x=signals)
def test_scalar_unitary_corner_is_f(phi, x):
    u = qsp_scalar_unitary(x, phi)
    assert abs(u[0, 0] - _f_values(phi, np.array([x]))[0]) < 1e-12
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


@FEW
@given(phi=phase_vectors, xs=arrays(np.float64, 5, elements=st.floats(-0.99, 0.99)))
def test_jacobian_matches_central_differences(phi, xs):
    f, jac = _f_and_jacobian(phi, xs)
    assert np.allclose(f, _f_values(phi, xs), atol=1e-13)
    h = 1e-6
    for k in range(len(phi)):
        step = np.zeros(len(phi))
        step[k] = h
        fd = (_f_values(phi + step, xs) - _f_values(phi - step, xs)) / (2 * h)
        assert np.allclose(jac[:, k], fd, atol=1e-7)


def test_optimized_phases_pass_validation():
    phases = optimize_phases(2, 1.0)
    report = validate_qsp_polynomial(phases)
    assert report["parity_ok"]
    assert report["bounded_ok"]
    assert phases.degree == 2 and len(phases.phases) == 2


even_phase_vectors = st.integers(0, 5).flatmap(
    lambda half: arrays(np.float64, 2 * half, elements=st.floats(-np.pi, np.pi))
)


@FEW
@given(phi=even_phase_vectors, xs=arrays(np.float64, 7, elements=st.floats(-1.0, 1.0)))
def test_even_protocol_properties(phi, xs):
    f = _f_values(phi, xs)
    assert np.allclose(_f_values(phi, -xs), f, atol=1e-12)  # parity
    assert np.all(np.abs(f) <= 1.0 + 1e-12)
    assert np.allclose(np.abs(_f_values(phi, np.array([-1.0, 1.0]))), 1.0, atol=1e-12)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_scalar_unitary_rejects_non_finite_signal(x):
    with pytest.raises(ValueError):
        qsp_scalar_unitary(x, np.zeros(2))


@pytest.mark.parametrize("d, t", [(0, np.nan), (2, np.inf), (2, -np.inf)])
def test_optimize_phases_rejects_non_finite_time(d, t):
    with pytest.raises(ValueError):
        optimize_phases(d, t)
