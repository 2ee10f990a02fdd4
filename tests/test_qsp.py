import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qsp_lab.qsp import (
    _f_and_jacobian,
    _f_values,
    _lm,
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


def _reference_unitary(phi, x, k=None):
    """prod_j S(phi_j) W(x) as a loop of 2x2 matrix products; with k given,
    S(phi_k) is replaced by its derivative iZ S(phi_k)."""
    s = np.sqrt(max(1.0 - x * x, 0.0))
    w = np.array([[x, s], [s, -x]], dtype=complex)
    u = np.eye(2, dtype=complex)
    for j, p in enumerate(phi):
        sp = np.diag([np.exp(1j * p), np.exp(-1j * p)])
        u = u @ (np.diag([1j, -1j]) @ sp if j == k else sp) @ w
    return u


long_phase_vectors = st.integers(0, 20).flatmap(
    lambda d: arrays(np.float64, d, elements=st.floats(-np.pi, np.pi))
)


@FEW
@given(
    phi=long_phase_vectors,
    extra=st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=4),
)
def test_carry_matches_loop_reference(phi, extra):
    xs = np.array([-1.0, 0.0, 1.0] + extra)
    f, jac = _f_and_jacobian(phi, xs)
    assert jac.shape == (len(xs), len(phi))
    fv = _f_values(phi, xs)
    for i, x in enumerate(xs):
        ref = _reference_unitary(phi, x)
        assert abs(f[i] - ref[0, 0]) < 1e-12
        assert abs(fv[i] - ref[0, 0]) < 1e-12
        assert np.abs(qsp_scalar_unitary(x, phi) - ref).max() < 1e-12
        for k in range(len(phi)):
            assert abs(jac[i, k] - _reference_unitary(phi, x, k)[0, 0]) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluation_cap_is_quiet():
    # several of this design's LM fits stop at the evaluation cap, which
    # must end the fit without a warning
    assert np.isfinite(optimize_phases(4, 0.37, (0.2, 0.9)).epsilon_poly)


@pytest.mark.parametrize("d, seed, status", [(6, 3, 0), (4, 2, 1)])
def test_lm_call_matches_least_squares(d, seed, status):
    """The designer's MINPACK call takes the same steps as
    least_squares(method="lm") on a fixed weighted fit; the two fits end
    at the evaluation cap (status 0) and on the gradient test (status 1)."""
    m = 4 * (d + 1)
    xs = 0.55 + 0.35 * np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m))
    target = np.exp(-1j * xs * 1.7)
    rng = np.random.default_rng(seed)
    sw = np.sqrt(rng.uniform(0.5, 2.0, m))

    def resid(phi):
        r = (_f_values(phi, xs) - target) * sw
        return np.concatenate([r.real, r.imag])

    def jac(phi):
        j = _f_and_jacobian(phi, xs)[1] * sw[:, None]
        return np.concatenate([j.real, j.imag])

    phi0 = rng.uniform(-0.3, 0.3, d)
    ref = scipy.optimize.least_squares(resid, phi0, jac=jac, method="lm", xtol=1e-14, ftol=1e-14)
    assert ref.status == status
    assert np.array_equal(_lm(resid, jac, phi0), ref.x)


# epsilon_poly of the least_squares designer with the stacked 2x2 product,
# before the row carry.  LM follows the Jacobian's last bits and the search
# is chaotic under roundoff, so a kernel with the same mathematics but other
# rounding moves epsilon in the 8th-9th digit: compare to a tolerance.
DESIGNER_EPSILON = {
    (2, 1.0, (0.0, 1.0)): 0.14926330282777783,
    (2, 1.0, (0.2, 0.9)): 0.09188209310271854,
    (2, 3.3, (0.0, 1.0)): 0.6765314465736996,
    (2, 3.3, (0.2, 0.9)): 0.4639156812041752,
    (4, 1.0, (0.0, 1.0)): 0.1020292567701689,
    (4, 1.0, (0.2, 0.9)): 0.04647922237865277,
    (4, 3.3, (0.0, 1.0)): 0.3126481871894213,
    (4, 3.3, (0.2, 0.9)): 0.14160949752279847,
}


@pytest.mark.parametrize("d, t, interval", list(DESIGNER_EPSILON))
def test_designer_epsilon_pinned(d, t, interval):
    eps = optimize_phases(d, t, interval).epsilon_poly
    assert abs(eps - DESIGNER_EPSILON[d, t, interval]) <= 1e-6 * DESIGNER_EPSILON[d, t, interval]
