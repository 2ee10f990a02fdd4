import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qsp_lab import qsp
from qsp_lab.circuits import Circuit, aphase, count_two_qubit_gates, decompose, had
from qsp_lab.lcu import build_lcu_circuit, encoded_block, lcu_plan
from qsp_lab.operators import build_ising_chain, rescale, triangle_bounds
from qsp_lab.qsp import (
    QSPPhases,
    _f_values,
    _lm,
    optimize_phases,
    qsp_circuit,
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
    rows = qsp._kernel(qsp._signal_rows(xs), qsp._F_START, len(phi))(phi)
    f, jac = rows[-1, 0], qsp._jacobian(rows).T
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
    assert set(report) == {"parity_error", "parity_ok", "max_abs_f", "bounded_ok"}
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


@pytest.mark.parametrize("x", [1j, 0.5 + 0j, "0.5", None])
def test_scalar_unitary_rejects_non_real_signal(x):
    # a complex x must not be read as its real part
    with pytest.raises(ValueError, match="signal value must be a finite real number"):
        qsp_scalar_unitary(x, np.zeros(2))


@pytest.mark.parametrize("x", [1.0 + 2e-12, -1.5])
def test_scalar_unitary_rejects_signal_outside_the_interval(x):
    with pytest.raises(ValueError, match=r"^signal value must be in \[-1, 1\]"):
        qsp_scalar_unitary(x, np.array([0.3, -0.7, 1.1]))


def test_scalar_unitary_clips_roundoff_past_one():
    # within the 1e-12 tolerance a signal is clipped to the interval's end
    phi = np.array([0.3, -0.7, 1.1])
    assert np.array_equal(qsp_scalar_unitary(1.0 + 5e-13, phi), qsp_scalar_unitary(1.0, phi))


@pytest.mark.parametrize("interval", [(0.5, 0.2), (0.3, 0.3), (-0.1, 1.0), (0.0, 1.1), (0.0, 1j), (np.nan, 1.0)])
def test_optimize_phases_rejects_bad_interval(interval):
    with pytest.raises(ValueError, match="interval must hold two reals with 0 <= a < b <= 1"):
        optimize_phases(2, 1.0, interval)


def test_degree_zero_design_has_no_phases():
    # f is the constant 1, so epsilon is max |1 - e^{-ixt}| on the fine grid,
    # 2 sin(bt/2) at its right end when bt <= pi
    t, (a, b) = 2.0, (0.1, 0.8)
    phases = optimize_phases(0, t, (a, b))
    xv = np.linspace(a, b, 10 * qsp._GRID_PER_DEGREE)
    assert phases.degree == 0 and phases.phases.shape == (0,)
    assert phases.epsilon_poly == np.max(np.abs(1.0 - np.exp(-1j * xv * t)))
    assert phases.epsilon_poly == pytest.approx(2.0 * np.sin(b * t / 2.0), rel=1e-14)


@pytest.mark.parametrize("d, t", [(0, np.nan), (2, np.inf), (2, -np.inf), pytest.param(2, 1j, id="2-non-real")])
def test_optimize_phases_rejects_non_finite_time(d, t):
    with pytest.raises(ValueError):
        optimize_phases(d, t)


@pytest.mark.parametrize("d", [2.0, 1.5, "2", None, -2, 3])
def test_optimize_phases_rejects_degree_that_is_not_a_nonnegative_even_integer(d):
    with pytest.raises(ValueError):
        optimize_phases(d, 1.0)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_exact_fit_ends_the_lawson_polish(d, monkeypatch):
    # at t = 0 the zero phases fit f = 1 exactly (W^2 = I), so the first start's polish
    # stops before its first refit, and each later start's first fit is the same polynomial
    calls = []
    monkeypatch.setattr(qsp, "_lm", lambda *args: calls.append(args) or _lm(*args))
    phases = optimize_phases(d, 0.0)
    assert np.array_equal(phases.phases, np.zeros(d)) and phases.epsilon_poly <= 1e-15
    assert len(calls) == qsp._RESTARTS


def test_optimize_phases_accepts_numpy_integer_degree():
    assert optimize_phases(np.int64(2), 1.0).epsilon_poly == optimize_phases(2, 1.0).epsilon_poly


def test_optimize_phases_accepts_numpy_float_time():
    assert optimize_phases(2, np.float64(1.0)).t_tilde == 1.0


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
    rows = qsp._kernel(qsp._signal_rows(xs), qsp._F_START, len(phi))(phi)
    f, jac = rows[-1, 0], qsp._jacobian(rows).T
    assert jac.shape == (len(xs), len(phi))
    fv = _f_values(phi, xs)
    for i, x in enumerate(xs):
        ref = _reference_unitary(phi, x)
        assert abs(f[i] - ref[0, 0]) < 1e-12
        assert abs(fv[i] - ref[0, 0]) < 1e-12
        assert np.abs(qsp_scalar_unitary(x, phi) - ref).max() < 1e-12
        for k in range(len(phi)):
            assert abs(jac[i, k] - _reference_unitary(phi, x, k)[0, 0]) < 1e-12


def _two_array_carry(phi, x, s, r0, r1):
    """The row carry as two (d+1, g) arrays, one per column: rows j = 0..d
    from the start row (r0, r1) over grids x and s = sqrt(1-x^2), with
    S(phi_k) multiplied into W's entries before the row meets them.  The
    stacked kernel must match it bit for bit."""
    u = np.empty((len(phi) + 1, len(x)), dtype=complex)
    v = np.empty_like(u)
    u[0], v[0] = r0, r1
    for k, (e, e_bar) in enumerate(zip(np.exp(1j * phi), np.exp(-1j * phi))):
        u[k + 1] = u[k] * (e * x) + v[k] * (e_bar * s)
        v[k + 1] = u[k] * (e * s) + v[k] * (e_bar * -x)
    return u, v


def _two_array_jacobian(u, v):
    """df/dphi_k, shape (d, g), from the two-array rows alone:
    i (|u_k|^2 - |v_k|^2) u_d + 2i (-1)^(k+d) u_k v_k conj(v_d)."""
    uv = u[:-1] * v[:-1]
    uv[-1::-2] = -uv[-1::-2]
    p = (u[:-1].real ** 2 - v[:-1].real ** 2) + (u[:-1].imag ** 2 - v[:-1].imag ** 2)
    return p * (1j * u[-1]) + uv * (2j * v[-1].conj())


@FEW
@given(
    phi=long_phase_vectors,
    xs=arrays(np.float64, st.integers(1, 1000), elements=st.floats(-1.0, 1.0)),
)
def test_kernel_bit_identical_to_two_array_carry(phi, xs):
    """The stacked kernel rounds exactly as the two-array one: the same rows,
    Jacobian and unitary, bit for bit, at every grid size."""
    s = np.sqrt(np.clip(1.0 - xs**2, 0.0, None))
    u, v = _two_array_carry(phi, xs, s, 1.0, 0.0)
    jac = _two_array_jacobian(u, v)
    rows = qsp._kernel(qsp._signal_rows(xs), qsp._F_START, len(phi))(phi)
    assert np.array_equal(rows[:, 0], u) and np.array_equal(rows[:, 1], v)
    assert np.array_equal(qsp._jacobian(rows), jac)
    assert np.array_equal(_f_values(phi, xs), u[-1])
    x2 = np.full(2, xs[0])
    u2, v2 = _two_array_carry(phi, x2, s[:1].repeat(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.array_equal(qsp_scalar_unitary(xs[0], phi), np.stack([u2[-1], v2[-1]], axis=1))


@pytest.fixture
def carry_runs(monkeypatch):
    """A list that gets one entry each time a carry kernel runs."""
    runs, kernel = [], qsp._kernel

    def counting_kernel(*args):
        carry = kernel(*args)
        return lambda phi: runs.append(len(phi)) or carry(phi)

    monkeypatch.setattr(qsp, "_kernel", counting_kernel)
    return runs


def test_designer_residual_and_jacobian_at_one_phi_run_one_carry(carry_runs, monkeypatch):
    """lmder asks for the Jacobian at the phi of its last residual: that pair
    of callbacks runs the kernel once, from every start and Lawson round."""
    runs_per_pair = []

    def probing(resid, jac, phi0):
        phi = phi0 + 0.25  # no callback has seen it yet
        before = len(carry_runs)
        resid(phi)
        jac(phi)
        runs_per_pair.append(len(carry_runs) - before)
        return _lm(resid, jac, phi0)

    monkeypatch.setattr(qsp, "_lm", probing)
    optimize_phases(2, 1.0)
    assert runs_per_pair == [1] * (6 + 8)


@pytest.mark.parametrize("d, t, interval", [(4, 1.0, (0.0, 1.0)), (2, 3.3, (0.2, 0.9))])
def test_epsilon_is_the_fine_grid_error_of_the_returned_phases(d, t, interval):
    """epsilon_poly, recomputed from scratch for the phases returned: a stale
    per-grid buffer in the designer would show here."""
    phases = optimize_phases(d, t, interval)
    xv = np.linspace(*interval, 10 * qsp._GRID_PER_DEGREE * (d + 1))
    assert phases.epsilon_poly == np.max(np.abs(_f_values(phases.phases, xv) - np.exp(-1j * xv * t)))


@pytest.mark.parametrize("phases", [
    [[0.1, 0.2], [0.3, 0.4]], [np.nan, 0.0], [0.0, np.inf], [1j, 0.0], ["a", "b"], [None, None], 0.5,
], ids=["2-d", "nan", "inf", "complex", "strings", "none", "scalar"])
def test_malformed_phases_rejected(phases):
    with pytest.raises(ValueError):
        qsp_scalar_unitary(0.5, phases)
    with pytest.raises(ValueError):
        QSPPhases(phases, 1.0, (0.0, 1.0), 0.1)
    with pytest.raises(ValueError):
        qsp_circuit(Circuit(1, 1).append(had(0)), phases)


def test_integer_phases_accepted():
    assert np.array_equal(qsp_scalar_unitary(0.5, [0, 1]), qsp_scalar_unitary(0.5, [0.0, 1.0]))
    assert QSPPhases([0, 1], 1.0, (0.0, 1.0), 0.1).degree == 2


def test_odd_degree_record_rejected():
    with pytest.raises(ValueError, match="needs an even degree"):
        QSPPhases(np.zeros(3), 1.0, (0.0, 1.0), 0.1)


@pytest.mark.parametrize("field, value", [
    ("t_tilde", 1j), ("t_tilde", np.nan), ("t_tilde", None),
    ("interval", (2, -1)), ("interval", (0.5, 0.2)), ("interval", (0.0, 1j)), ("interval", (-0.5, 0.5)),
    ("interval", 0.5), ("interval", (0.1, 0.2, 0.3)), ("interval", "01"),
    ("epsilon_poly", np.nan), ("epsilon_poly", -0.1), ("epsilon_poly", 0.1j),
])
def test_malformed_phase_record_rejected(field, value):
    fields = dict(phases=np.zeros(2), t_tilde=1.0, interval=(0.0, 1.0), epsilon_poly=0.1)
    with pytest.raises(ValueError, match=f"^{field} must"):
        QSPPhases(**{**fields, field: value})


def test_numpy_float_record_fields_accepted():
    record = QSPPhases(np.zeros(2), np.float64(1.0), (np.float64(0.2), 1), np.float64(0.0))
    assert record.interval == (0.2, 1) and record.epsilon_poly == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluation_cap_is_quiet():
    # several of this design's LM fits stop at the evaluation cap, which
    # must end the fit without a warning
    assert np.isfinite(optimize_phases(4, 0.37, (0.2, 0.9)).epsilon_poly)


@pytest.mark.parametrize("d, seed, status", [(6, 3, 0), (4, 2, 1)])
def test_lm_call_matches_least_squares(d, seed, status):
    """The designer's MINPACK call takes the same steps as
    least_squares(method="lm") on a fixed weighted fit, with the residual
    and Jacobian laid out as the designer lays them out: complex values
    viewed as (Re, Im) pairs, and the Jacobian transposed for _lm.  The two
    fits end at the evaluation cap (status 0) and on the gradient test
    (status 1)."""
    m = 4 * (d + 1)
    xs = 0.55 + 0.35 * np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m))
    target = np.exp(-1j * xs * 1.7)
    rng = np.random.default_rng(seed)
    sw = np.repeat(np.sqrt(rng.uniform(0.5, 2.0, m)), 2)
    carry = qsp._kernel(qsp._signal_rows(xs), qsp._F_START, d)

    def resid(phi):
        return (_f_values(phi, xs) - target).view(float) * sw

    def jac_rows(phi):
        return qsp._jacobian(carry(phi)).view(float) * sw

    phi0 = rng.uniform(-0.3, 0.3, d)
    ref = scipy.optimize.least_squares(resid, phi0, jac=lambda phi: jac_rows(phi).T, method="lm",
                                       xtol=1e-14, ftol=1e-14)
    assert ref.status == status
    assert np.array_equal(_lm(resid, jac_rows, phi0), ref.x)


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


@pytest.mark.parametrize("d, fits", [(2, 6 + 8), (4, 6 + 2 * 8)])
def test_designer_polishes_each_distinct_fit_once(monkeypatch, d, fits):
    """The six restarts land on one polynomial at d = 2 and on two at d = 4;
    each distinct one gets its 8 Lawson rounds once."""
    calls = []

    def counting(*args):
        calls.append(args)
        return _lm(*args)

    monkeypatch.setattr(qsp, "_lm", counting)
    optimize_phases(d, 1.0, (0.0, 1.0))
    assert len(calls) == fits


def lp_lower_bound(d, t, interval, angles=16):
    """Least max error of any even degree-d polynomial p with |p| <= 1 on
    [0, 1] against exp(-i x t) on the designer's fine grid, relaxed to a
    linear program: |z| <= r becomes Re(z e^{-i theta_k}) <= r at the given
    number of angles, a polygon around the disc.  The designer's f is such a
    polynomial, so its epsilon_poly can be no lower; the relaxation drops
    |f(+-1)| = 1."""
    a, b = interval
    m = qsp._GRID_PER_DEGREE * (d + 1)
    xv, x1 = np.linspace(a, b, 10 * m), np.linspace(0.0, 1.0, 10 * m)
    # even Chebyshev polynomials T_0, T_2, ..., T_d on each grid
    tv, t1 = (np.cos(np.outer(np.arccos(x), np.arange(0, d + 1, 2))) for x in (xv, x1))
    target = np.exp(-1j * xv * t)
    rows, rhs = [], []
    for theta in 2 * np.pi * np.arange(angles) / angles:
        c, s = np.cos(theta), np.sin(theta)
        # variables: Re and Im of the Chebyshev coefficients, then the error r
        rows.append(np.hstack([c * tv, s * tv, -np.ones((len(xv), 1))]))
        rhs.append((target * np.exp(-1j * theta)).real)
        rows.append(np.hstack([c * t1, s * t1, np.zeros((len(x1), 1))]))
        rhs.append(np.ones(len(x1)))
    n = 2 * (d // 2 + 1) + 1
    res = scipy.optimize.linprog(np.eye(n)[-1], A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                                 bounds=[(None, None)] * n, method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("d, t, interval", list(DESIGNER_EPSILON))
def test_designer_epsilon_above_lp_lower_bound(d, t, interval):
    bound = lp_lower_bound(d, t, interval)
    assert 0.0 < bound <= DESIGNER_EPSILON[d, t, interval]


# the 2-site chain's exact LCU encoding: W is a reflection with a = 3 ancillas
TWO_SITE = build_ising_chain(2, 1.0, [0.7, 1.1], 0.3)


@pytest.mark.parametrize("d", [2, 4])
def test_qsp_circuit_block_is_f_of_the_encoded_block(d):
    h_tilde = rescale(TWO_SITE, triangle_bounds(TWO_SITE)).h_tilde
    w = build_lcu_circuit(lcu_plan(h_tilde)).circuit
    phases = optimize_phases(d, 1.0)
    circuit = qsp_circuit(w, phases)
    lam, vecs = np.linalg.eigh(encoded_block(w))
    f = np.array([qsp_scalar_unitary(x, phases)[0, 0] for x in lam])
    assert np.abs(encoded_block(circuit) - (vecs * f) @ vecs.conj().T).max() < 1e-10
    n_w = count_two_qubit_gates(decompose(w))
    n_aphase = count_two_qubit_gates(decompose(Circuit(w.n_system, w.n_ancilla).append(aphase(0.3))))
    assert (n_w, n_aphase) == (46, 5)
    assert count_two_qubit_gates(decompose(circuit)) == d * (n_w + n_aphase)


def test_qsp_circuit_application_order():
    w = Circuit(1, 1).append(had(0))
    phases = np.array([0.1, 0.2, 0.3, 0.4])
    expected = ()
    for phi in (0.4, 0.3, 0.2, 0.1):
        expected += (had(0), aphase(phi))
    assert qsp_circuit(w, phases).gates == expected
    assert qsp_circuit(w, QSPPhases(phases, 1.0, (0.0, 1.0), 0.1)).gates == expected
    assert w.gates == (had(0),)
