"""Scalar quantum signal processing machinery.

The signal operator is the reflection W(x) = [[x, s], [s, -x]],
s = sqrt(1-x^2), and the processed unitary is prod_k S(phi_k) W(x) with
S(phi) = diag(e^{i phi}, e^{-i phi}); its top-left entry is the designed
polynomial f(x).  qsp_circuit builds the same product at gate level from a
block encoding W, with APHASE for S.  One kernel, the carry _kernel
builds, carries a row through the product over a grid of g values of x:
the rows r_k = (u_k, v_k) = r_0 S(phi_0) W ... S(phi_{k-1}) W, one
(d+1, 2, g) complex array.  W's rows W_0 = [x, s] and W_1 = [s, -x] are
built once per grid (_signal_rows, shape (2, 2, g)), and each call folds
every S(phi_k) into them in one broadcast product, B_k[i] = e^{+-i phi_k} W_i,
so a step is two numpy calls into buffers the kernel keeps from call to
call: prod[i] = r_k[i] B_k[i], and r_{k+1} = prod[0] + prod[1].  f is the
carry of (1, 0).  On long grids the fold costs more than the calls it saves:
validate_qsp_polynomial's g = 1000 is 1.15-1.65x slower (d = 2 to 10).

The Jacobian takes no second carry.  For x in [-1, 1] the prefix
P_k = S(phi_0) W ... S(phi_{k-1}) W is unitary with determinant (-1)^k, so
its first row r_k fixes it: its second row is (-1)^{k+1} (conj v_k,
-conj u_k).  As dS/dphi = iZ S, df/dphi_k = i [P_k Z P_k^dag P_d]_{00} =
i [(|u_k|^2 - |v_k|^2) u_d + 2 (-1)^{k+d} u_k v_k conj v_d], a few products
of the rows the residual computed (_jacobian).  The bits equal those of
the two-array form that carries u and v apart (the oracle in
tests/test_qsp.py).  |u_k|^2 is summed from real squares: numpy's complex
product leaves a residue in the zero imaginary part of u conj(u) whose sign
follows the operand order, which numpy may swap for a large temporary.

Phase factors for exp(-i x t) on [a, b] in [0, 1] are fitted by least
squares on Chebyshev nodes with a Lawson reweighting polish toward
minimax; the reported error is the max deviation on a ten-times finer
uniform grid.  The seeded restarts mostly land on one or two distinct
polynomials through very different phase vectors, and Lawson polishes
from phase vectors of one polynomial end at nearly the same error (within
1e-3 relative on a d <= 10, t <= 5 grid), so each distinct first fit is
polished once.  Each fit is MINPACK's lmder through scipy.optimize.leastsq
with the arguments least_squares(method="lm") passes to it: the same
search, without least_squares' wrapping of every callback and its extra
Jacobian per solve; full_output=True keeps the evaluation cap quiet.  The
weighted residual and Jacobian reach it as real views of the complex ones,
(Re, Im) per node, the Jacobian as its (d, 2m) transpose (col_deriv=1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .circuits import Circuit, aphase
from .errors import angles, entry, integer, real, spectral_interval

# optimize_phases fits on _GRID_PER_DEGREE * (d + 1) Chebyshev nodes from
# _RESTARTS starts (zero phases, then seeded random ones); each distinct
# first fit is polished by up to _LAWSON_ROUNDS Lawson reweightings, and a
# first fit whose f on the nodes is within _SAME_FIT (max abs) of an earlier
# start's is the same polynomial, so it competes unpolished
_GRID_PER_DEGREE = 4
_RESTARTS = 6
_RESTART_SEED = 0
_LAWSON_ROUNDS = 8
_SAME_FIT = 1e-4


@dataclass
class QSPPhases:
    """Phase factors realizing f(x) ~ exp(-i x t_tilde) on the interval."""

    phases: np.ndarray
    t_tilde: float
    interval: tuple[float, float]
    epsilon_poly: float

    @property
    def degree(self) -> int:
        return len(self.phases)

    def __post_init__(self):
        self.phases = angles(self.phases, "phases")
        if self.degree % 2 != 0:
            raise ValueError("the even-parity protocol needs an even degree")
        real(self.t_tilde, "t_tilde")
        self.interval = spectral_interval(self.interval)
        real(self.epsilon_poly, "epsilon_poly", 0.0)


# the start row (1, 0) at every grid point: f is entry 0 of its last row
_F_START = np.array([[1.0], [0.0]])
_PLUS_MINUS_I = np.array([1j, -1j])


def _signal_rows(xs: np.ndarray) -> np.ndarray:
    """W(x)'s rows [x, s] and [s, -x], s = sqrt(1-x^2), over a grid of x: shape (2, 2, g)."""
    x = np.asarray(xs, dtype=float)
    s = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    return np.array([[x, s], [s, -x]], dtype=complex)


def _kernel(w: np.ndarray, r0: np.ndarray, d: int):
    """The carry over the grid of w = _signal_rows(xs) from the start row r0
    (broadcast to (2, g)): a function of d phases that returns the rows r_k,
    k = 0..d, of prod_k S(phi_k) W, shape (d+1, 2, g), in one buffer that
    each call overwrites."""
    b = np.empty((d,) + w.shape, dtype=complex)
    r = np.empty((d + 1, 2, w.shape[-1]), dtype=complex)
    prod = np.empty(w.shape, dtype=complex)
    p0, p1 = prod
    r[0] = r0
    steps = list(zip(r[:, :, None], b, r[1:]))

    def carry(phi: np.ndarray) -> np.ndarray:
        # b[k, i] = e^{+-i phi_k} W_i: S(phi_k) folded into W's rows
        np.multiply(np.exp(np.multiply.outer(phi, _PLUS_MINUS_I))[:, :, None, None], w, b)
        for rk, bk, rk1 in steps:
            np.multiply(rk, bk, prod)  # prod[i] = r_k[i] B_k[i]
            np.add(p0, p1, rk1)
        return r

    return carry


def _jacobian(r: np.ndarray) -> np.ndarray:
    """df/dphi_k, shape (d, g), from the rows r of a carry from (1, 0), x in [-1, 1]."""
    u, v, (ud, vd) = r[:-1, 0], r[:-1, 1], r[-1]
    sq = np.square(r[:-1].view(float))  # (d, 2, 2g): the squared parts of u_k, then of v_k
    p = sq[:, 0] - sq[:, 1]
    uv = u * v
    np.negative(uv[-1::-2], out=uv[-1::-2])  # (-1)^(k+d) u_k v_k
    return (p[:, ::2] + p[:, 1::2]) * (1j * ud) + uv * (2j * vd.conj())


def qsp_scalar_unitary(x: float, phases: QSPPhases | np.ndarray) -> np.ndarray:
    """Product over k of S(phi_k) W(x); f(x) is the [0, 0] entry."""
    phi = angles(phases.phases if isinstance(phases, QSPPhases) else phases, "phases")
    if abs(real(x, "signal value")) > 1.0 + 1e-12:
        raise ValueError(f"signal value must be in [-1, 1], got {x!r}")
    # grid point j carries row j of the identity, so the last rows are U's transpose
    w = _signal_rows(np.full(2, float(np.clip(x, -1.0, 1.0))))
    return _kernel(w, np.eye(2), len(phi))(phi)[-1].T


def qsp_circuit(encoding: Circuit, phases: QSPPhases | np.ndarray) -> Circuit:
    """The QSP circuit prod_k APHASE(phi_k) W of the block encoding W, in
    application order W, APHASE(phi_{d-1}), ..., W, APHASE(phi_0).

    When W is a reflection (W^2 = I), APHASE(phi) acts as S(phi) on each of
    its qubitized 2-D subspaces (Low & Chuang, arXiv:1610.06546), so the
    circuit's ancilla-zero block is f(B), B that of W and f the [0, 0]
    entry of qsp_scalar_unitary.  The APHASE gates stay undecomposed; the
    simulators and count_two_qubit_gates read them as decompose() does.
    """
    phi = angles(phases.phases if isinstance(phases, QSPPhases) else phases, "phases")
    out = Circuit(entry(encoding, Circuit, "encoding").n_system, encoding.n_ancilla)
    for p in phi[::-1]:
        out.extend(encoding.gates)
        out.append(aphase(float(p)))
    return out


def _f_values(phi: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Vectorized f(x) over a grid."""
    return _kernel(_signal_rows(xs), _F_START, len(phi))(phi)[-1, 0]


def _lm(resid, jac, phi0: np.ndarray) -> np.ndarray:
    """MINPACK lmder with the arguments least_squares(method="lm") passes; jac gives J^T."""
    return scipy.optimize.leastsq(resid, phi0, Dfun=jac, col_deriv=1, ftol=1e-14, xtol=1e-14, gtol=1e-8,
                                  maxfev=100 * len(phi0), factor=100.0, full_output=True)[0]


def optimize_phases(d: int, t_tilde: float, interval: tuple[float, float] = (0.0, 1.0)) -> QSPPhases:
    """Fit phase factors to exp(-i x t_tilde) on [a, b].

    Least squares on Chebyshev nodes (analytic Jacobian, seeded
    restarts), then Lawson reweighting to flatten the error toward
    minimax; epsilon_poly is the exact max error on a 10x finer
    uniform grid.  Restarts whose first fits reach the same polynomial
    (f on the nodes within _SAME_FIT) are polished once, from the first
    of them; the others compete with their first fit.  Best candidate
    wins by (epsilon, phase norm).
    """
    real(t_tilde, "t_tilde")
    a, b = spectral_interval(interval)
    if integer(d, "degree") % 2 != 0:
        raise ValueError(f"degree must be even, got {d!r}")
    m = _GRID_PER_DEGREE * (d + 1)
    xv = np.linspace(a, b, 10 * m)
    fine, target_v = _kernel(_signal_rows(xv), _F_START, d), np.exp(-1j * xv * t_tilde)

    def max_error(phi: np.ndarray) -> float:
        return float(np.max(np.abs(fine(phi)[-1, 0] - target_v)))

    if d == 0:
        return QSPPhases(np.zeros(0), t_tilde, (a, b), max_error(np.zeros(0)))
    xs = (a + b) / 2.0 + (b - a) / 2.0 * np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m))
    carry, target = _kernel(_signal_rows(xs), _F_START, d), np.exp(-1j * xs * t_tilde)
    rng = np.random.default_rng(_RESTART_SEED)
    last = [b"", None]  # the bytes of the last phi and its rows: lmder asks for J there

    def rows(phi: np.ndarray) -> np.ndarray:
        key = phi.tobytes()
        if key != last[0]:
            last[:] = key, carry(phi)
        return last[1]

    def solve(phi0: np.ndarray, weights: np.ndarray) -> np.ndarray:
        sw = np.repeat(np.sqrt(weights), 2)  # one weight per real and imaginary part

        def resid(phi):
            return (rows(phi)[-1, 0] - target).view(float) * sw

        def jac(phi):
            return _jacobian(rows(phi)).view(float) * sw

        return _lm(resid, jac, phi0)

    starts = [np.zeros(d)] + [rng.uniform(-0.3, 0.3, size=d) for _ in range(_RESTARTS - 1)]
    best_phi, best_eps = None, np.inf
    first_fits: list[np.ndarray] = []
    for phi0 in starts:
        weights = np.ones(m)
        phi = solve(phi0, weights)
        eps = max_error(phi)
        if eps < best_eps - 1e-15 or (
            abs(eps - best_eps) <= 1e-15 and np.linalg.norm(phi) < np.linalg.norm(best_phi)
        ):
            best_phi, best_eps = phi, eps
        f = rows(phi)[-1, 0]
        if any(np.max(np.abs(f - g)) <= _SAME_FIT for g in first_fits):
            continue  # an earlier start reached this polynomial and polished it
        first_fits.append(f.copy())
        # Lawson polish: push the residual profile toward equioscillation
        for _ in range(_LAWSON_ROUNDS):
            r = np.abs(rows(phi)[-1, 0] - target)
            if r.max() <= 1e-15:
                break
            weights = weights * np.maximum(r, 1e-15)
            weights = weights / weights.sum() * m
            phi = solve(phi, weights)
            eps = max_error(phi)
            if eps < best_eps - 1e-15:
                best_phi, best_eps = phi, eps
    return QSPPhases(best_phi, t_tilde, (a, b), float(best_eps))


def validate_qsp_polynomial(phases: QSPPhases) -> dict:
    """Grid checks of the protocol conditions on 1000 points: parity and |f| <= 1."""
    xs, phi = np.linspace(0.0, 1.0, 1000), phases.phases
    parity_err = float(np.max(np.abs(_f_values(phi, -xs) - _f_values(phi, xs))))
    max_abs = float(np.max(np.abs(_f_values(phi, np.linspace(-1.0, 1.0, 1000)))))
    return {
        "parity_error": parity_err,
        "parity_ok": parity_err < 1e-9,
        "max_abs_f": max_abs,
        "bounded_ok": max_abs <= 1.0 + 1e-9,
    }
