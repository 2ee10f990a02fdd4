"""Scalar quantum signal processing machinery.

The signal operator is the reflection W(x) = [[x, s], [s, -x]],
s = sqrt(1-x^2), and the processed unitary is prod_k S(phi_k) W(x) with
S(phi) = diag(e^{i phi}, e^{-i phi}); its top-left entry is the designed
polynomial f(x).  One kernel, _carry, carries a single row through the
product over a grid of x as two complex arrays, r_{j+1} = (r_j S(phi_j)) W;
f is the carry of (1, 0).  As dS/dphi = iZ S, df/dphi_k =
i (u_k e^{i phi_k} c0_k - v_k e^{-i phi_k} c1_k), with (u_k, v_k) row k of
that carry and (c0_k, c1_k) column 0 of W S(phi_{k+1}) W ... S(phi_{d-1}) W.
W and S are symmetric, so that column is the carry of the reversed phases
from row 0 of W, (x, s): the Jacobian is a second call of the same kernel.

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
Jacobian per solve; full_output=True keeps the evaluation cap quiet.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

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
        if self.degree % 2 != 0:
            raise ValueError("the even-parity protocol needs an even degree")


def _sqrt1m(xs: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(1.0 - xs**2, 0.0, None))


def _carry(phi: np.ndarray, x: np.ndarray, s: np.ndarray, r0, r1) -> tuple[np.ndarray, np.ndarray]:
    """Rows j = 0..d of the carry from the start row (r0, r1) over grids x and
    s = sqrt(1-x^2) of shape (g,), as two (d+1, g) arrays, one per column."""
    u = np.empty((len(phi) + 1, len(x)), dtype=complex)
    v = np.empty_like(u)
    u[0], v[0] = r0, r1
    for k, e in enumerate(np.exp(1j * np.asarray(phi, dtype=float))):
        a, b = u[k] * e, v[k] * e.conjugate()
        u[k + 1] = a * x + b * s
        v[k + 1] = a * s - b * x
    return u, v


def _jacobian(phi: np.ndarray, x: np.ndarray, s: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """df/dphi_k, shape (d, g), from the forward rows (u, v) of _carry."""
    e = np.exp(1j * phi)[:, None]
    c0, c1 = _carry(phi[:0:-1], x, s, x, s)
    return 1j * (u[:-1] * e * c0[::-1] - v[:-1] * e.conj() * c1[::-1])


def qsp_scalar_unitary(x: float, phases: QSPPhases | np.ndarray) -> np.ndarray:
    """Product over k of S(phi_k) W(x); f(x) is the [0, 0] entry."""
    phi = phases.phases if isinstance(phases, QSPPhases) else np.asarray(phases)
    if not abs(x) <= 1.0 + 1e-12:
        raise ValueError("signal value must be a finite number in [-1, 1]")
    xs = np.full(2, float(np.clip(x, -1.0, 1.0)))
    u, v = _carry(phi, xs, _sqrt1m(xs), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    return np.stack([u[-1], v[-1]], axis=1)


def _f_values(phi: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Vectorized f(x) over a grid."""
    return _carry(phi, xs, _sqrt1m(xs), 1.0, 0.0)[0][-1]


def _f_and_jacobian(phi: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(x) and df/dphi_k over the grid, shape (g, d)."""
    s = _sqrt1m(xs)
    u, v = _carry(phi, xs, s, 1.0, 0.0)
    return u[-1], _jacobian(phi, xs, s, u, v).T


def _lm(resid, jac, phi0: np.ndarray) -> np.ndarray:
    """MINPACK lmder with the arguments least_squares(method="lm") passes."""
    return scipy.optimize.leastsq(resid, phi0, Dfun=jac, ftol=1e-14, xtol=1e-14, gtol=1e-8,
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
    a, b = interval
    if not np.isfinite(t_tilde):
        raise ValueError("t_tilde must be finite")
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("interval must satisfy 0 <= a < b <= 1")
    if not isinstance(d, (int, np.integer)) or d % 2 != 0 or d < 0:
        raise ValueError("degree must be a nonnegative even integer")
    m = _GRID_PER_DEGREE * (d + 1)
    xv = np.linspace(a, b, 10 * m)
    sv, target_v = _sqrt1m(xv), np.exp(-1j * xv * t_tilde)

    def max_error(phi: np.ndarray) -> float:
        return float(np.max(np.abs(_carry(phi, xv, sv, 1.0, 0.0)[0][-1] - target_v)))

    if d == 0:
        return QSPPhases(np.zeros(0), t_tilde, (a, b), max_error(np.zeros(0)))
    xs = (a + b) / 2.0 + (b - a) / 2.0 * np.cos(np.pi * (2 * np.arange(m) + 1) / (2 * m))
    s, target = _sqrt1m(xs), np.exp(-1j * xs * t_tilde)
    rng = np.random.default_rng(_RESTART_SEED)
    last = [None, None]  # the last phi and its forward rows: lmder asks for J there

    def rows(phi: np.ndarray):
        if not np.array_equal(last[0], phi):
            last[:] = phi.copy(), _carry(phi, xs, s, 1.0, 0.0)
        return last[1]

    def solve(phi0: np.ndarray, weights: np.ndarray) -> np.ndarray:
        sw = np.sqrt(weights)

        def resid(phi):
            r = (rows(phi)[0][-1] - target) * sw
            return np.concatenate([r.real, r.imag])

        def jac(phi):
            jw = _jacobian(phi, xs, s, *rows(phi)) * sw
            return np.concatenate([jw.real, jw.imag], axis=1).T

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
        f = rows(phi)[0][-1]
        if any(np.max(np.abs(f - g)) <= _SAME_FIT for g in first_fits):
            continue  # an earlier start reached this polynomial and polished it
        first_fits.append(f)
        # Lawson polish: push the residual profile toward equioscillation
        for _ in range(_LAWSON_ROUNDS):
            r = np.abs(rows(phi)[0][-1] - target)
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
        "degree": phases.degree,
        "parity_error": parity_err,
        "parity_ok": parity_err < 1e-9,
        "max_abs_f": max_abs,
        "bounded_ok": max_abs <= 1.0 + 1e-9,
        "epsilon_poly": phases.epsilon_poly,
    }
