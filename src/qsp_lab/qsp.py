"""Scalar quantum signal processing machinery.

The signal operator is the reflection W(x) = [[x, sqrt(1-x^2)],
[sqrt(1-x^2), -x]] and the processed unitary is the product
prod_k S(phi_k) W(x) whose top-left entry is the designed polynomial
f(x).  Phase factors for the target exp(-i x t) on an interval
[a, b] in [0, 1] are found by least squares on Chebyshev nodes with a
Lawson-style reweighting polish toward the minimax solution, and the
reported error is the max deviation on a ten-times finer uniform grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

# optimize_phases fits on _GRID_PER_DEGREE * (d + 1) Chebyshev nodes from
# _RESTARTS starts (zero phases, then seeded random ones), each polished by
# up to _LAWSON_ROUNDS Lawson reweightings
_GRID_PER_DEGREE = 4
_RESTARTS = 6
_RESTART_SEED = 0
_LAWSON_ROUNDS = 8


@dataclass
class QSPPhases:
    """Phase factors realizing f(x) ~ exp(-i x t_tilde) on the interval."""

    phases: np.ndarray
    degree: int
    t_tilde: float
    interval: tuple[float, float]
    epsilon_poly: float

    def __post_init__(self):
        if self.degree % 2 != 0 or self.degree < 0:
            raise ValueError("the even-parity protocol needs an even degree")
        if len(self.phases) != self.degree:
            raise ValueError("phase count must equal the degree")


def _signal(xs: np.ndarray) -> np.ndarray:
    """W(x) stacked over a grid of signal values, shape (g, 2, 2)."""
    s = np.sqrt(np.clip(1.0 - xs**2, 0.0, None))
    w = np.empty((len(xs), 2, 2), dtype=complex)
    w[:, 0, 0], w[:, 0, 1] = xs, s
    w[:, 1, 0], w[:, 1, 1] = s, -xs
    return w


def _prefix_products(phi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """P_j = prod_{k<j} S(phi_k) W(x) for j = 0..d, stacked over the grid of w.

    Shape (d+1, g, 2, 2); P_d is the processed unitary and P_0 = I.
    """
    out = np.empty((len(phi) + 1,) + w.shape, dtype=complex)
    out[0] = np.eye(2)
    for k, p in enumerate(phi):
        sp = np.array([np.exp(1j * p), np.exp(-1j * p)])
        out[k + 1] = (out[k] * sp[None, None, :]) @ w
    return out


def qsp_scalar_unitary(x: float, phases: QSPPhases | np.ndarray) -> np.ndarray:
    """Product over k of S(phi_k) W(x); f(x) is the [0, 0] entry."""
    phi = phases.phases if isinstance(phases, QSPPhases) else np.asarray(phases)
    if not abs(x) <= 1.0 + 1e-12:
        raise ValueError("signal value must be a finite number in [-1, 1]")
    xc = float(np.clip(x, -1.0, 1.0))
    return _prefix_products(phi, _signal(np.array([xc])))[-1, 0]


def _f_values(phi: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Vectorized f(x) over a grid."""
    return _prefix_products(phi, _signal(xs))[-1, :, 0, 0]


def _f_and_jacobian(phi: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(x) and df/dphi_k over the grid.

    dS(phi)/dphi = iZ S(phi), and the product after step k is P_{k+1}^dag P_d
    (the factors are unitary), so df/dphi_k = [P_k iZ P_k^dag P_d]_00.
    """
    pre = _prefix_products(phi, _signal(xs))
    top = pre[:-1, :, 0, :]  # (d, g, 2): row 0 of each P_k
    zrow = top * np.array([1j, -1j])  # row 0 of P_k iZ
    last = pre[-1, :, :, 0]  # (g, 2): column 0 of P_d
    jac = np.einsum("kgc,kgbc,gb->gk", zrow, pre[:-1].conj(), last)
    return pre[-1, :, 0, 0], jac


def _chebyshev_nodes(a: float, b: float, m: int) -> np.ndarray:
    j = np.arange(m)
    return (a + b) / 2.0 + (b - a) / 2.0 * np.cos(np.pi * (2 * j + 1) / (2 * m))


def _max_error(phi: np.ndarray, t: float, a: float, b: float, n_points: int) -> float:
    xs = np.linspace(a, b, n_points)
    return float(np.max(np.abs(_f_values(phi, xs) - np.exp(-1j * xs * t))))


def optimize_phases(
    d: int,
    t_tilde: float,
    interval: tuple[float, float] = (0.0, 1.0),
) -> QSPPhases:
    """Fit phase factors to exp(-i x t_tilde) on [a, b].

    Least squares on Chebyshev nodes (analytic Jacobian, seeded
    restarts), then Lawson reweighting to flatten the error toward
    minimax; epsilon_poly is the exact max error on a 10x finer
    uniform grid.  Best candidate wins by (epsilon, phase norm).
    """
    a, b = interval
    if not np.isfinite(t_tilde):
        raise ValueError("t_tilde must be finite")
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("interval must satisfy 0 <= a < b <= 1")
    if d % 2 != 0 or d < 0:
        raise ValueError("degree must be a nonnegative even integer")
    m = _GRID_PER_DEGREE * (d + 1)
    n_validate = 10 * m
    if d == 0:
        eps = _max_error(np.zeros(0), t_tilde, a, b, n_validate)
        return QSPPhases(np.zeros(0), 0, t_tilde, (a, b), eps)
    xs = _chebyshev_nodes(a, b, m)
    target = np.exp(-1j * xs * t_tilde)
    rng = np.random.default_rng(_RESTART_SEED)

    def solve(phi0: np.ndarray, weights: np.ndarray) -> np.ndarray:
        sw = np.sqrt(weights)

        def resid(phi):
            f = _f_values(phi, xs)
            r = (f - target) * sw
            return np.concatenate([r.real, r.imag])

        def jac(phi):
            _, jcplx = _f_and_jacobian(phi, xs)
            jw = jcplx * sw[:, None]
            return np.concatenate([jw.real, jw.imag])

        res = scipy.optimize.least_squares(resid, phi0, jac=jac, method="lm", xtol=1e-14, ftol=1e-14)
        return res.x

    starts = [np.zeros(d)]
    for _ in range(_RESTARTS - 1):
        starts.append(rng.uniform(-0.3, 0.3, size=d))
    best_phi, best_eps = None, np.inf
    for phi0 in starts:
        weights = np.ones(m)
        phi = solve(phi0, weights)
        eps = _max_error(phi, t_tilde, a, b, n_validate)
        if eps < best_eps - 1e-15 or (
            abs(eps - best_eps) <= 1e-15 and np.linalg.norm(phi) < np.linalg.norm(best_phi)
        ):
            best_phi, best_eps = phi, eps
        # Lawson polish: push the residual profile toward equioscillation
        for _ in range(_LAWSON_ROUNDS):
            r = np.abs(_f_values(phi, xs) - target)
            if r.max() <= 1e-15:
                break
            weights = weights * np.maximum(r, 1e-15)
            weights = weights / weights.sum() * m
            phi = solve(phi, weights)
            eps = _max_error(phi, t_tilde, a, b, n_validate)
            if eps < best_eps - 1e-15:
                best_phi, best_eps = phi, eps
    return QSPPhases(best_phi, d, t_tilde, (a, b), float(best_eps))


def validate_qsp_polynomial(phases: QSPPhases, n_points: int = 1000) -> dict:
    """Grid checks of the protocol conditions: parity and |f| <= 1."""
    xs = np.linspace(0.0, 1.0, n_points)
    phi = phases.phases
    f_pos = _f_values(phi, xs)
    f_neg = _f_values(phi, -xs)
    parity_err = float(np.max(np.abs(f_neg - f_pos)))
    xs_full = np.linspace(-1.0, 1.0, n_points)
    max_abs = float(np.max(np.abs(_f_values(phi, xs_full))))
    return {
        "degree": phases.degree,
        "parity_error": parity_err,
        "parity_ok": parity_err < 1e-9,
        "max_abs_f": max_abs,
        "bounded_ok": max_abs <= 1.0 + 1e-9,
        "epsilon_poly": phases.epsilon_poly,
    }
