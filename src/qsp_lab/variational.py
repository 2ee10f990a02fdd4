"""Variationally optimized compressed block encoding.

The ansatz is the reflection circuit W(theta) = V(theta) CZbar V(theta)^dag:
V stacks L layers of [single-qubit RX.RZ.RX triplets on every qubit,
then a nearest-neighbour RZZ ladder], closed by one more triplet column;
CZbar is a nearest-neighbour CZ ladder.  W(theta)^2 = I for every theta,
and each application of W contains (a+n-1)(2L+1) two-qubit gates.

The cost of encoding a target H is F(theta) = ||Wblk||_F^2
- 2 Re Tr(H Wblk) with Wblk the ancilla-zero block, so that
epsilon_BE^2 = F(theta) + Tr(H^2).

Every parameter is the angle of one gate exp(-i theta_j g_j / 2) of V,
with generator g_j = X, Z or ZZ.  Derivatives are exact and come from
one walk over V's gates (matrices from the circuit module's gate table,
applied with its one apply kernel) that builds the prefixes P_j, the
gates before j, and the stack A_j = P_j^dag g_j P_j; V is the last
prefix.  With Z the CZ-ladder diagonal, dV_j = -i/2 V A_j and
d2V_jk = -1/4 V A_hi A_lo (hi = max(j, k), lo = min(j, k)), so
dW_j = -i/2 V [A_j, Z] V^dag and
d2W_jk = 1/4 V (A_j Z A_k + A_k Z A_j - A_hi A_lo Z - Z A_lo A_hi) V^dag.
The gradient is one contraction against the stack,
dF/dtheta_j = Im Tr[N V A_j] with N = Z V^dag (K + K^dag) and
K = Wblk^dag - H on the ancilla-zero block; the Hessian is pair traces
over it.  The stack holds m * 4^w complex numbers (m parameters, width w).
Optimizers: BFGS (default), gradient descent with backtracking, and
Newton with an eigenvalue-cutoff pseudo-inverse.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .circuits import Circuit, Gate, _gate_local, _tensor_apply, cz, rx, rz, rzz
from .errors import OptimizationError
from .lcu import BlockEncoding
from .operators import PauliSum, to_matrix


@dataclass(frozen=True)
class AnsatzSpec:
    n: int
    a: int
    layers: int

    @property
    def width(self) -> int:
        return self.n + self.a

    @property
    def n_parameters(self) -> int:
        w = self.width
        return 3 * w * (self.layers + 1) + self.layers * (w - 1)

    @property
    def rzz_per_application(self) -> int:
        return (self.width - 1) * (2 * self.layers + 1)


_GRAD_NORM_THRESHOLD = 1e-5  # converged below this gradient norm
_HESSIAN_EIGEN_CUTOFF = 1e-5  # Newton inverts only curvature at or above this
_INIT_SCALE = 0.1  # half-width of the uniform draw of a random restart


@dataclass
class OptimizerConfig:
    method: str = "bfgs"  # bfgs | gradient_descent | newton
    learning_rate: float = 0.05
    max_iters: int = 2000
    init_seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.method not in ("bfgs", "gradient_descent", "newton"):
            raise ValueError(f"unknown optimizer method {self.method!r}")
        if self.restarts < 0:
            raise ValueError("restarts must be non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class OptimizeResult:
    theta: np.ndarray
    epsilon_be: float
    trace: list[dict] = field(default_factory=list)
    converged: bool = False
    restart_index: int = 0


def _v_gate_sequence(spec: AnsatzSpec, theta: np.ndarray) -> list[Gate]:
    """The gates of V(theta) in application order, one per parameter."""
    w = spec.width
    if len(theta) != spec.n_parameters:
        raise ValueError(f"expected {spec.n_parameters} parameters, got {len(theta)}")
    it = iter(theta)
    gates: list[Gate] = []
    for layer in range(spec.layers + 1):
        for q in range(w):
            gates += [rx(q, next(it)), rz(q, next(it)), rx(q, next(it))]
        if layer < spec.layers:
            gates += [rzz(q, q + 1, next(it)) for q in range(w - 1)]
    return gates


def build_ansatz(n: int, a: int, layers: int, theta: np.ndarray) -> Circuit:
    """Gate-level W(theta) = V CZbar V^dag on the ancilla-first register.

    As a circuit this applies V^dag first, then the CZ ladder, then V.
    """
    spec = AnsatzSpec(n, a, layers)
    v = Circuit(n, a).extend(_v_gate_sequence(spec, np.asarray(theta, dtype=float)))
    circuit = v.inverse()
    circuit.extend(cz(q, q + 1) for q in range(spec.width - 1))
    circuit.extend(v.gates)
    return circuit


# ---------------------------------------------------------------------------
# Dense evaluation of W, its block, and parameter derivatives
# ---------------------------------------------------------------------------

_GENERATORS = {
    "RX": np.array([[0, 1], [1, 0]], dtype=complex),
    "RZ": np.diag([1.0, -1.0]).astype(complex),
    "RZZ": np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex),
}


def _czbar_diagonal(width: int) -> np.ndarray:
    """Diagonal of the nearest-neighbour CZ ladder: -1 to the number of
    adjacent pairs of set bits in the basis index."""
    x = np.arange(2**width)
    return 1.0 - 2.0 * (np.bitwise_count(x & (x >> 1)) % 2)


def _pair_traces(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tr(X_j Y_k) for every pair of matrices in two (m, D, D) stacks."""
    m = len(x)
    return x.reshape(m, -1) @ y.transpose(0, 2, 1).reshape(m, -1).T


class _AnsatzCache:
    """One walk over V's gates: the stack A_j = P_j^dag g_j P_j (P_j the
    gates before j), V as the last prefix, its top rows U and the block of
    W.  The stack holds m * 4^w complex numbers: 1.2 MB at
    (n, a, L) = (3, 2, 3), about 120 MB at width 8 with L = 3."""

    def __init__(self, spec: AnsatzSpec, theta: np.ndarray):
        dim, dn = 2**spec.width, 2**spec.n
        v_circuit = Circuit(spec.n, spec.a, _v_gate_sequence(spec, theta))
        self.a = np.empty((len(v_circuit.gates), dim, dim), dtype=complex)
        v = np.eye(dim, dtype=complex)
        for j, g in enumerate(v_circuit.gates):
            self.a[j] = v.conj().T @ _tensor_apply(v, _GENERATORS[g.kind], g.qubits)
            v = _tensor_apply(v, _gate_local(g, v_circuit)[0], g.qubits)
        self.z = _czbar_diagonal(spec.width)
        self.u = v[:dn]
        self.block = (v @ (self.z[:, None] * v.conj().T))[:dn, :dn]


def ansatz_block(spec: AnsatzSpec, theta: np.ndarray) -> np.ndarray:
    return _AnsatzCache(spec, np.asarray(theta, dtype=float)).block


def cost(theta: np.ndarray, h_tilde: PauliSum | np.ndarray, spec: AnsatzSpec) -> float:
    """F(theta) = ||Wblk||_F^2 - 2 Re Tr(H Wblk)."""
    return cost_and_gradient(theta, h_tilde, spec)[0]


def epsilon_be_from_cost(f_value: float, h_tilde: PauliSum | np.ndarray) -> float:
    """epsilon_BE^2 = F + Tr(H^2); clipped at zero against roundoff."""
    h = h_tilde if isinstance(h_tilde, np.ndarray) else to_matrix(h_tilde)
    tr_h2 = float(np.real(np.trace(h @ h)))
    return float(np.sqrt(max(f_value + tr_h2, 0.0)))


def cost_and_gradient(theta: np.ndarray, h_tilde: PauliSum | np.ndarray, spec: AnsatzSpec) -> tuple[float, np.ndarray]:
    """F and its gradient dF/dtheta_j = Im Tr[N V A_j] (module docstring);
    K lives on the top rows U of V, so N V = Z U^dag (K + K^dag) U."""
    h = h_tilde if isinstance(h_tilde, np.ndarray) else to_matrix(h_tilde)
    c = _AnsatzCache(spec, np.asarray(theta, dtype=float))
    f = float(np.linalg.norm(c.block) ** 2 - 2.0 * np.real(np.trace(h @ c.block)))
    nv = c.z[:, None] * (c.u.conj().T @ (c.block + c.block.conj().T - 2.0 * h) @ c.u)
    return f, np.imag(c.a.reshape(len(c.a), -1) @ nv.T.reshape(-1))


def gradient(theta: np.ndarray, h_tilde: PauliSum | np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    return cost_and_gradient(theta, h_tilde, spec)[1]


def hessian(theta: np.ndarray, h_tilde: PauliSum | np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    """Exact Hessian of F in closed form.

    dW_j and d2W_jk are the module docstring's, in the stacked
    A_j = P_j^dag g_j P_j of _AnsatzCache.  With U the top rows of V
    (so Wblk = U Z U^dag), E_j = U [A_j, Z] U^dag and
    M = U^dag (Wblk - H) U,

        d2F_jk = 2 Re <dWblk_j, dWblk_k> + 2 Re Tr[(Wblk - H) d2Wblk_jk]
               = 1/2 Re Tr(E_j^dag E_k) + Re Tr(M A_j Z A_k) - Re Tr(Z M A_hi A_lo),

    each an m x m matrix of pair traces over the stacked A.  The lower
    triangle (j >= k, so hi = j) is kept and mirrored, which makes the
    result exactly symmetric.
    """
    h = h_tilde if isinstance(h_tilde, np.ndarray) else to_matrix(h_tilde)
    c = _AnsatzCache(spec, np.asarray(theta, dtype=float))
    a, z, u = c.a, c.z, c.u
    m_mat = u.conj().T @ (c.block - h) @ u
    e = (u @ (a * (z[None, :] - z[:, None])) @ u.conj().T).reshape(len(a), -1)
    ma = m_mat @ a
    hess = (
        0.5 * np.real(e.conj() @ e.T)
        + np.real(_pair_traces(ma, z[:, None] * a))
        - np.real(_pair_traces(z[:, None] * ma, a))
    )
    return np.tril(hess) + np.tril(hess, -1).T


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

def _gradient_descent(fun_grad, theta, config):
    f, g = fun_grad(theta)
    for _ in range(config.max_iters):
        if float(np.linalg.norm(g)) < _GRAD_NORM_THRESHOLD:
            return theta, f, True
        step = config.learning_rate
        while step > 1e-12:  # backtracking keeps the cost non-increasing
            cand = theta - step * g
            f_new, g_new = fun_grad(cand)
            if f_new <= f:
                theta, f, g = cand, f_new, g_new
                break
            step /= 2.0
        else:
            return theta, f, False
    return theta, f, False


def _newton(fun_grad, hess_fun, theta, config):
    f, g = fun_grad(theta)
    for _ in range(config.max_iters):
        if float(np.linalg.norm(g)) < _GRAD_NORM_THRESHOLD:
            return theta, f, True
        hmat = hess_fun(theta)
        mu, vecs = np.linalg.eigh(hmat)
        inv = np.zeros_like(mu)
        keep = mu >= _HESSIAN_EIGEN_CUTOFF
        inv[keep] = 1.0 / mu[keep]
        step = vecs @ (inv * (vecs.T @ g))
        if not np.any(keep):  # no usable curvature; fall back to a gradient step
            step = config.learning_rate * g
        theta = theta - step
        f, g = fun_grad(theta)
    return theta, f, False


def optimize(
    h_tilde: PauliSum | np.ndarray,
    n: int,
    a: int,
    layers: int,
    config: OptimizerConfig | None = None,
    initial_thetas: list[np.ndarray] | None = None,
) -> OptimizeResult:
    """Minimize the block-encoding cost over the reflection ansatz.

    Runs seeded random restarts (plus any caller-provided warm starts)
    and keeps the best epsilon_BE.
    """
    config = config or OptimizerConfig()
    spec = AnsatzSpec(n, a, layers)
    h = h_tilde if isinstance(h_tilde, np.ndarray) else to_matrix(h_tilde)
    tr_h2 = float(np.real(np.trace(h @ h)))

    starts: list[np.ndarray] = list(initial_thetas or [])
    for r in range(config.restarts):
        rng = np.random.default_rng(config.init_seed + r)
        starts.append(rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=spec.n_parameters))

    if not starts:
        raise ValueError("nothing to optimize: restarts is 0 and no initial_thetas were given")
    best: OptimizeResult | None = None
    for idx, theta0 in enumerate(starts):
        theta0 = np.asarray(theta0, dtype=float)
        if len(theta0) != spec.n_parameters:
            raise ValueError("warm start has the wrong parameter count")
        trace: list[dict] = []

        def fun_grad(theta):
            f, g = cost_and_gradient(theta, h, spec)
            if not np.isfinite(f):
                raise OptimizationError("non-finite cost encountered")
            trace.append({"iter": len(trace), "cost": f, "grad_norm": float(np.linalg.norm(g))})
            return f, g

        if config.method == "gradient_descent":
            theta, f, ok = _gradient_descent(fun_grad, theta0, config)
        elif config.method == "newton":
            theta, f, ok = _newton(
                fun_grad, lambda th: hessian(th, h, spec), theta0, config
            )
        else:
            res = scipy.optimize.minimize(
                fun_grad,
                theta0,
                jac=True,
                method="BFGS",
                options={"gtol": _GRAD_NORM_THRESHOLD, "maxiter": config.max_iters},
            )
            theta, f = res.x, float(res.fun)
            ok = bool(res.success) or float(np.linalg.norm(res.jac)) < 10 * _GRAD_NORM_THRESHOLD
        eps = float(np.sqrt(max(f + tr_h2, 0.0)))
        for row in trace:
            row["epsilon_be"] = float(np.sqrt(max(row["cost"] + tr_h2, 0.0)))
        cand = OptimizeResult(theta=theta, epsilon_be=eps, trace=trace, converged=ok, restart_index=idx)
        if best is None or cand.epsilon_be < best.epsilon_be:
            best = cand
    return best


def variational_block_encoding(
    h_tilde: PauliSum,
    a: int,
    layers: int,
    config: OptimizerConfig | None = None,
    initial_thetas: list[np.ndarray] | None = None,
) -> tuple[BlockEncoding, OptimizeResult]:
    """Optimize the ansatz and wrap the winner as a BlockEncoding."""
    n = h_tilde.n
    result = optimize(h_tilde, n, a, layers, config, initial_thetas)
    circuit = build_ansatz(n, a, layers, result.theta)
    enc = BlockEncoding(
        circuit=circuit, a=a, epsilon_be=result.epsilon_be, is_reflection=True, scale=1.0
    )
    return enc, result


def layer_sweep(
    h_tilde: PauliSum,
    a: int,
    layer_range,
    config: OptimizerConfig | None = None,
) -> dict[int, OptimizeResult]:
    """Best epsilon_BE per layer count, warm-starting each depth from the
    previous optimum padded with zero-angle gates (an exact embedding, so
    the optimal error is non-increasing in L)."""
    config = config or OptimizerConfig()
    results: dict[int, OptimizeResult] = {}
    prev: OptimizeResult | None = None
    n = h_tilde.n
    for layers in layer_range:
        warm = []
        if prev is not None:
            warm.append(_pad_layers(prev.theta, AnsatzSpec(n, a, layers - 1), AnsatzSpec(n, a, layers)))
        results[layers] = optimize(h_tilde, n, a, layers, config, initial_thetas=warm)
        prev = results[layers]
    return results


def _pad_layers(theta: np.ndarray, old: AnsatzSpec, new: AnsatzSpec) -> np.ndarray:
    """Embed an L-layer parameter vector into L+1 layers with zero angles."""
    if new.layers != old.layers + 1 or new.width != old.width:
        raise ValueError("padding only supports adding one layer")
    w = old.width
    per_layer = 3 * w + (w - 1)
    head = theta[: old.layers * per_layer]
    tail = theta[old.layers * per_layer:]
    return np.concatenate([head, np.zeros(per_layer), tail])
