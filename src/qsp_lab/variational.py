"""Variationally optimized compressed block encoding.

The ansatz is the reflection circuit W(theta) = V(theta) CZbar V(theta)^dag:
V stacks L layers of [single-qubit RX.RZ.RX triplets on every qubit,
then a nearest-neighbour RZZ ladder], closed by one more triplet column;
CZbar is a nearest-neighbour CZ ladder.  W(theta)^2 = I for every theta,
and each application of W contains (a+n-1)(2L+1) two-qubit gates.

The cost of encoding a target H is F(theta) = ||Wblk||_F^2
- 2 Re Tr(H Wblk) with Wblk the ancilla-zero block, so that
epsilon_BE^2 = F(theta) + Tr(H^2).  Gradients and Hessians are exact
(generator-insertion rule); optimizers: BFGS (default), gradient
descent with backtracking, and Newton with an eigenvalue-cutoff
pseudo-inverse.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .circuits import Circuit, _tensor_apply, cz, rx, rz, rzz
from .errors import OptimizationError
from .lcu import BlockEncoding
from .operators import PauliSum, to_matrix

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


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


@dataclass
class OptimizerConfig:
    method: str = "bfgs"  # bfgs | gradient_descent | newton
    learning_rate: float = 0.05
    grad_norm_threshold: float = 1e-5
    hessian_eigen_cutoff: float = 1e-5
    max_iters: int = 2000
    init_seed: int = 0
    restarts: int = 10
    init_scale: float = 0.1

    def __post_init__(self):
        if min(self.learning_rate, self.grad_norm_threshold, self.hessian_eigen_cutoff) <= 0:
            raise ValueError("optimizer thresholds must be positive")
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


def _v_gate_sequence(spec: AnsatzSpec, theta: np.ndarray):
    """Yield (kind, qubits, angle) for V(theta) in application order."""
    w = spec.width
    if len(theta) != spec.n_parameters:
        raise ValueError(f"expected {spec.n_parameters} parameters, got {len(theta)}")
    it = iter(theta)
    for layer in range(spec.layers + 1):
        for q in range(w):
            yield ("RX", (q,), next(it))
            yield ("RZ", (q,), next(it))
            yield ("RX", (q,), next(it))
        if layer < spec.layers:
            for q in range(w - 1):
                yield ("RZZ", (q, q + 1), next(it))


def build_ansatz(n: int, a: int, layers: int, theta: np.ndarray) -> Circuit:
    """Gate-level W(theta) = V CZbar V^dag on the ancilla-first register.

    As a circuit this applies V^dag first, then the CZ ladder, then V.
    """
    spec = AnsatzSpec(n, a, layers)
    v = Circuit(n, a)
    for kind, qs, angle in _v_gate_sequence(spec, np.asarray(theta, dtype=float)):
        v.append(rx(qs[0], angle) if kind == "RX" else rz(qs[0], angle) if kind == "RZ"
                 else rzz(qs[0], qs[1], angle))
    circuit = v.inverse()
    for q in range(spec.width - 1):
        circuit.append(cz(q, q + 1))
    circuit.extend(v.gates)
    return circuit


# ---------------------------------------------------------------------------
# Dense evaluation of W, its block, and parameter derivatives
# ---------------------------------------------------------------------------

def _local_unitary(kind: str, angle: float) -> np.ndarray:
    if kind == "RX":
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RZ":
        return np.diag([np.exp(-1j * angle / 2), np.exp(1j * angle / 2)])
    e = np.exp(1j * angle / 2)
    return np.diag([e.conjugate(), e, e, e.conjugate()])


def _embed(local: np.ndarray, qs: tuple[int, ...], width: int) -> np.ndarray:
    """Dense full-register embedding of a local operator."""
    k = len(qs)
    dim = 2**width
    m = local.reshape([2] * (2 * k))
    eye = np.eye(dim, dtype=complex).reshape([2] * width + [dim])
    out = np.tensordot(m, eye, axes=(list(range(k, 2 * k)), list(qs)))
    out = np.moveaxis(out, list(range(k)), list(qs))
    return out.reshape(dim, dim)


_GENERATORS = {"RX": _X, "RZ": _Z, "RZZ": _ZZ}


def _czbar_diagonal(width: int) -> np.ndarray:
    """Diagonal of the nearest-neighbour CZ ladder."""
    d = np.ones(2**width)
    for x in range(2**width):
        bits = [(x >> (width - 1 - q)) & 1 for q in range(width)]
        for q in range(width - 1):
            if bits[q] and bits[q + 1]:
                d[x] = -d[x]
    return d


class _AnsatzCache:
    """V(theta), the reflection W, and what the adjoint sweep needs."""

    def __init__(self, spec: AnsatzSpec, theta: np.ndarray):
        self.spec = spec
        self.width = spec.width
        self.dim = 2**self.width
        self.gate_info = list(_v_gate_sequence(spec, theta))
        self.locals = [_local_unitary(kind, angle) for kind, _, angle in self.gate_info]
        v = np.eye(self.dim, dtype=complex)
        for (kind, qs, _), loc in zip(self.gate_info, self.locals):
            v = _tensor_apply(v, loc, qs)
        self.v = v
        self.cz_diag = _czbar_diagonal(self.width)
        self.w = self.v @ (self.cz_diag[:, None] * self.v.conj().T)

    def block(self) -> np.ndarray:
        dn = 2**self.spec.n
        return self.w[:dn, :dn]


def ansatz_block(spec: AnsatzSpec, theta: np.ndarray) -> np.ndarray:
    return _AnsatzCache(spec, np.asarray(theta, dtype=float)).block()


def cost(theta: np.ndarray, h_tilde: PauliSum | np.ndarray, spec: AnsatzSpec) -> float:
    """F(theta) = ||Wblk||_F^2 - 2 Re Tr(H Wblk)."""
    h = h_tilde if isinstance(h_tilde, np.ndarray) else to_matrix(h_tilde)
    blk = ansatz_block(spec, theta)
    return float(np.linalg.norm(blk) ** 2 - 2.0 * np.real(np.trace(h @ blk)))


def epsilon_be_from_cost(f_value: float, h_tilde: PauliSum | np.ndarray) -> float:
    """epsilon_BE^2 = F + Tr(H^2); clipped at zero against roundoff."""
    h = h_tilde if isinstance(h_tilde, np.ndarray) else to_matrix(h_tilde)
    tr_h2 = float(np.real(np.trace(h @ h)))
    return float(np.sqrt(max(f_value + tr_h2, 0.0)))


def _cost_grad_cached(cache: _AnsatzCache, h: np.ndarray) -> tuple[float, np.ndarray]:
    """Cost and exact gradient in one adjoint sweep over the gate list.

    With K = blk^dag - H embedded in the ancilla-zero block,
    dF/dtheta_j = 2 Re Tr[N dV_j] for N = CZbar V^dag (K + K^dag), and
    Tr[N dV_j] telescopes as Q_{j+1} = g_{j+1} Q_j g_{j+1}^dag starting
    from Q_0 = g_0 (N V) g_0^dag.
    """
    dn = h.shape[0]
    dim = cache.dim
    blk = cache.w[:dn, :dn]
    f = float(np.linalg.norm(blk) ** 2 - 2.0 * np.real(np.trace(h @ blk)))
    ksym = np.zeros((dim, dim), dtype=complex)
    ksym[:dn, :dn] = blk + blk.conj().T - 2.0 * h
    n_mat = cache.cz_diag[:, None] * (cache.v.conj().T @ ksym)
    q = n_mat @ cache.v
    m = len(cache.gate_info)
    grad = np.empty(m)
    for j in range(m):
        kind, qs, _ = cache.gate_info[j]
        loc = cache.locals[j]
        q = _tensor_apply(q, loc, qs)
        q = _tensor_apply(q.conj().T, loc, qs).conj().T  # right-multiply by loc^dag
        traced = np.trace(_tensor_apply(q, _GENERATORS[kind], qs))
        grad[j] = float(np.imag(traced))
    return f, grad


def cost_and_gradient(theta: np.ndarray, h_tilde: PauliSum | np.ndarray, spec: AnsatzSpec) -> tuple[float, np.ndarray]:
    h = h_tilde if isinstance(h_tilde, np.ndarray) else to_matrix(h_tilde)
    cache = _AnsatzCache(spec, np.asarray(theta, dtype=float))
    return _cost_grad_cached(cache, h)


def gradient(theta: np.ndarray, h_tilde: PauliSum | np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    return cost_and_gradient(theta, h_tilde, spec)[1]


class _AnsatzDenseFull:
    """Prefix/suffix products for second derivatives (small instances)."""

    def __init__(self, spec: AnsatzSpec, theta: np.ndarray):
        self.spec = spec
        self.width = spec.width
        dim = 2**self.width
        self.gate_info = list(_v_gate_sequence(spec, theta))
        self.gate_mats = [
            _embed(_local_unitary(kind, angle), qs, self.width)
            for kind, qs, angle in self.gate_info
        ]
        self.czbar = np.diag(_czbar_diagonal(self.width)).astype(complex)
        m = len(self.gate_mats)
        self.prefix = [np.eye(dim, dtype=complex)]
        for j in range(m):
            self.prefix.append(self.gate_mats[j] @ self.prefix[j])
        self.suffix = [None] * (m + 1)
        self.suffix[m] = np.eye(dim, dtype=complex)
        for j in range(m - 1, -1, -1):
            self.suffix[j] = self.suffix[j + 1] @ self.gate_mats[j]
        self.v = self.prefix[m]
        self.w = self.v @ self.czbar @ self.v.conj().T

    def dv(self, j: int) -> np.ndarray:
        kind, qs, _ = self.gate_info[j]
        gen = _embed(_GENERATORS[kind], qs, self.width)
        return self.suffix[j + 1] @ ((-0.5j) * gen @ self.prefix[j + 1])

    def d2v(self, j: int, k: int) -> np.ndarray:
        if j == k:
            kind, qs, _ = self.gate_info[j]
            gen = _embed(_GENERATORS[kind], qs, self.width)
            return self.suffix[j + 1] @ ((-0.25) * (gen @ gen) @ self.prefix[j + 1])
        lo, hi = (j, k) if j < k else (k, j)
        kind_lo, qs_lo, _ = self.gate_info[lo]
        kind_hi, qs_hi, _ = self.gate_info[hi]
        gen_lo = _embed(_GENERATORS[kind_lo], qs_lo, self.width)
        gen_hi = _embed(_GENERATORS[kind_hi], qs_hi, self.width)
        mid = self.prefix[hi + 1] @ self.prefix[lo + 1].conj().T  # unitary inverse
        return self.suffix[hi + 1] @ ((-0.5j) * gen_hi) @ mid @ ((-0.5j) * gen_lo) @ self.prefix[lo + 1]


def hessian(theta: np.ndarray, h_tilde: PauliSum | np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    """Exact Hessian: second-insertion term, first-order cross term, and
    the target coupling, mirroring the gradient's trace structure."""
    h = h_tilde if isinstance(h_tilde, np.ndarray) else to_matrix(h_tilde)
    dense = _AnsatzDenseFull(spec, np.asarray(theta, dtype=float))
    dn = h.shape[0]
    blk = dense.w[:dn, :dn]
    m = len(dense.gate_mats)
    cv = dense.czbar @ dense.v.conj().T
    dvs = [dense.dv(j) for j in range(m)]
    dblks = []
    for j in range(m):
        dwj = dvs[j] @ cv + (dvs[j] @ cv).conj().T
        dblks.append(dwj[:dn, :dn])
    hess = np.empty((m, m))
    for j in range(m):
        for k in range(j, m):
            d2v = dense.d2v(j, k)
            term = d2v @ cv + dvs[j] @ dense.czbar @ dvs[k].conj().T
            d2w = term + term.conj().T
            d2blk = d2w[:dn, :dn]
            val = (
                2.0 * np.real(np.einsum("ij,ij->", blk.conj(), d2blk))
                + 2.0 * np.real(np.einsum("ij,ij->", dblks[j].conj(), dblks[k]))
                - 2.0 * np.real(np.einsum("ij,ji->", h, d2blk))
            )
            hess[j, k] = hess[k, j] = val
    return hess


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

def _gradient_descent(fun_grad, theta, config):
    f, g = fun_grad(theta)
    for _ in range(config.max_iters):
        if float(np.linalg.norm(g)) < config.grad_norm_threshold:
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
        if float(np.linalg.norm(g)) < config.grad_norm_threshold:
            return theta, f, True
        hmat = hess_fun(theta)
        mu, vecs = np.linalg.eigh(hmat)
        inv = np.zeros_like(mu)
        keep = mu >= config.hessian_eigen_cutoff
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
        starts.append(rng.uniform(-config.init_scale, config.init_scale, size=spec.n_parameters))

    if not starts:
        raise ValueError("nothing to optimize: restarts is 0 and no initial_thetas were given")
    best: OptimizeResult | None = None
    for idx, theta0 in enumerate(starts):
        theta0 = np.asarray(theta0, dtype=float)
        if len(theta0) != spec.n_parameters:
            raise ValueError("warm start has the wrong parameter count")
        trace: list[dict] = []

        def fun_grad(theta):
            f, g = _cost_grad_cached(_AnsatzCache(spec, theta), h)
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
                options={"gtol": config.grad_norm_threshold, "maxiter": config.max_iters},
            )
            theta, f = res.x, float(res.fun)
            ok = bool(res.success) or float(np.linalg.norm(res.jac)) < 10 * config.grad_norm_threshold
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
