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
one walk over V's gates that builds the prefixes P_j, the gates before
j, and the stack A_j = P_j^dag g_j P_j; V is the last prefix.  Each
generator squares to I, so the gate is
cos(theta_j/2) I - i sin(theta_j/2) g_j, and G_j = g_j P_j gives both
A_j = P_j^dag G_j and the next prefix
P_{j+1} = cos(theta_j/2) P_j - i sin(theta_j/2) G_j.  Each generator is
a signed permutation of the basis: Z_q and Z_q Z_{q+1} are diagonal,
row i multiplied by -1 to the parity of i's bits at those qubits, and
X_q swaps the rows whose indices differ in bit q.  So G_j is P_j with
its rows sign-flipped or permuted, from a table built once per
AnsatzSpec; every entry is a copy of an entry of P_j or its negation,
which is exactly what a matrix product with g_j's 0 and +-1 entries
gives, so the numbers are the same bit for bit.
With Z the CZ-ladder diagonal, dV_j = -i/2 V A_j and
d2V_jk = -1/4 V A_hi A_lo (hi = max(j, k), lo = min(j, k)), so
dW_j = -i/2 V [A_j, Z] V^dag and
d2W_jk = 1/4 V (A_j Z A_k + A_k Z A_j - A_hi A_lo Z - Z A_lo A_hi) V^dag.
The gradient is one contraction against the stack,
dF/dtheta_j = Im Tr[N V A_j] with N = Z V^dag (K + K^dag) and
K = Wblk^dag - H on the ancilla-zero block; the Hessian is pair traces
over it.  The stack holds m * 4^w complex numbers (m parameters, width w);
cost and ansatz_block run the same walk and keep none of it.
Optimizers: BFGS (default) and Newton with an eigenvalue-cutoff
pseudo-inverse.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .circuits import Circuit, Gate, cz, rx, rz, rzz
from .errors import OptimizationError
from .lcu import BlockEncoding
from .operators import PauliSum, to_matrix


@dataclass(frozen=True)
class AnsatzSpec:
    n: int
    a: int
    layers: int

    def __post_init__(self):
        if self.n < 1 or self.a < 0 or self.layers < 0:
            raise ValueError(f"need n >= 1, a >= 0 and layers >= 0, got ({self.n}, {self.a}, {self.layers})")

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
_NEWTON_FALLBACK_STEP = 0.05  # gradient step size when Newton finds no usable curvature
_INIT_SCALE = 0.1  # half-width of the uniform draw of a random restart


@dataclass
class OptimizerConfig:
    method: str = "bfgs"  # bfgs | newton
    max_iters: int = 2000
    init_seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        if self.method not in ("bfgs", "newton"):
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

def _czbar_diagonal(width: int) -> np.ndarray:
    """Diagonal of the nearest-neighbour CZ ladder: -1 to the number of
    adjacent pairs of set bits in the basis index."""
    x = np.arange(2**width)
    return 1.0 - 2.0 * (np.bitwise_count(x & (x >> 1)) % 2)


def _pair_traces(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tr(X_j Y_k) for every pair of matrices in two (m, D, D) stacks."""
    m = len(x)
    return x.reshape(m, -1) @ y.transpose(0, 2, 1).reshape(m, -1).T


@functools.lru_cache(maxsize=16)
def _generator_table(spec: AnsatzSpec) -> tuple[tuple[bool, np.ndarray], ...]:
    """How each generator g_j of _v_gate_sequence acts on the rows of P_j,
    as (flips, action).  For X_q, flips is True and row i of g_j P_j is
    row action[i] = i ^ 2^(w-1-q) of P_j.  For Z_q and Z_q Z_{q+1}, flips
    is False and row i of g_j P_j is row i of P_j times action[i], -1 to
    the parity of i's bits at the gate's qubits.  Qubit q is bit w-1-q of
    the row index, as in circuits (ancilla first, most significant first)."""
    w = spec.width
    rows = np.arange(2**w)
    table = []
    for g in _v_gate_sequence(spec, np.zeros(spec.n_parameters)):
        mask = sum(1 << (w - 1 - q) for q in g.qubits)
        if g.kind == "RX":
            action = rows ^ mask
        else:
            action = (1.0 - 2.0 * (np.bitwise_count(rows & mask) % 2)).astype(complex)[:, None]
        action.flags.writeable = False
        table.append((g.kind == "RX", action))
    return tuple(table)


def _v_walk(spec: AnsatzSpec, theta: np.ndarray):
    """Walk V's gates, yielding (P_j, G_j, P_{j+1}) for gate j: P_j the
    gates before j, G_j = g_j P_j (P_j's rows permuted or sign-flipped by
    _generator_table) and P_{j+1} = cos(theta_j/2) P_j - i sin(theta_j/2) G_j
    (the rotation identity, as g_j^2 = I), updated in place.  The last
    P_{j+1} is V.  The P_j and G_j buffers are reused from gate to gate
    (P_{j+1} is written into the buffer of P_{j-1}), so a caller keeps
    only what it computes from them before asking for the next gate."""
    table = _generator_table(spec)
    if len(theta) != len(table):  # zip below would truncate silently
        raise ValueError(f"expected {len(table)} parameters, got {len(theta)}")
    dim = 2**spec.width
    p = np.eye(dim, dtype=complex)
    gp = np.empty_like(p)
    nxt = np.empty_like(p)
    rot = np.empty_like(p)
    for angle, (flips, action) in zip(theta, table):
        if flips:  # action is in range; the default mode="raise" copies out= through a buffer
            p.take(action, axis=0, out=gp, mode="clip")
        else:
            np.multiply(action, p, out=gp)
        np.multiply(np.cos(angle / 2), p, out=nxt)
        np.multiply(1j * np.sin(angle / 2), gp, out=rot)
        np.subtract(nxt, rot, out=nxt)
        yield p, gp, nxt
        p, nxt = nxt, p


def _reflection_block(spec: AnsatzSpec, v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The ancilla-zero block of W = V Z V^dag."""
    dn = 2**spec.n
    return (v @ (z[:, None] * v.conj().T))[:dn, :dn]


def _block_cost(block: np.ndarray, h: np.ndarray) -> float:
    return float(np.linalg.norm(block) ** 2 - 2.0 * np.real(np.trace(h @ block)))


class _AnsatzCache:
    """The V walk with the stack A_j = P_j^dag G_j = P_j^dag g_j P_j kept,
    V's top rows U, the CZ-ladder diagonal and the block of W.  The stack
    holds m * 4^w complex numbers: 1.2 MB at (n, a, L) = (3, 2, 3), about
    120 MB at width 8 with L = 3."""

    def __init__(self, spec: AnsatzSpec, theta: np.ndarray):
        dim = 2**spec.width
        self.a = np.empty((spec.n_parameters, dim, dim), dtype=complex)
        for j, (p, gp, v) in enumerate(_v_walk(spec, theta)):
            np.matmul(p.conj().T, gp, out=self.a[j])
        self.z = _czbar_diagonal(spec.width)
        self.u = v[: 2**spec.n]
        self.block = _reflection_block(spec, v, self.z)


def ansatz_block(spec: AnsatzSpec, theta: np.ndarray) -> np.ndarray:
    """The block of W from the V walk, storing no stack."""
    for _, _, v in _v_walk(spec, np.asarray(theta, dtype=float)):
        pass
    return _reflection_block(spec, v, _czbar_diagonal(spec.width))


def cost(theta: np.ndarray, h_tilde: PauliSum | np.ndarray, spec: AnsatzSpec) -> float:
    """F(theta) = ||Wblk||_F^2 - 2 Re Tr(H Wblk)."""
    h = h_tilde if isinstance(h_tilde, np.ndarray) else to_matrix(h_tilde)
    return _block_cost(ansatz_block(spec, theta), h)


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
    f = _block_cost(c.block, h)
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
            step = _NEWTON_FALLBACK_STEP * g
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

        if config.method == "newton":
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
    return BlockEncoding(circuit=circuit, epsilon_be=result.epsilon_be, scale=1.0), result


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
