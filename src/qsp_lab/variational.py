"""Variationally optimized compressed block encoding.

The ansatz is the reflection circuit W(theta) = V(theta) CZbar V(theta)^dag:
V stacks L layers of [single-qubit RX.RZ.RX triplets on every qubit,
then a nearest-neighbour RZZ ladder], closed by one more triplet column;
CZbar is a nearest-neighbour CZ ladder.  W(theta)^2 = I for every theta,
and each application of W contains (a+n-1)(2L+1) two-qubit gates.

The cost of encoding a target H is F(theta) = ||Wblk||_F^2
- 2 Re Tr(H Wblk) with Wblk the ancilla-zero block, so that
epsilon_BE^2 = F(theta) + Tr(H^2).

Every parameter is the angle of one gate V_j = exp(-i theta_j g_j / 2)
of V = V_{m-1} ... V_0, with generator g_j = X, Z or ZZ.  Each generator
squares to I, so V_j = cos(theta_j/2) I - i sin(theta_j/2) g_j, and each
is a signed permutation of the basis: Z_q and Z_q Z_{q+1} are diagonal,
row i multiplied by -1 to the parity of i's bits at those qubits, and
X_q swaps the rows whose indices differ in bit q.  So g_j X is X with its
rows sign-flipped or permuted, from a table built once per AnsatzSpec,
and every entry is exactly what a matrix product with g_j's 0 and +-1
entries gives.

F depends on V only through U = Pi V, its top 2^n rows (Pi keeps the
ancilla-zero rows), since Wblk = U Z U^dag with Z the CZ-ladder diagonal.
Derivatives are exact and come from two walks over the 2^n ancilla-zero
columns (adjoint differentiation, Jones & Gacon, arXiv:2009.02823).
With S_j = V_{m-1} ... V_j the gates from j on and P_j = V_{j-1} ... V_0
the gates before j (V = S_j P_j):

- the backward walk starts from Y_m = Pi^T and applies
  V_j^dag = cos(theta_j/2) I + i sin(theta_j/2) g_j for j = m-1, ..., 0,
  keeping every Y_j = S_j^dag Pi^T, a D x 2^n array (D = 2^w, w = n + a).
  Y_0 = U^dag, so Wblk = Y_0^dag (z * Y_0) with z = diag Z;
- the forward walk starts from L_0 = Z U^dag M with M = Wblk - H and
  applies L_{j+1} = V_j L_j.  As dV/dtheta_j = -i/2 S_j g_j P_j,
  dF/dtheta_j = 2 Re Tr[M dWblk_j] = 2 Im <Y_j, g_j L_j> (Frobenius inner
  product), and g_j L_j is the product the update needs anyway.

Both walks take O(m D 2^n) work and keep (m+1) D 2^n complex numbers,
299 KB at (n, a, L) = (3, 2, 3).  cost and ansatz_block run the backward
walk alone, so F from cost and from cost_and_gradient are the same bits.
Every function that takes the target H raises ValueError unless H is a
finite Hermitian (2^n, 2^n) matrix (errors.register_matrix).

The Hessian alone walks the full prefixes, P_{j+1} = V_j P_j, and keeps
the stack A_j = P_j^dag g_j P_j (V = P_m): dV_j = -i/2 V A_j and
d2V_jk = -1/4 V A_hi A_lo (hi = max(j, k), lo = min(j, k)), so
dW_j = -i/2 V [A_j, Z] V^dag and
d2W_jk = 1/4 V (A_j Z A_k + A_k Z A_j - A_hi A_lo Z - Z A_lo A_hi) V^dag,
and the Hessian is pair traces over the stack.  The stack holds m * 4^w
complex numbers: 1.2 MB at (n, a, L) = (3, 2, 3), about 120 MB at width 8
with L = 3.

Optimizers: scipy's BFGS (default) and its trust-region Newton method
("trust-exact") on the exact Hessian.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .circuits import Circuit, Gate, cz, rx, rz, rzz
from .errors import OptimizationError, dense, integer, real, register_matrix
from .lcu import BlockEncoding
from .operators import PauliSum


@dataclass(frozen=True)
class AnsatzSpec:
    n: int
    a: int
    layers: int

    def __post_init__(self):
        dense(integer(self.n, "n", positive=True) + integer(self.a, "a"))
        integer(self.layers, "layers")

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
_METHODS = {"bfgs": "BFGS", "newton": "trust-exact"}  # OptimizerConfig.method -> scipy method
_INIT_SCALE = 0.1  # half-width of the uniform draw of a random restart


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "bfgs"  # bfgs | newton (trust-region Newton on the exact Hessian)
    max_iters: int = 2000
    init_seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown optimizer method {self.method!r}")
        integer(self.max_iters, "max_iters", positive=True)
        integer(self.init_seed, "init_seed")
        integer(self.restarts, "restarts")


@dataclass
class OptimizeResult:
    """The best start's parameters and epsilon_BE; trace is that start's cost F
    at every evaluation, in order, so len(trace) counts its evaluations, and
    evals counts the cost_and_gradient calls of every start."""

    theta: np.ndarray
    epsilon_be: float
    trace: list[float] = field(default_factory=list)
    converged: bool = False
    evals: int = 0


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
    """How each generator g_j of _v_gate_sequence acts on the rows of a
    D-row array X, as (flips, action).  For X_q, flips is True and row i
    of g_j X is row action[i] = i ^ 2^(w-1-q) of X.  For Z_q and Z_q Z_{q+1},
    flips is False and row i of g_j X is row i of X times action[i], -1 to
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


def _checked_table(spec: AnsatzSpec, theta: np.ndarray) -> tuple[tuple[bool, np.ndarray], ...]:
    """_generator_table(spec), after checking that theta has one finite angle
    per row (the walks zip the two, which would truncate silently, and a
    non-finite angle makes every output NaN)."""
    table = _generator_table(spec)
    if len(theta) != len(table):
        raise ValueError(f"expected {len(table)} parameters, got {len(theta)}")
    if not np.isfinite(theta).all():
        raise ValueError("parameters must be finite")
    return table


def _apply_generator(flips: bool, action: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """out = g x for the generator of one _generator_table row."""
    if flips:  # action is in range; the default mode="raise" copies out= through a buffer
        x.take(action, axis=0, out=out, mode="clip")
    else:
        np.multiply(action, x, out=out)


def _adjoint_columns(spec: AnsatzSpec, theta: np.ndarray) -> np.ndarray:
    """The backward walk of the module docstring: the (m+1, D, 2^n) array
    of Y_j = S_j^dag Pi^T, from Y_m = Pi^T by Y_j = V_j^dag Y_{j+1}."""
    table = _checked_table(spec, theta)
    dim = 2**spec.width
    ys = np.empty((len(table) + 1, dim, 2**spec.n), dtype=complex)
    ys[-1] = np.eye(dim, 2**spec.n)
    views = list(ys)
    gy = np.empty_like(ys[0])
    cos, isin = np.cos(theta / 2), 1j * np.sin(theta / 2)
    for j in range(len(table) - 1, -1, -1):
        _apply_generator(*table[j], views[j + 1], gy)
        np.multiply(cos[j], views[j + 1], out=views[j])
        gy *= isin[j]
        views[j] += gy
    return ys


def _block_of(y0: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Wblk = U Z U^dag from Y_0 = U^dag."""
    return y0.conj().T @ (z[:, None] * y0)


def _hamiltonian(h_tilde: PauliSum | np.ndarray, n: int | None = None) -> np.ndarray:
    """h_tilde as a dense matrix, finite, Hermitian and (2^n, 2^n), any n when
    n is None; the gradient's adjoint formula needs M = Wblk - H Hermitian."""
    h = h_tilde.to_matrix() if isinstance(h_tilde, PauliSum) else np.asarray(h_tilde)
    return register_matrix(h, n, hermitian=True, name="target")


def _block_cost(block: np.ndarray, h: np.ndarray) -> float:
    return float(np.linalg.norm(block) ** 2 - 2.0 * np.real(np.trace(h @ block)))


def ansatz_block(spec: AnsatzSpec, theta: np.ndarray) -> np.ndarray:
    """The block of W from the backward walk."""
    y0 = _adjoint_columns(spec, np.asarray(theta, dtype=float))[0]
    return _block_of(y0, _czbar_diagonal(spec.width))


def cost(theta: np.ndarray, h_tilde: PauliSum | np.ndarray, spec: AnsatzSpec) -> float:
    """F(theta) = ||Wblk||_F^2 - 2 Re Tr(H Wblk)."""
    h = _hamiltonian(h_tilde, spec.n)
    return _block_cost(ansatz_block(spec, theta), h)


def epsilon_be_from_cost(f_value: float, h_tilde: PauliSum | np.ndarray) -> float:
    """epsilon_BE^2 = F + Tr(H^2); clipped at zero against roundoff.  An F
    that is not a finite real number raises ValueError."""
    real(f_value, "f_value")
    h = _hamiltonian(h_tilde)
    tr_h2 = float(np.real(np.trace(h @ h)))
    return float(np.sqrt(max(f_value + tr_h2, 0.0)))


def cost_and_gradient(theta: np.ndarray, h_tilde: PauliSum | np.ndarray, spec: AnsatzSpec) -> tuple[float, np.ndarray]:
    """F and its gradient dF/dtheta_j = 2 Im <Y_j, g_j L_j> from the
    backward and forward walks of the module docstring."""
    h = _hamiltonian(h_tilde, spec.n)
    theta = np.asarray(theta, dtype=float)
    ys = _adjoint_columns(spec, theta)
    z = _czbar_diagonal(spec.width)
    block = _block_of(ys[0], z)
    f = _block_cost(block, h)
    lj = z[:, None] * (ys[0] @ (block - h))
    gl = np.empty_like(lj)
    nxt = np.empty_like(lj)
    grad = np.empty(len(theta))
    cos, isin = np.cos(theta / 2), 1j * np.sin(theta / 2)
    for j, (row, y) in enumerate(zip(_generator_table(spec), ys)):
        _apply_generator(*row, lj, gl)
        grad[j] = np.vdot(y, gl).imag
        np.multiply(cos[j], lj, out=nxt)
        gl *= isin[j]
        np.subtract(nxt, gl, out=lj)
    return f, 2.0 * grad


def hessian(theta: np.ndarray, h_tilde: PauliSum | np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    """Exact Hessian of F in closed form.

    dW_j and d2W_jk are the module docstring's, in the stack
    A_j = P_j^dag g_j P_j.  With U the top rows of V (so
    Wblk = U Z U^dag), E_j = U [A_j, Z] U^dag and M = U^dag (Wblk - H) U,

        d2F_jk = 2 Re <dWblk_j, dWblk_k> + 2 Re Tr[(Wblk - H) d2Wblk_jk]
               = 1/2 Re Tr(E_j^dag E_k) + Re Tr(M A_j Z A_k) - Re Tr(Z M A_hi A_lo),

    each an m x m matrix of pair traces over the stack.  The lower
    triangle (j >= k, so hi = j) is kept and mirrored, which makes the
    result exactly symmetric.
    """
    h = _hamiltonian(h_tilde, spec.n)
    theta = np.asarray(theta, dtype=float)
    table = _checked_table(spec, theta)
    p = np.eye(2**spec.width, dtype=complex)  # P_j, from P_0 = I to P_m = V
    gp = np.empty_like(p)
    a = np.empty((len(table),) + p.shape, dtype=complex)
    cos, isin = np.cos(theta / 2), 1j * np.sin(theta / 2)
    for j, row in enumerate(table):
        _apply_generator(*row, p, gp)
        np.matmul(p.conj().T, gp, out=a[j])
        p = cos[j] * p - isin[j] * gp
    z = _czbar_diagonal(spec.width)
    u = p[: 2**spec.n]
    m_mat = u.conj().T @ (_block_of(u.conj().T, z) - h) @ u
    e = (u @ (a * (z[None, :] - z[:, None])) @ u.conj().T).reshape(len(a), -1)
    ma = m_mat @ a
    hess = (
        0.5 * np.real(e.conj() @ e.T)
        + np.real(_pair_traces(ma, z[:, None] * a))
        - np.real(_pair_traces(z[:, None] * ma, a))
    )
    return np.tril(hess) + np.tril(hess, -1).T


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

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
    h = _hamiltonian(h_tilde, spec.n)

    starts = [np.asarray(theta0, dtype=float) for theta0 in initial_thetas or []]
    for theta0 in starts:
        if theta0.shape != (spec.n_parameters,) or not np.isfinite(theta0).all():
            raise ValueError(f"a warm start must hold {spec.n_parameters} finite angles")
    for r in range(config.restarts):
        rng = np.random.default_rng(config.init_seed + r)
        starts.append(rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=spec.n_parameters))

    if not starts:
        raise ValueError("nothing to optimize: restarts is 0 and no initial_thetas were given")
    best: OptimizeResult | None = None
    evals = 0
    for theta0 in starts:
        trace: list[float] = []

        def fun_grad(theta):
            f, g = cost_and_gradient(theta, h, spec)
            if not np.isfinite(f):
                raise OptimizationError("non-finite cost encountered")
            trace.append(f)
            return f, g

        res = scipy.optimize.minimize(
            fun_grad,
            theta0,
            jac=True,
            hess=(lambda th: hessian(th, h, spec)) if config.method == "newton" else None,
            method=_METHODS[config.method],
            options={"gtol": _GRAD_NORM_THRESHOLD, "maxiter": config.max_iters},
        )
        theta, f = res.x, float(res.fun)
        ok = bool(res.success) or float(np.linalg.norm(res.jac)) < 10 * _GRAD_NORM_THRESHOLD
        evals += len(trace)
        cand = OptimizeResult(theta, epsilon_be_from_cost(f, h), trace, ok)
        if best is None or cand.epsilon_be < best.epsilon_be:
            best = cand
    best.evals = evals
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
    previous optimum padded with zero-angle layers (an exact embedding, so
    the optimal error is non-increasing in L); layer_range must be strictly
    increasing, else ValueError."""
    config = config or OptimizerConfig()
    depths = list(layer_range)
    if any(lo >= hi for lo, hi in zip(depths, depths[1:])):
        raise ValueError(f"layer_range must be strictly increasing, got {depths}")
    results: dict[int, OptimizeResult] = {}
    n = h_tilde.n
    for prev, layers in zip([None] + depths, depths):
        warm = [] if prev is None else [_pad_layers(results[prev].theta, AnsatzSpec(n, a, prev), layers)]
        results[layers] = optimize(h_tilde, n, a, layers, config, initial_thetas=warm)
    return results


def _pad_layers(theta: np.ndarray, old: AnsatzSpec, layers: int) -> np.ndarray:
    """Embed old's parameter vector into `layers` >= old.layers layers: the
    new layers hold zero angles and come before the final rotations."""
    per_layer = 4 * old.width - 1  # 3w rotations and w - 1 RZZs
    cut = old.layers * per_layer
    return np.concatenate([theta[:cut], np.zeros((layers - old.layers) * per_layer), theta[cut:]])
