"""Variationally optimized compressed block encoding.

The ansatz is the reflection circuit W(theta) = V(theta) CZbar V(theta)^dag:
V stacks L layers of [single-qubit RX.RZ.RX triplets on every qubit,
then a nearest-neighbour RZZ ladder], closed by one more triplet column;
CZbar is a nearest-neighbour CZ ladder.  W(theta)^2 = I for every theta,
and each application of W contains (a+n-1)(2L+1) two-qubit gates.

The cost of encoding a target H is F(theta) = ||Wblk||_F^2
- 2 Re Tr(H Wblk) with Wblk the ancilla-zero block, so that
epsilon_BE^2 = F(theta) + Tr(H^2).  F depends on V only through U = Pi V,
its top 2^n rows (Pi keeps the ancilla-zero rows), since
Wblk = U Z U^dag with Z the CZ-ladder diagonal.

The block walk.  V = B_2L ... B_1 B_0: B_2c is triplet column c, the
product over the qubits q of T_q = RX(theta_2) RZ(theta_1) RX(theta_0),
applied as one Kronecker product per run of at most circuits._FUSE_QUBITS
= 5 consecutive qubits; B_2l+1 is ladder l, the diagonal
exp(-i/2 sum_k theta_k zz_k) with zz_k that of Z_k Z_k+1.  The walk keeps
Y_k = (B_2L ... B_k)^dag Pi^T, D x 2^n (D = 2^w, w = n + a), at the 2L+2
block boundaries, from Y_2L+1 = Pi^T by Y_k = B_k^dag Y_k+1.  Y_0 = U^dag,
so Wblk = Y_0^dag (z * Y_0) with z = diag Z.  cost, ansatz_block and
cost_and_gradient read this one walk: F from cost and from
cost_and_gradient are the same bits.

The gradient is exact (adjoint differentiation, Jones & Gacon,
arXiv:2009.02823).  With M = Wblk - H, a forward walk from L_0 = Z U^dag M
takes block k's output P_k = B_k L_k as L_k+1.  A parameter of block k
with dB_k = -i/2 K' B_k has dF = 2 Re Tr[M dWblk] = 2 Im <Y_k+1, K' P_k>
(Frobenius inner product).  Gates on different qubits commute, so in a
triplet column K' acts on one qubit: with dT/dtheta_i = -i/2 K_i,
K'_i = K_i T^dag, that is K'_0 = T X T^dag, K'_1 = RX(theta_2) Z RX(theta_2)^dag
and K'_2 = X, whose Pauli coefficients c_is = Tr(sigma_s K'_i)/2 over
s = X, Y, Z are (cos theta_1, sin theta_1 cos theta_2, sin theta_1 sin theta_2),
(0, -sin theta_2, cos theta_2) and (1, 0, 0).  So
dF/dtheta_i = 2 sum_s c_is Im Tr(sigma_s on q, R), R = P_k Y_k+1^dag, and
these Pauli projections read only R_b = P_b Y_b^dag (at most 32 x 32), R's
partial trace over the qubits outside q's run, with P_b and Y_b holding
the run's qubits as rows: one matmul and one projection per run.  A
ladder's w-1 entries are 2 Im(zz_k . s), s_i = sum_c conj(Y_ic) P_ic.  The
walks keep the (2L+2) D 2^n complex numbers of Y, each run's L+1 Kronecker
products and one R_b: 112 KB at (n, a, L) = (3, 2, 3).

Every function that takes the target H raises ValueError unless H is a
finite Hermitian (2^n, 2^n) matrix (errors.register_matrix), and every
one that takes theta unless it holds m finite angles (errors.angles).

The Hessian alone still walks V = V_m-1 ... V_0 gate by gate, each
V_j = exp(-i theta_j g_j / 2) = cos(theta_j/2) I - i sin(theta_j/2) g_j with
generator g_j = X, Z or ZZ, a signed permutation of the basis applied from
a table built once per AnsatzSpec.  It keeps the prefixes P_j+1 = V_j P_j
and the stack A_j = P_j^dag g_j P_j (V = P_m): dV_j = -i/2 V A_j and
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

from .circuits import _FUSE_QUBITS, Circuit, Gate, cz, rx, rz, rzz
from .errors import OptimizationError, angles, dense, integer, real, register_matrix
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
    it = iter(angles(theta, spec.n_parameters))
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
    v = Circuit(n, a).extend(_v_gate_sequence(spec, theta))
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


def _apply_generator(flips: bool, action: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """out = g x for the generator of one _generator_table row."""
    if flips:  # action is in range; the default mode="raise" copies out= through a buffer
        x.take(action, axis=0, out=out, mode="clip")
    else:
        np.multiply(action, x, out=out)


_I2 = np.eye(2)
_XZX = np.array([[[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]])[:, None, None]  # a triplet's generators


@functools.lru_cache(maxsize=16)
def _walk_tables(spec: AnsatzSpec) -> tuple:
    """What the block walk reads of spec, as (triplets, ladders, zz, z, runs):
    theta's indices of the triplet angles, (3, L+1, w) for theta_i of column c
    at qubit q, and of the ladders' RZZ angles, (L, w-1); the (w-1, D)
    diagonals zz_k of Z_k Z_k+1; the CZ-ladder diagonal z; and per run of at
    most _FUSE_QUBITS qubits [lo, hi), (lo, hi, shape, flat, phases), where
    shape views a D-row array as (2^lo, 2^(hi-lo), rest) and, for the run's
    qubit i and s = X, Y, Z, Tr(sigma_s R_b) = sum_r phases[s, i, r]
    R_b.flat[flat[s, i, r]]: sigma_s is a signed permutation, with the entry
    phases[s, i, r] in row r."""
    w, per_layer = spec.width, 4 * spec.width - 1  # 3w rotations and w - 1 RZZs
    idx = np.arange(spec.n_parameters)
    layers = idx[: spec.layers * per_layer].reshape(spec.layers, per_layer)
    triplets = np.concatenate([layers[:, : 3 * w], idx[None, len(layers) * per_layer:]])
    triplets = triplets.reshape(-1, w, 3).transpose(2, 0, 1)
    pairs = 3 << np.arange(w - 2, -1, -1)  # qubits k and k + 1 are bits w-1-k and w-2-k
    zz = 1.0 - 2.0 * (np.bitwise_count(np.arange(2**w) & pairs[:, None]) % 2)
    runs = []
    for lo in range(0, w, _FUSE_QUBITS):
        b = min(_FUSE_QUBITS, w - lo)
        rows = np.arange(2**b)
        masks = 1 << np.arange(b - 1, -1, -1)[:, None]  # qubit lo+i is bit b-1-i of the run's row
        signs = 1 - 2 * ((rows & masks) > 0)  # Z's diagonal; Y's entries are -i times it
        flat = np.stack([rows ^ masks, rows ^ masks, np.broadcast_to(rows, (b, 2**b))]) * 2**b + rows
        runs.append((lo, lo + b, (2**lo, 2**b, -1), flat, np.stack([np.ones_like(signs), -1j * signs, signs])))
    tables = (triplets, layers[:, 3 * w:], zz, _czbar_diagonal(w))
    for table in tables + tuple(t for run in runs for t in run[3:]):
        table.flags.writeable = False
    return tables + (tuple(runs),)


def _walk(spec: AnsatzSpec, theta: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The block walk of the module docstring at a checked theta: per run the
    (L+1, 2^b, 2^b) Kronecker products of its qubits' triplets T, the (L, D)
    ladder diagonals, and the (2L+2, D, 2^n) array of
    Y_k = (B_2L ... B_k)^dag Pi^T, from Y_2L+1 = Pi^T by Y_k = B_k^dag Y_k+1."""
    triplets, ladders, zz, _, runs = _walk_tables(spec)
    half = theta[triplets, None, None] / 2
    rx0, rz1, rx2 = np.cos(half) * _I2 - 1j * np.sin(half) * _XZX
    t = rx2 @ rz1 @ rx0
    krons = []
    for lo, hi, *_ in runs:
        k = t[:, hi - 1]
        for q in range(hi - 2, lo - 1, -1):  # T_q (x) k, the larger factor innermost
            k = (t[:, q, :, None, :, None] * k[:, None, :, None, :]).reshape(len(t), 2 * k.shape[1], -1)
        krons.append(k)
    diagonals = np.exp(-0.5j * (theta[ladders] @ zz))
    ys = np.empty((2 * spec.layers + 2, 2**spec.width, 2**spec.n), dtype=complex)
    ys[-1] = np.eye(*ys.shape[1:])
    for k in range(2 * spec.layers, -1, -1):
        if k % 2:
            np.multiply(diagonals[k // 2, :, None].conj(), ys[k + 1], out=ys[k])
            continue
        y = ys[k + 1]
        for (_, _, shape, *_), kron in zip(runs, krons):
            y = kron[k // 2].conj().T @ y.reshape(shape)
        ys[k] = y.reshape(ys.shape[1:])
    return krons, diagonals, ys


def _block_of(y0: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Wblk = U Z U^dag from Y_0 = U^dag."""
    return y0.conj().T @ (z[:, None] * y0)


@dataclass(frozen=True)
class _Target:
    matrix: np.ndarray  # a target _hamiltonian has checked: optimize checks it once, not per evaluation


def _hamiltonian(h_tilde: PauliSum | np.ndarray | _Target, n: int | None = None) -> np.ndarray:
    """h_tilde as a dense matrix, finite, Hermitian and (2^n, 2^n), any n when
    n is None (of a _Target, only the shape is checked again); the gradient's
    adjoint formula needs M = Wblk - H Hermitian."""
    if isinstance(h_tilde, _Target):
        return register_matrix(h_tilde.matrix, n, name="target")
    h = h_tilde.to_matrix() if isinstance(h_tilde, PauliSum) else np.asarray(h_tilde)
    return register_matrix(h, n, hermitian=True, name="target")


def _block_cost(block: np.ndarray, h: np.ndarray) -> float:
    return float(np.vdot(block, block).real - 2.0 * np.einsum("ij,ji->", h, block).real)


def ansatz_block(spec: AnsatzSpec, theta: np.ndarray) -> np.ndarray:
    """The block of W from the block walk."""
    y0 = _walk(spec, angles(theta, spec.n_parameters))[2][0]
    return _block_of(y0, _walk_tables(spec)[3])


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
    """F and its gradient from the block walk and the forward walk of the
    module docstring: per triplet column the Pauli projections of each
    run's R_b, per ladder s."""
    h = _hamiltonian(h_tilde, spec.n)
    theta = angles(theta, spec.n_parameters)
    triplets, ladders, zz, z, runs = _walk_tables(spec)
    krons, diagonals, ys = _walk(spec, theta)
    block = _block_of(ys[0], z)
    f = _block_cost(block, h)
    p = z[:, None] * (ys[0] @ (block - h))
    projections = np.empty(triplets.shape, dtype=complex)  # Tr(sigma_s on q, R) per column
    s = np.empty_like(diagonals)
    for k, y in enumerate(ys[1:]):
        if k % 2:
            p = diagonals[k // 2, :, None] * p
            s[k // 2] = np.einsum("ic,ic->i", y.conj(), p)
            continue
        for (_, _, shape, *_), kron in zip(runs, krons):
            p = kron[k // 2] @ p.reshape(shape)
        p = p.reshape(y.shape)
        for lo, hi, shape, flat, phases in runs:
            pb, yb = (x.reshape(shape).swapaxes(0, 1).reshape(2 ** (hi - lo), -1) for x in (p, y))
            projections[:, k // 2, lo:hi] = (phases * (pb @ yb.conj().T).ravel()[flat]).sum(2)
    ux, uy, uz = projections.imag  # times the Pauli coefficients c_is of the module docstring
    (_, cos1, cos2), (_, sin1, sin2) = np.cos(theta[triplets]), np.sin(theta[triplets])
    grad = np.empty(spec.n_parameters)
    grad[triplets] = [cos1 * ux + sin1 * (cos2 * uy + sin2 * uz), cos2 * uz - sin2 * uy, ux]
    grad[ladders] = (s @ zz.T).imag
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
    theta = angles(theta, spec.n_parameters)
    table = _generator_table(spec)
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
    target = _Target(h)  # checked here, once for every evaluation

    starts = [angles(theta0, spec.n_parameters) for theta0 in initial_thetas or []]
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
            f, g = cost_and_gradient(theta, target, spec)
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
