"""Gate-level circuit IR with statevector and density-matrix simulation.

The register layout puts the ancilla qubits first (indices 0..n_ancilla-1,
most significant bits) followed by the system register, so a basis index
below 2**n_system means the ancillas are in the all-zero state.

Native gate set: RX, RZ, RZZ, CZ, HAD, plus a bookkeeping GPHASE that
carries the global phase exact synthesis requires.  MCPAULI (an
ancilla-pattern-controlled Pauli) and APHASE (the ancilla-register phase
exp(i*phi*(2|0..0><0..0| - 1))) are structural gates that decompose()
expands into the native set; decompose() is their only definition, and
the simulators run a circuit holding them through it.

Noise follows the two-qubit depolarizing model: every RZZ and CZ is
followed by a channel that with probability p_tq replaces the pair's
state by I/4.  Single-qubit gates are noiseless.

apply_statevector, circuit_unitary (apply_statevector on the identity)
and apply_density share one walk over the gate list.  It does not apply
single-qubit gates one at a time: each qubit keeps a pending 2x2
product, which is multiplied into the 4x4 of the next RZZ/CZ on that
qubit or applied at the end; scalar phases are carried and applied once.
The folding is exact, with or without noise: a pending unitary on qubit c
commutes with every gate and every channel on other qubits, and the
channel after an RZZ/CZ on c comes after the gate the pending unitary
was folded into.  A density matrix is conjugated as one (2,)*2w tensor,
on its row and column indices, with no transpose of rho.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DecompositionRequiredError, DimensionError
from .operators import MAX_DENSE_QUBITS, PauliString

NATIVE_KINDS = ("RX", "RZ", "RZZ", "CZ", "HAD", "GPHASE")
STRUCTURAL_KINDS = ("MCPAULI", "APHASE")
_KINDS = frozenset(NATIVE_KINDS + STRUCTURAL_KINDS)

_HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...] = ()
    angle: float = 0.0
    pattern: tuple[int, ...] = ()  # MCPAULI ancilla control pattern
    pauli: PauliString | None = None  # MCPAULI system Pauli
    sign: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not all(isinstance(q, (int, np.integer)) for q in self.qubits):
            raise ValueError(f"qubit indices must be integers, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")
        if self.kind in ("RZZ", "CZ") and len(self.qubits) != 2:
            raise ValueError(f"{self.kind} acts on exactly 2 qubits")
        if self.kind in ("RX", "RZ", "HAD") and len(self.qubits) != 1:
            raise ValueError(f"{self.kind} acts on exactly 1 qubit")
        if self.kind in ("GPHASE", "APHASE", "MCPAULI") and self.qubits:
            raise ValueError(f"{self.kind} takes its qubits from the registers, not a qubit list")
        if self.kind == "MCPAULI":
            if not isinstance(self.pauli, PauliString):
                raise ValueError("MCPAULI needs a system PauliString")
            if self.sign not in (1, -1):
                raise ValueError("sign must be +1 or -1")
            if any(b not in (0, 1) for b in self.pattern):
                raise ValueError(f"pattern entries must be 0 or 1, got {self.pattern}")


def rx(q: int, angle: float) -> Gate:
    return Gate("RX", (q,), angle)


def rz(q: int, angle: float) -> Gate:
    return Gate("RZ", (q,), angle)


def rzz(q0: int, q1: int, angle: float) -> Gate:
    return Gate("RZZ", (q0, q1), angle)


def cz(q0: int, q1: int) -> Gate:
    return Gate("CZ", (q0, q1))


def had(q: int) -> Gate:
    return Gate("HAD", (q,))


def gphase(angle: float) -> Gate:
    return Gate("GPHASE", (), angle)


def aphase(angle: float) -> Gate:
    return Gate("APHASE", (), angle)


def mcpauli(pattern: tuple[int, ...], pauli: PauliString, sign: int = 1) -> Gate:
    return Gate("MCPAULI", (), 0.0, tuple(pattern), pauli, sign)


@dataclass
class Circuit:
    n_system: int
    n_ancilla: int = 0
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if self.n_system < 0 or self.n_ancilla < 0:
            raise ValueError(f"register sizes must be non-negative, got {self.n_system} and {self.n_ancilla}")
        for g in self.gates:
            self._check_gate(g)

    @property
    def width(self) -> int:
        return self.n_system + self.n_ancilla

    @property
    def ancilla_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n_ancilla))

    def system_qubit(self, i: int) -> int:
        return self.n_ancilla + i

    def _check_gate(self, gate: Gate) -> None:
        for q in gate.qubits:
            if not 0 <= q < self.width:
                raise ValueError(f"qubit {q} out of range for width {self.width}")
        if gate.kind == "MCPAULI":
            if len(gate.pattern) != self.n_ancilla:
                raise ValueError("MCPAULI pattern length must equal the ancilla count")
            if gate.pauli.n != self.n_system:
                raise ValueError("MCPAULI Pauli must act on the system register")

    def append(self, gate: Gate) -> "Circuit":
        self._check_gate(gate)
        self.gates.append(gate)
        return self

    def extend(self, gates) -> "Circuit":
        for g in gates:
            self.append(g)
        return self

    def __len__(self) -> int:
        return len(self.gates)

    def inverse(self) -> "Circuit":
        """Exact gate-list inversion: reversed order, negated angles."""
        inv = Circuit(self.n_system, self.n_ancilla)
        for g in reversed(self.gates):
            if g.kind in ("RX", "RZ", "RZZ", "APHASE", "GPHASE"):
                inv.gates.append(replace(g, angle=-g.angle))
            else:  # HAD, CZ, MCPAULI are self-inverse
                inv.gates.append(g)
        return inv


@dataclass(frozen=True)
class NoiseModel:
    p_tq: float = 0.0
    mode: str = "none"  # none | per_gate_depolarizing | global_depolarizing

    def __post_init__(self):
        if not 0.0 <= self.p_tq < 1.0:
            raise ValueError("p_tq must lie in [0, 1)")
        if self.mode not in ("none", "per_gate_depolarizing", "global_depolarizing"):
            raise ValueError(f"unknown noise mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Dense application helpers
# ---------------------------------------------------------------------------

def _tensor_apply(vec: np.ndarray, local: np.ndarray, axes: tuple[int, ...], work: np.ndarray) -> None:
    """Apply a 2^k x 2^k operator in place to the given qubit axes of a
    C-contiguous complex (2^w,) or (2^w, B) array; local's first index
    belongs to axes[0].

    Axes count qubits from the most significant bit of the C-order index,
    so on a (2^w, 2^w) density matrix axes w..2w-1 are its column qubits.

    The untouched qubits are grouped into at most k+1 blocks, so the
    transposes have at most 2k+1 axes; the contraction is one matrix
    product.  work is a flat complex buffer of twice vec's size; the
    operand is gathered into it, multiplied into its second half and
    scattered back into vec, and nothing is allocated: on density-matrix
    sized arrays, fresh temporaries per gate cost more in page faults than
    the product itself.
    """
    dims, pos = [], {}
    prev = 0
    for q in sorted(axes):
        dims += [2 ** (q - prev), 2]
        pos[q] = len(dims) - 1
        prev = q + 1
    dims.append(vec.size >> prev)
    k = len(axes)
    src = [pos[q] for q in axes]
    order = src + [i for i in range(len(dims)) if i not in src]
    moved = vec.reshape(dims).transpose(order)
    cols = vec.size >> k
    gathered = work[: vec.size].reshape(moved.shape)
    np.copyto(gathered, moved)
    res = work[vec.size:].reshape(2**k, cols)
    np.dot(local, gathered.reshape(2**k, cols), out=res)
    np.copyto(moved, res.reshape(moved.shape))


def _gate_local(gate: Gate) -> tuple[np.ndarray | None, tuple[int, ...], complex]:
    """Return (local unitary, target axes, scalar phase) for a native gate."""
    kind = gate.kind
    if kind == "RX":
        c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]]), gate.qubits, 1.0
    if kind == "RZ":
        return np.diag([np.exp(-1j * gate.angle / 2), np.exp(1j * gate.angle / 2)]), gate.qubits, 1.0
    if kind == "HAD":
        return _HAD, gate.qubits, 1.0
    if kind == "RZZ":
        e = np.exp(1j * gate.angle / 2)
        return np.diag([e.conjugate(), e, e, e.conjugate()]), gate.qubits, 1.0
    if kind == "CZ":
        return _CZ, gate.qubits, 1.0
    if kind == "GPHASE":
        return None, (), np.exp(1j * gate.angle)
    raise DecompositionRequiredError(f"{kind} is not a native gate; decompose the circuit first")


def _walk(circuit: Circuit, initial: np.ndarray, density: bool = False, p_pair: float = 0.0) -> np.ndarray:
    """The one gate-application walk behind every simulator (see the module
    docstring for the folding rule).

    initial is a (2^w,) state, a (2^w, B) batch of columns, or with
    density=True a (2^w, 2^w) density matrix, which is conjugated and on
    which scalar phases cancel.  p_pair > 0 attaches the two-qubit
    depolarizing channel after every RZZ/CZ, applied in place on the
    walk's own buffer.  A circuit holding a structural gate is walked as
    decompose(circuit).
    """
    if any(g.kind in STRUCTURAL_KINDS for g in circuit.gates):
        circuit = decompose(circuit)
    w = circuit.width
    out = np.array(initial, dtype=complex, order="C")
    work = np.empty(2 * out.size, dtype=complex)

    def apply(local: np.ndarray, axes: tuple[int, ...]) -> None:
        _tensor_apply(out, local, axes, work)
        if density:
            _tensor_apply(out, local.conj(), tuple(w + q for q in axes), work)

    pending: dict[int, np.ndarray] = {}
    phase = 1.0
    for g in circuit.gates:
        local, axes, scalar = _gate_local(g)
        phase *= scalar
        if local is None:
            continue
        if len(axes) == 1:
            q = axes[0]
            pending[q] = local @ pending[q] if q in pending else local
            continue
        a, b = pending.pop(axes[0], _I2), pending.pop(axes[1], _I2)
        apply(local @ (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4), axes)  # kron(a, b)
        if p_pair:
            _depolarize_pair_inplace(out.reshape((2,) * (2 * w)), axes[0], axes[1], p_pair, w)
    for q, m in pending.items():
        apply(m, (q,))
    if density or phase == 1.0:
        return out
    return phase * out


def apply_statevector(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Noiseless statevector evolution of a (2^w,) state or (2^w, B) batch."""
    if state.shape[0] != 2**circuit.width:
        raise ValueError("statevector width does not match circuit")
    return _walk(circuit, state)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (desk-scale oracle)."""
    if circuit.width > MAX_DENSE_QUBITS:
        raise DimensionError(f"width {circuit.width} exceeds the dense cap of {MAX_DENSE_QUBITS}")
    return apply_statevector(circuit, np.eye(2**circuit.width, dtype=complex))


def _depolarize_pair_inplace(t: np.ndarray, q0: int, q1: int, p: float, width: int) -> None:
    """rho <- (1-p) rho + p (I/4 on the pair) (x) Tr_pair rho, on the (2,)*2w tensor t.

    Tr_pair rho is the sum of the four pair-diagonal slices; the I/4 term
    adds p/4 of it back onto each of them.  At width 2 a slice is a
    scalar, so every update goes through item assignment on t.
    """
    sites = []
    for a in (0, 1):
        for b in (0, 1):
            idx = [slice(None)] * (2 * width)
            idx[q0] = idx[width + q0] = a
            idx[q1] = idx[width + q1] = b
            sites.append(tuple(idx))
    traced = sum(t[s] for s in sites)
    t *= 1.0 - p
    for s in sites:
        t[s] += (p / 4.0) * traced


def depolarize_pair(rho: np.ndarray, q0: int, q1: int, p: float, width: int) -> np.ndarray:
    """Two-qubit depolarizing channel: keep with 1-p, else I/4 on the pair.

    Returns a new array; rho is left unchanged.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if q0 == q1 or not (0 <= q0 < width and 0 <= q1 < width):
        raise ValueError(f"qubits ({q0}, {q1}) are not a distinct pair of a width-{width} register")
    out = rho.astype(complex)
    _depolarize_pair_inplace(out.reshape((2,) * (2 * width)), q0, q1, p, width)
    return out


def global_depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """(1-p) rho + p I/dim on the full register."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    dim = rho.shape[0]
    return (1.0 - p) * rho + p * np.eye(dim, dtype=complex) / dim


def apply_density(circuit: Circuit, rho: np.ndarray, noise: NoiseModel | None = None) -> np.ndarray:
    """Evolve a density matrix through the circuit under the noise model.

    per_gate_depolarizing attaches a two-qubit depolarizing channel after
    every RZZ and CZ; global_depolarizing applies one channel at the end
    with p = 1-(1-p_tq)^N_TQ; none is exact conjugation.

    Single-qubit gates are folded into two-qubit ones (module docstring).
    """
    if rho.shape != (2**circuit.width, 2**circuit.width):
        raise ValueError(f"density matrix of shape {rho.shape} does not match width {circuit.width}")
    noise = noise or NoiseModel()
    noisy = noise.mode != "none" and noise.p_tq > 0.0
    if noisy and any(g.kind in STRUCTURAL_KINDS for g in circuit.gates):
        raise DecompositionRequiredError("noisy simulation needs a decomposed circuit")
    per_gate = noisy and noise.mode == "per_gate_depolarizing"
    out = _walk(circuit, rho, density=True, p_pair=noise.p_tq if per_gate else 0.0)
    if noisy and noise.mode == "global_depolarizing":
        n_tq = count_two_qubit_gates(circuit)
        out = global_depolarize(out, 1.0 - (1.0 - noise.p_tq) ** n_tq)
    return out


def count_two_qubit_gates(circuit: Circuit) -> int:
    """Count RZZ and CZ gates; the circuit must be fully decomposed."""
    for g in circuit.gates:
        if g.kind in STRUCTURAL_KINDS:
            raise DecompositionRequiredError(f"{g.kind} must be decomposed before counting")
    return sum(1 for g in circuit.gates if g.kind in ("RZZ", "CZ"))


# ---------------------------------------------------------------------------
# Decomposition of structural gates into the native set
# ---------------------------------------------------------------------------

def _phase1q(q: int, theta: float) -> list[Gate]:
    """diag(1, e^{i theta}) on one qubit."""
    return [gphase(theta / 2.0), rz(q, theta)]


def _cphase(c: int, t: int, theta: float) -> list[Gate]:
    """Controlled phase via one RZZ."""
    return [rz(c, theta / 2.0), rz(t, theta / 2.0), rzz(c, t, -theta / 2.0), gphase(theta / 4.0)]


def _pauli_x(q: int) -> list[Gate]:
    return [gphase(np.pi / 2.0), rx(q, np.pi)]


# letter -> (gates before, gates after) that turn a Z on qubit t into the letter
_TO_Z_BASIS = {
    "X": lambda t: ([had(t)], [had(t)]),
    "Y": lambda t: ([rx(t, np.pi / 2.0)], [rx(t, -np.pi / 2.0)]),
    "Z": lambda t: ([], []),
}


def _cx(c: int, t: int) -> list[Gate]:
    return [had(t), cz(c, t), had(t)]


def mcphase(controls: tuple[int, ...], target: int, theta: float) -> list[Gate]:
    """Multi-controlled phase (phase theta iff all controls and target are 1).

    Textbook ancilla-free recursion; two-qubit cost satisfies
    cost(m) = 2 + 3*cost(m-1) with cost(1) = 1.
    """
    if not controls:
        return _phase1q(target, theta)
    if len(controls) == 1:
        return _cphase(controls[0], target, theta)
    *rest, last = controls
    gates: list[Gate] = []
    gates += _cphase(last, target, theta / 2.0)
    gates += mcx(tuple(rest), last)
    gates += _cphase(last, target, -theta / 2.0)
    gates += mcx(tuple(rest), last)
    gates += mcphase(tuple(rest), target, theta / 2.0)
    return gates


def mcx(controls: tuple[int, ...], target: int) -> list[Gate]:
    if not controls:
        return _pauli_x(target)
    if len(controls) == 1:
        return _cx(controls[0], target)
    return [had(target)] + mcphase(controls, target, np.pi) + [had(target)]


def _decompose_mcpauli(gate: Gate, circuit: Circuit) -> list[Gate]:
    """Each support letter is a multi-controlled Z in its own basis; a minus
    sign conjugates the first letter with a Pauli that anticommutes with it."""
    ancillas = circuit.ancilla_qubits
    gates: list[Gate] = []
    flips = [ancillas[i] for i, b in enumerate(gate.pattern) if b == 0]
    for q in flips:
        gates += _pauli_x(q)
    for k, q in enumerate(gate.pauli.support):
        letter = gate.pauli.letters[q]
        t = circuit.system_qubit(q)
        pre, post = _TO_Z_BASIS[letter](t)
        if k == 0 and gate.sign == -1:  # -X = Z X Z, -Y = X Y X, -Z = X Z X
            flip = _phase1q(t, np.pi) if letter == "X" else _pauli_x(t)
            pre, post = flip + pre, post + flip
        gates += pre + mcphase(ancillas, t, np.pi) + post
    if not gate.pauli.support and gate.sign == -1:
        gates += mcphase(ancillas[:-1], ancillas[-1], np.pi) if ancillas else [gphase(np.pi)]
    for q in flips:
        gates += _pauli_x(q)
    return gates


def _decompose_aphase(gate: Gate, circuit: Circuit) -> list[Gate]:
    a = circuit.n_ancilla
    phi = gate.angle
    if a == 0:
        return [gphase(phi)]
    if a == 1:
        return [rz(circuit.ancilla_qubits[0], -2.0 * phi)]
    ancillas = circuit.ancilla_qubits
    gates: list[Gate] = [gphase(-phi)]
    for q in ancillas:
        gates += _pauli_x(q)
    gates += mcphase(ancillas[:-1], ancillas[-1], 2.0 * phi)
    for q in ancillas:
        gates += _pauli_x(q)
    return gates


def decompose(circuit: Circuit) -> Circuit:
    """Expand MCPAULI and APHASE gates into the native gate set."""
    out = Circuit(circuit.n_system, circuit.n_ancilla)
    for g in circuit.gates:
        if g.kind == "MCPAULI":
            out.extend(_decompose_mcpauli(g, circuit))
        elif g.kind == "APHASE":
            out.extend(_decompose_aphase(g, circuit))
        else:
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# States and measurement sampling
# ---------------------------------------------------------------------------

def zero_state(width: int) -> np.ndarray:
    s = np.zeros(2**width, dtype=complex)
    s[0] = 1.0
    return s


def plus_state(n: int) -> np.ndarray:
    return np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex)


def with_ancilla_zero(psi_system: np.ndarray, n_ancilla: int) -> np.ndarray:
    """|0^a> tensor |psi> in the ancilla-first layout."""
    full = np.zeros(2**n_ancilla * psi_system.shape[0], dtype=complex)
    full[: psi_system.shape[0]] = psi_system
    return full


def density_from_state(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def partial_trace(rho: np.ndarray, keep: tuple[int, ...], width: int) -> np.ndarray:
    """Reduced density matrix on the kept qubits (original index order)."""
    keep = list(keep)
    drop = [q for q in range(width) if q not in keep]
    perm_half = keep + drop
    perm = perm_half + [width + q for q in perm_half]
    k, d = 2 ** len(keep), 2 ** len(drop)
    t = rho.reshape([2] * (2 * width)).transpose(perm).reshape(k, d, k, d)
    return np.einsum("aibi->ab", t)


def sample_pauli_measurement(
    rho: np.ndarray,
    observable: PauliString,
    shots: int,
    seed: int,
    n_ancilla: int,
) -> dict[tuple[str, int], int]:
    """Sample the joint (ancilla bitstring, Pauli eigenvalue) distribution.

    Draws from the exact Born distribution; reproducible under the seed.
    """
    if not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be an integer >= 1, got {shots!r}")
    n_system = observable.n
    dim_a, dim_s = 2**n_ancilla, 2**n_system
    if rho.shape != (dim_a * dim_s, dim_a * dim_s):
        raise ValueError(f"density matrix of shape {rho.shape} does not match the registers")
    pmat = observable.to_matrix()
    probs = np.empty((dim_a, 2))
    for b in range(dim_a):
        block = rho[b * dim_s: (b + 1) * dim_s, b * dim_s: (b + 1) * dim_s]
        tr = np.trace(block).real
        ev = np.trace(pmat @ block).real
        probs[b, 0] = (tr + ev) / 2.0  # outcome +1
        probs[b, 1] = (tr - ev) / 2.0  # outcome -1
    flat = np.clip(probs.reshape(-1), 0.0, None)
    if not flat.sum() > 0.0:
        raise ValueError("density matrix has no positive probability to sample")
    flat = flat / flat.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, flat)
    counts: dict[tuple[str, int], int] = {}
    for idx, c in enumerate(draws):
        if c == 0:
            continue
        b, o = divmod(idx, 2)
        key = (format(b, f"0{n_ancilla}b") if n_ancilla else "", 1 if o == 0 else -1)
        counts[key] = int(c)
    return counts
