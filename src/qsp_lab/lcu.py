"""Exact block encoding by linear combination of unitaries.

The encoding is W = A_dag B A with a state-preparation operator A on the
ancilla register and a select oracle B = sum_l sign_l |l><l| (x) P_l.
Two select realizations are provided: a naive one built from
ancilla-pattern-controlled Paulis (the documented baseline for gate
counts), and a compressed one that synthesizes the same operator as a
phase polynomial via Gray-code-shared CX walks, without extra ancillas.

B is a reflection (each branch squares to the identity), so W inherits
the qubitization condition W^2 = I.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuits as cir
from .circuits import Circuit, Gate, _cx, gphase, had, mcpauli, rx, rz
from .operators import PauliString, PauliSum

_ANGLE_TOL = 1e-12


@dataclass
class LCUPlan:
    """Branch data for W = A_dag B A; c is the coefficient one-norm."""

    a: int
    prep_amplitudes: np.ndarray  # K entries sqrt(|c_l| / c)
    signs: list[int]
    paulis: list[PauliString]
    c: float

    @property
    def k(self) -> int:
        return len(self.paulis)

    @property
    def n_system(self) -> int:
        return self.paulis[0].n

    def encoded_operator(self) -> PauliSum:
        """The Pauli sum the ancilla-zero block realizes (H_tilde / c)."""
        terms = [
            (s * float(w) ** 2, p)
            for w, s, p in zip(self.prep_amplitudes, self.signs, self.paulis)
        ]
        return PauliSum(self.n_system, terms)


@dataclass
class BlockEncoding:
    """A unitary whose ancilla-zero block realizes a target operator.

    The block equals target/scale; scale is 1 for exactness-demanding
    (padded, one-norm-1) plans and the coefficient one-norm otherwise.
    """

    circuit: Circuit
    epsilon_be: float
    scale: float = 1.0

    @property
    def a(self) -> int:
        return self.circuit.n_ancilla

    @property
    def n_system(self) -> int:
        return self.circuit.n_system

    def block(self) -> np.ndarray:
        return encoded_block(self.circuit)


def encoded_block(circuit: Circuit) -> np.ndarray:
    """(<0^a| x I) U (|0^a> x I) as a dense matrix."""
    dim = 2**circuit.n_system
    return cir.circuit_unitary(circuit)[:dim, :dim]


def lcu_plan(h_tilde: PauliSum, pad_equal_weights: bool = False) -> LCUPlan:
    """Split a Pauli sum into prepare amplitudes, signs, and select branches.

    With pad_equal_weights the identity term is replicated so that all
    K = 2^a branch weights are equal and A reduces to HAD on every
    ancilla; this requires the non-identity coefficients to share one
    magnitude that divides the identity coefficient evenly.
    """
    terms = [(c, p) for c, p in h_tilde.terms if c != 0.0]
    if not terms:
        raise ValueError("cannot block-encode the zero operator")
    c_norm = sum(abs(c) for c, _ in terms)
    if pad_equal_weights:
        nonid = [(c, p) for c, p in terms if not p.is_identity]
        id_coeff = sum(c for c, p in terms if p.is_identity)
        if not nonid:
            raise ValueError("padding needs at least one non-identity term")
        weight = abs(nonid[0][0])
        if any(abs(abs(c) - weight) > 1e-12 for c, _ in nonid):
            raise ValueError("equal-weight padding needs equal non-identity magnitudes")
        copies = abs(id_coeff) / weight
        if abs(copies - round(copies)) > 1e-9:
            raise ValueError("identity coefficient is not a multiple of the branch weight")
        copies = int(round(copies))
        k = copies + len(nonid)
        if k & (k - 1):
            raise ValueError(f"padded branch count {k} is not a power of two")
        identity = PauliString("I" * h_tilde.n)
        id_sign = 1 if id_coeff >= 0 else -1
        paulis = [identity] * copies + [p for _, p in nonid]
        signs = [id_sign] * copies + [1 if c >= 0 else -1 for c, _ in nonid]
    else:
        paulis = [p for _, p in terms]
        signs = [1 if c >= 0 else -1 for c, _ in terms]
        weights = [abs(c) for c, _ in terms]
        k = len(terms)
    a = max(int(np.ceil(np.log2(k))), 0) if k > 1 else 0
    if pad_equal_weights:
        amps = np.full(k, 1.0 / np.sqrt(k))
    else:
        amps = np.sqrt(np.array(weights) / c_norm)
    return LCUPlan(a=a, prep_amplitudes=amps, signs=signs, paulis=paulis, c=float(c_norm))


# ---------------------------------------------------------------------------
# Gray-code synthesis of diagonal phase operators
# ---------------------------------------------------------------------------

def _walsh(values: np.ndarray) -> np.ndarray:
    """Walsh coefficients of values over controls, controls[0] the most
    significant bit of the index: w[mask] is the weight of the parity
    character on {controls[i] : bit i of mask set}."""
    m = int(np.log2(len(values)))
    w = np.array(values, dtype=float)
    for i in range(m):
        w = w.reshape(-1, 2, 2**i)
        w[:, 0], w[:, 1] = w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]
        w = w.reshape(-1)
    # reversing the axes of the (2,)*m tensor reverses the bit order of its index
    return (w / len(values)).reshape((2,) * m).T.reshape(-1)


def _ry_gates(t: int, angle: float) -> list[Gate]:
    return [rz(t, -np.pi / 2.0), rx(t, angle), rz(t, np.pi / 2.0)]


def _gray_ucr(axis: str, controls: tuple[int, ...], target: int, w_by_mask: np.ndarray) -> list[Gate]:
    """Product over control subsets T of R_axis(theta_T * chi_T(x)) on the target.

    w_by_mask[g] is the rotation angle for the parity character on
    {controls[i] : bit i of g set}.  The walk visits subsets in Gray
    order over the union support of the nonzero angles, sharing CX
    parity toggles between consecutive rotations.
    """
    rot = (lambda t, a: [rz(t, a)]) if axis == "RZ" else (lambda t, a: _ry_gates(t, a))
    m = len(controls)
    nz = [g for g in range(2**m) if abs(w_by_mask[g]) > _ANGLE_TOL]
    if not nz:
        return []
    support = 0
    for g in nz:
        support |= g
    bits = [i for i in range(m) if support & (1 << i)]
    if len(bits) < m:  # drop controls no nonzero term touches
        reduced = np.zeros(2 ** len(bits))
        for g in nz:
            sub = 0
            for j, i in enumerate(bits):
                if g & (1 << i):
                    sub |= 1 << j
            reduced[sub] = w_by_mask[g]
        return _gray_ucr(axis, tuple(controls[i] for i in bits), target, reduced)
    if m == 0:
        return rot(target, float(w_by_mask[0]))
    gates: list[Gate] = []
    mask = 0
    for j in range(2**m):
        g = j ^ (j >> 1)
        theta = float(w_by_mask[g])
        if abs(theta) <= _ANGLE_TOL:
            continue
        diff = mask ^ g
        for bit in range(m):
            if diff & (1 << bit):
                gates += _cx(controls[bit], target)
        mask = g
        gates += rot(target, theta)
    for bit in range(m):
        if mask & (1 << bit):
            gates += _cx(controls[bit], target)
    return gates


def ucrz(controls: tuple[int, ...], target: int, alphas: np.ndarray) -> list[Gate]:
    """Uniformly controlled RZ: sum_x |x><x| RZ(alpha_x) on the target.

    alphas is indexed so that controls[0] is the most significant bit.
    """
    return _gray_ucr("RZ", controls, target, _walsh(alphas))


def ucry(controls: tuple[int, ...], target: int, alphas: np.ndarray) -> list[Gate]:
    return _gray_ucr("RY", controls, target, _walsh(alphas))


def diagonal_gates(qubits: tuple[int, ...], phases: np.ndarray) -> list[Gate]:
    """Exact synthesis of diag(exp(i*phases[x])) over the given qubits.

    qubits[0] indexes the most significant bit of x.  On the last qubit
    diag(e^{i p0}, e^{i p1}) = e^{i (p0+p1)/2} RZ(p1 - p0), so the rest is
    a diagonal on the other qubits and one uniformly controlled RZ.  The
    constant phase is emitted as a GPHASE so the result matches the
    target with no global-phase slack.
    """
    phases = np.asarray(phases, dtype=float)
    if not qubits:
        return [gphase(float(phases[0]))] if abs(phases[0]) > _ANGLE_TOL else []
    p0, p1 = phases[0::2], phases[1::2]
    return diagonal_gates(qubits[:-1], (p0 + p1) / 2.0) + ucrz(qubits[:-1], qubits[-1], p1 - p0)


# ---------------------------------------------------------------------------
# Select oracles and the full encoding
# ---------------------------------------------------------------------------

def _branch_tables(plan: LCUPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-branch X/Z exponent tables and the collected ancilla phase."""
    n = plan.n_system
    dim_a = 2**plan.a
    bx = np.zeros((n, dim_a), dtype=float)
    bz = np.zeros((n, dim_a), dtype=float)
    anc_phase = np.zeros(dim_a)
    for idx in range(plan.k):
        p = plan.paulis[idx]
        if plan.signs[idx] == -1:
            anc_phase[idx] += np.pi
        for q, letter in enumerate(p.letters):
            if letter in ("X", "Y"):
                bx[q, idx] = 1.0
            if letter in ("Z", "Y"):
                bz[q, idx] = 1.0
            if letter == "Y":
                anc_phase[idx] += np.pi / 2.0
    return bx, bz, anc_phase


def multiplexor_compile(plan: LCUPlan) -> Circuit:
    """Native-gate select oracle equal to the naive B (including phase).

    Factorizes B into per-qubit multiplexed X and Z layers plus one
    collected ancilla diagonal; each layer is a Gray-code CX walk whose
    cost adapts to the sparsity of the branch functions.  Falls back to
    the decomposed naive oracle when that happens to be cheaper (tiny
    plans with few branches).
    """
    n, a = plan.n_system, plan.a
    circuit = Circuit(n, a)
    ancillas = circuit.ancilla_qubits
    bx, bz, anc_phase = _branch_tables(plan)
    for q in range(n):
        if np.any(bz[q]):
            anc_phase += (np.pi / 2.0) * bz[q]
            circuit.extend(ucrz(ancillas, circuit.system_qubit(q), np.pi * bz[q]))
    for q in range(n):
        if np.any(bx[q]):
            anc_phase += (np.pi / 2.0) * bx[q]
            t = circuit.system_qubit(q)
            circuit.append(had(t))
            circuit.extend(ucrz(ancillas, t, np.pi * bx[q]))
            circuit.append(had(t))
    circuit.extend(diagonal_gates(ancillas, anc_phase))
    naive = cir.decompose(naive_select_circuit(plan))
    if cir.count_two_qubit_gates(naive) < cir.count_two_qubit_gates(circuit):
        return naive
    return circuit


def naive_select_circuit(plan: LCUPlan) -> Circuit:
    """Baseline select oracle: one pattern-controlled Pauli per branch."""
    n, a = plan.n_system, plan.a
    circuit = Circuit(n, a)
    for idx in range(plan.k):
        p, s = plan.paulis[idx], plan.signs[idx]
        if p.is_identity and s == 1:
            continue
        pattern = tuple(int(b) for b in format(idx, f"0{a}b")) if a else ()
        circuit.append(mcpauli(pattern, p, s))
    return circuit


def naive_select_gate_count(plan: LCUPlan) -> int:
    """Two-qubit count of the documented baseline decomposition.

    Each branch letter becomes a multi-controlled phase with the
    textbook cost(m) = 2 + 3*cost(m-1) recursion; branch signs are
    absorbed into single-qubit conjugations whenever the branch carries
    a non-identity letter.
    """
    return cir.count_two_qubit_gates(cir.decompose(naive_select_circuit(plan)))


def prep_gates(plan: LCUPlan, ancillas: tuple[int, ...]) -> list[Gate]:
    """State preparation A with A|0^a> = sum_l amp_l |l>.

    Equal amplitudes reduce to a Hadamard on every ancilla; otherwise a
    binary tree of uniformly controlled Y rotations loads the profile.
    """
    a = len(ancillas)
    if a == 0:
        return []
    full = np.zeros(2**a)
    full[: plan.k] = plan.prep_amplitudes
    if np.allclose(full, 1.0 / np.sqrt(2**a), atol=1e-12):
        return [had(q) for q in ancillas]
    norms = [None] * (a + 1)
    norms[a] = full.copy()
    for lvl in range(a - 1, -1, -1):
        nxt = norms[lvl + 1]
        norms[lvl] = np.sqrt(nxt[0::2] ** 2 + nxt[1::2] ** 2)
    gates: list[Gate] = []
    for i in range(a):
        alphas = np.zeros(2**i)
        for x in range(2**i):
            if norms[i][x] > 0.0:
                alphas[x] = 2.0 * np.arctan2(norms[i + 1][2 * x + 1], norms[i + 1][2 * x])
        gates += ucry(tuple(ancillas[:i]), ancillas[i], alphas)
    return gates


def build_lcu_circuit(plan: LCUPlan) -> BlockEncoding:
    """Assemble W = A_dag B A and verify its block against the plan's target.

    The ancilla-zero block equals the plan's Pauli sum divided by the
    one-norm c; scale records that divisor when it is not 1.
    """
    n, a = plan.n_system, plan.a
    select = multiplexor_compile(plan)
    circuit = Circuit(n, a)
    prep = prep_gates(plan, circuit.ancilla_qubits)
    prep_circuit = Circuit(n, a, list(prep))
    circuit.extend(prep)
    circuit.extend(select.gates)
    circuit.extend(prep_circuit.inverse().gates)
    scale = 1.0 if abs(plan.c - 1.0) <= 1e-9 else plan.c
    target = plan.encoded_operator().to_matrix() * (plan.c / scale)
    eps = float(np.linalg.norm(encoded_block(circuit) - target))
    return BlockEncoding(circuit=circuit, epsilon_be=eps, scale=scale)
