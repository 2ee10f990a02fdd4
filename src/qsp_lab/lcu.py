"""Exact block encoding by linear combination of unitaries.

The encoding is W = A_dag B A with a state-preparation operator A on the
ancilla register and a select oracle B = sum_l sign_l |l><l| (x) P_l,
where the branches l >= K act as the identity.  An LCUPlan holds the
branch data and checks it when it is built.  Two select realizations are
provided, both in native gates: a naive one with one
ancilla-pattern-controlled Pauli per branch (the documented baseline for
gate counts, Childs & Wiebe, arXiv:1202.5822), and a compressed one that
synthesizes the same operator as a phase polynomial via Gray-code-shared
CX walks, without extra ancillas.

B is a reflection (each branch squares to the identity), so W inherits
the qubitization condition W^2 = I.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import circuits as cir
from . import errors
from .circuits import Circuit, Gate, _cx, _pauli_x, _phase1q, encoded_block, gphase, had, mcphase, rx, rz
from .operators import PauliString, PauliSum

_ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class LCUPlan:
    """Branch data for W = A_dag B A; c is the coefficient one-norm.

    Building a plan raises ValueError unless it has K >= 1 branches, at
    most 2^a of them, with one sign of +1 or -1 each, Pauli strings that
    all act on one register, K finite real amplitudes (errors.angles) whose
    squares sum to 1 within 1e-12, and a finite real c > 0.  A built plan
    cannot be changed: it holds its signs and Paulis as tuples and its
    amplitudes as a read-only float copy.
    """

    a: int
    prep_amplitudes: np.ndarray  # K entries sqrt(|c_l| / c)
    signs: tuple[int, ...]
    paulis: tuple[PauliString, ...]
    c: float

    def __post_init__(self):
        object.__setattr__(self, "signs", tuple(self.signs))
        object.__setattr__(self, "paulis", tuple(self.paulis))
        k = len(self.paulis)
        if not 1 <= k <= 2 ** errors.integer(self.a, "a"):
            raise ValueError(f"need 1 <= K <= 2^a branches, got K = {k}, a = {self.a}")
        if len(self.signs) != k:
            raise ValueError(f"{k} branches need {k} signs, got {self.signs}")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError(f"signs must be +1 or -1, got {self.signs}")
        if not all(isinstance(p, PauliString) and p.n == self.paulis[0].n for p in self.paulis):
            raise ValueError(f"the Paulis must be PauliStrings on one register, got {self.paulis}")
        amplitudes = np.array(errors.angles(self.prep_amplitudes, "prep_amplitudes", k))
        if abs(amplitudes @ amplitudes - 1.0) > 1e-12:
            raise ValueError(f"the squares of prep_amplitudes must sum to 1, got {amplitudes @ amplitudes!r}")
        amplitudes.setflags(write=False)
        object.__setattr__(self, "prep_amplitudes", amplitudes)
        if not errors.real(self.c, "c") > 0.0:
            raise ValueError(f"c must be a finite real number > 0, got {self.c!r}")

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


def lcu_plan(h_tilde: PauliSum, pad_equal_weights: bool = False) -> LCUPlan:
    """Split a Pauli sum into prepare amplitudes, signs, and select branches.

    With pad_equal_weights the identity term is replicated so that all
    K = 2^a branch weights are equal and A reduces to HAD on every
    ancilla; this requires the non-identity coefficients to share one
    magnitude that divides the identity coefficient evenly.
    """
    terms = [(c, p) for c, p in errors.entry(h_tilde, PauliSum, "h_tilde").terms if c != 0.0]
    if not terms:
        raise ValueError("cannot block-encode the zero operator")
    c_norm = h_tilde.coefficient_one_norm()
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
        terms = [(id_coeff, PauliString("I" * h_tilde.n))] * copies + nonid
        amps = np.full(k, 1.0 / np.sqrt(k))
    else:
        k = len(terms)
        amps = np.sqrt(np.array([abs(c) for c, _ in terms]) / c_norm)
    signs = [1 if c >= 0 else -1 for c, _ in terms]
    return LCUPlan((k - 1).bit_length(), amps, signs, [p for _, p in terms], c_norm)


# ---------------------------------------------------------------------------
# Gray-code synthesis of diagonal phase operators
# ---------------------------------------------------------------------------

def _walsh(values: np.ndarray) -> np.ndarray:
    """Walsh coefficients of values over controls, controls[0] the most
    significant bit of the index: w[mask] is the weight of the parity
    character on {controls[i] : bit i of mask set}."""
    w = scipy.linalg.hadamard(len(values)) @ values / len(values)
    # reversing the axes of the (2,)*m tensor, m = log2 len, reverses the bit order of its index
    return w.reshape((2,) * (len(values).bit_length() - 1)).T.reshape(-1)


def _gray_ucrz(controls: tuple[int, ...], target: int, w_by_mask: np.ndarray) -> list[Gate]:
    """Product over control subsets T of RZ(theta_T * chi_T(x)) on the target.

    w_by_mask[g] is the rotation angle for the parity character on
    {controls[i] : bit i of g set}.  The walk visits subsets in reflected
    Gray order, sharing CX parity toggles between consecutive rotations,
    and skips zero angles.  Restricted to the subsets of the nonzero
    angles' union support, that order is the support's own Gray order, so
    controls no nonzero angle touches never get a CX.
    """
    m = len(controls)
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
        gates.append(rz(target, theta))
    for bit in range(m):
        if mask & (1 << bit):
            gates += _cx(controls[bit], target)
    return gates


def ucrz(controls: tuple[int, ...], target: int, alphas: np.ndarray) -> list[Gate]:
    """Uniformly controlled RZ: sum_x |x><x| RZ(alpha_x) on the target.

    alphas is indexed so that controls[0] is the most significant bit; ValueError
    unless the qubits are distinct and alphas holds 2^len(controls) finite angles.
    """
    errors.qubits((*errors.qubits(controls, "controls"), target), "controls and target")
    return _gray_ucrz(controls, target, _walsh(errors.angles(alphas, "alphas", 2 ** len(controls))))


def ucry(controls: tuple[int, ...], target: int, alphas: np.ndarray) -> list[Gate]:
    """Uniformly controlled RY, as RX(pi/2) ucrz RX(-pi/2) on the target: the
    conjugation maps Z to Y and commutes with the walk's CX on the target."""
    inner = ucrz(controls, target, alphas)
    return [rx(target, np.pi / 2.0)] + inner + [rx(target, -np.pi / 2.0)] if inner else []


def diagonal_gates(qubits: tuple[int, ...], phases: np.ndarray) -> list[Gate]:
    """Exact synthesis of diag(exp(i*phases[x])) over the given qubits.

    qubits[0] indexes the most significant bit of x.  On the last qubit
    diag(e^{i p0}, e^{i p1}) = e^{i (p0+p1)/2} RZ(p1 - p0), so the rest is
    a diagonal on the other qubits and one uniformly controlled RZ.  The
    constant phase is emitted as a GPHASE so the result matches the
    target with no global-phase slack.  ValueError unless the qubits are
    distinct and phases holds 2^len(qubits) finite angles.
    """
    phases = errors.angles(phases, "phases", 2 ** len(errors.qubits(qubits, "qubits")))
    if not qubits:
        return [gphase(float(phases[0]))] if abs(phases[0]) > _ANGLE_TOL else []
    p0, p1 = phases[0::2], phases[1::2]
    return diagonal_gates(qubits[:-1], (p0 + p1) / 2.0) + ucrz(qubits[:-1], qubits[-1], p1 - p0)


# ---------------------------------------------------------------------------
# Select oracles and the full encoding
# ---------------------------------------------------------------------------

def _branch_tables(plan: LCUPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-branch X/Z exponent tables, (n, 2^a) with qubit q in row q, and the
    collected ancilla phase: pi for a minus sign and pi/2 per Y letter, as
    P = i^y X^x Z^z (PauliString.symplectic)."""
    n, dim_a = plan.n_system, 2**plan.a
    bx, bz, anc_phase = np.zeros((n, dim_a)), np.zeros((n, dim_a)), np.zeros(dim_a)
    bits = np.arange(n - 1, -1, -1)  # qubit q is bit n-1-q of a mask
    for idx, (p, sign) in enumerate(zip(plan.paulis, plan.signs)):
        x, z, y = p.symplectic()
        bx[:, idx], bz[:, idx] = (x >> bits) & 1, (z >> bits) & 1
        anc_phase[idx] = np.pi * (sign == -1) + (np.pi / 2.0) * y
    return bx, bz, anc_phase


def multiplexor_compile(plan: LCUPlan) -> Circuit:
    """Native-gate select oracle equal to the naive B (including phase).

    Factorizes B into per-qubit multiplexed X and Z layers plus one
    collected ancilla diagonal; each layer is a Gray-code CX walk whose
    cost adapts to the sparsity of the branch functions.  Falls back to
    the naive oracle when that happens to be cheaper (tiny plans with few
    branches); naive_select_gate_count prices it in closed form, so the
    naive gates are built only when they win.
    """
    n, a = errors.entry(plan, LCUPlan, "plan").n_system, plan.a
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
    if naive_select_gate_count(plan) < cir.count_two_qubit_gates(circuit):
        return naive_select_circuit(plan)
    return circuit


# letter -> (gates before, gates after) that turn a Z on qubit t into the letter
_TO_Z_BASIS = {
    "X": lambda t: ([had(t)], [had(t)]),
    "Y": lambda t: ([rx(t, np.pi / 2.0)], [rx(t, -np.pi / 2.0)]),
    "Z": lambda t: ([], []),
}


def naive_select_circuit(plan: LCUPlan) -> Circuit:
    """Baseline select oracle: one pattern-controlled Pauli per branch, in
    native gates.

    Branch l flips the ancillas whose bit of l is 0, so that its pattern
    reads all ones; each support letter of P_l is then a multi-controlled Z
    in its own basis, and a minus sign conjugates the first letter with a
    Pauli that anticommutes with it.  A -I branch is a multi-controlled
    phase on the ancillas alone; a +I branch emits nothing.
    """
    n, a = errors.entry(plan, LCUPlan, "plan").n_system, plan.a
    circuit = Circuit(n, a)
    ancillas = circuit.ancilla_qubits
    for idx, (p, s) in enumerate(zip(plan.paulis, plan.signs)):
        if p.is_identity and s == 1:
            continue
        flips = [g for q in ancillas if not idx >> (a - 1 - q) & 1 for g in _pauli_x(q)]
        gates: list[Gate] = []
        for k, q in enumerate(p.support):
            letter = p.letters[q]
            t = circuit.system_qubit(q)
            pre, post = _TO_Z_BASIS[letter](t)
            if k == 0 and s == -1:  # -X = Z X Z, -Y = X Y X, -Z = X Z X
                flip = _phase1q(t, np.pi) if letter == "X" else _pauli_x(t)
                pre, post = flip + pre, post + flip
            gates += pre + mcphase(ancillas, t, np.pi) + post
        if not p.support and s == -1:
            gates += mcphase(ancillas[:-1], ancillas[-1], np.pi) if ancillas else [gphase(np.pi)]
        circuit.extend(flips + gates + flips)
    return circuit


def naive_select_gate_count(plan: LCUPlan) -> int:
    """Two-qubit gate count of naive_select_circuit(plan), in closed form.

    Each support letter is mcphase on all a ancillas, cost(a) two-qubit
    gates, and a -I branch is mcphase on a - 1 of them, cost(a - 1), or a
    global phase at a = 0; the flips and basis changes are one-qubit gates.
    mcphase costs cost(0) = 0, cost(1) = 1 and cost(m) = 2 + 3 cost(m - 1).
    """
    a, cost = errors.entry(plan, LCUPlan, "plan").a, [0, 1]
    while len(cost) <= a:
        cost.append(2 + 3 * cost[-1])
    total = 0
    for p, s in zip(plan.paulis, plan.signs):
        total += len(p.support) * cost[a]
        if not p.support and s == -1 and a > 0:
            total += cost[a - 1]
    return total


def prep_gates(plan: LCUPlan) -> list[Gate]:
    """State preparation A with A|0^a> = sum_l amp_l |l> on the ancillas 0..a-1.

    Equal amplitudes reduce to a Hadamard on every ancilla; otherwise a
    binary tree of uniformly controlled Y rotations loads the profile.
    """
    a, ancillas = errors.entry(plan, LCUPlan, "plan").a, tuple(range(plan.a))
    if a == 0:
        return []
    full = np.zeros(2**a)
    full[: plan.k] = plan.prep_amplitudes
    if np.allclose(full, 1.0 / np.sqrt(2**a), atol=1e-12):
        return [had(q) for q in ancillas]
    # from the leaves up: at level i, norms holds the 2^(i+1) subtree norms
    # and ancilla i splits each pair (arctan2(0, 0) = 0 on empty subtrees)
    gates: list[Gate] = []
    norms = full
    for i in range(a - 1, -1, -1):
        gates = ucry(tuple(ancillas[:i]), ancillas[i], 2.0 * np.arctan2(norms[1::2], norms[0::2])) + gates
        norms = np.sqrt(norms[0::2] ** 2 + norms[1::2] ** 2)
    return gates


def build_lcu_circuit(plan: LCUPlan) -> BlockEncoding:
    """Assemble W = A_dag B A and verify its block against the plan's target.

    The ancilla-zero block equals the plan's Pauli sum divided by the
    one-norm c; scale records that divisor when it is not 1.
    """
    prep = Circuit(errors.entry(plan, LCUPlan, "plan").n_system, plan.a, prep_gates(plan))
    circuit = Circuit(plan.n_system, plan.a, prep.gates + multiplexor_compile(plan).gates + prep.inverse().gates)
    scale = 1.0 if abs(plan.c - 1.0) <= 1e-9 else plan.c
    target = plan.encoded_operator().to_matrix() * (plan.c / scale)
    eps = float(np.linalg.norm(encoded_block(circuit) - target))
    return BlockEncoding(circuit=circuit, epsilon_be=eps, scale=scale)
