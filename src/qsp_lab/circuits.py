"""Gate-level circuit IR with statevector and density-matrix simulation.

The register layout puts the ancilla qubits first (indices 0..n_ancilla-1,
most significant bits) followed by the system register, so a basis index
below 2**n_system means the ancillas are in the all-zero state.

A gate is its kind, its qubits and its angle.  Native gate set: RX, RZ,
RZZ, CZ, HAD, plus a bookkeeping GPHASE that carries the global phase exact
synthesis requires.  APHASE, the ancilla-register phase
exp(i*phi*(2|0..0><0..0| - 1)), is the one structural gate: decompose()
is its only definition, and every walk and count_two_qubit_gates read a
circuit that holds one as its decomposition, bit for bit (_native).

Noise follows the two-qubit depolarizing model: every RZZ and CZ is
followed by a channel that with probability p_tq replaces the pair's
state by I/4.  Single-qubit gates are noiseless.

apply_statevector, circuit_unitary, encoded_block, apply_density and
depolarize_pair share one walk in two steps: _compile turns the gate list
once into a planned program of (matrix, axes) operations, and the one
kernel, _replay, runs it.

Carried layout.  The walk's array is not put back into register order
after each operation: it stays in whatever axis order the last operation
left it in.  At compile time _plan gives each operation its step, which is
nothing when the operation's axes already lead, in its own order, and
otherwise one axis permutation that brings them to the front, the other
axes keeping their order: a transposing copy into the spare buffer of the
state viewed as its binary axes and one trailing column axis.  The step's
product is one np.dot of the unchanged matrix into the other buffer, so
the walk holds two state-sized buffers, and one final permutation restores
the start order.  The plan does not depend on the column count.  A matrix
is never re-indexed to match axes that lead in another order; the copy is
made instead, so each product sums in the order of applying the operation
in place, and every output is bit for bit that of gathering an operation's
axes to the front, multiplying and scattering the result back (the oracle
in tests/test_circuits.py).  A step makes at most one copy where that made
two, and builds no plan.

Fold.  Single-qubit gates are not applied one at a time: each qubit keeps
a pending run of them, whose 2x2 product is multiplied into the 4x4 of the
next RZZ/CZ on that qubit or applied at the end; scalar phases are carried
and applied once.  The folding is exact, with or without noise: a pending
unitary on qubit c commutes with every gate and every channel on other
qubits, and the channel after an RZZ/CZ on c comes after the gate the
pending unitary was folded into.

Memoize.  A QSP circuit is d copies of one block encoding W with a phase
gate between them, so its folded gates repeat (the 3-site bench circuit at
d=4 has 111 distinct ones among 563).  Within one compile each distinct
(kind, qubits, angle) is built once, and each distinct fold (its pair gate
and the two pending runs) is multiplied out, and under per-gate noise
turned into its transfer matrix, once.  The copies share these read-only
operations, and the program is bit-identical to one built gate by gate:
the same arithmetic runs on the same inputs.

Fuse.  A complex walk of at least 2^_FUSE_QUBITS = 32 columns on a
register wider than _FUSE_QUBITS = 5 (a dense unitary of 6 or more qubits)
merges the folded operations greedily, in order, into blocks of at most 5
qubits; each distinct block's matrix is the kernel run on its 32-column
(or smaller) identity, and the walk takes one step per block.  A step on
a (2^w, B) array copies all of it whatever the matrix's size, so on many
columns one 32x32 product beats the several 4x4 ones it replaces; at 6
qubits the block's flops outweigh the saved passes.  On
fewer columns than the block's identity, building the block costs about
as much as the walk it saves, unless the gate list repeats: the width-7
LCU encodings, walked fused, broke even at 16 columns and lost 4-18 % at
8, which is what encoded_block walks.  A one-column walk (a statevector,
or a pure rho's eigenvector) is bound by per-call overhead, and fusing it
made the bench circuits' statevectors 30-67 % slower; the real Pauli walk
is not fused either, since a 3-qubit block is a 64x64 product on the
memory-bound 4^w vector.  The rule depends only on the column count and
the width.  A fused walk agrees with the unfused one to roundoff; an
unfused one is bit-identical to applying the folded gates one by one.

Without per-gate noise a density matrix
rho = sum_k lam_k |v_k><v_k| is evolved through its eigenvectors: the
walk carries the (2^w, r) batch of the r eigenvectors numpy's rank rule
keeps, and the output is sum_k lam_k U|v_k><v_k|U^dag, so a pure state
costs one statevector walk.  Under per-gate noise rho is walked as its
real Pauli coefficients r_P = Tr(P rho) (the Pauli-transfer form, e.g.
Greenbaum, arXiv:1509.02921): rho = 2^-w sum_P r_P P, a unitary U becomes
the real orthogonal matrix R[P, Q] = Tr(P U Q U^dag) / 2^k on the k qubits
it touches, and the pair channel becomes diag(1, 1-p, ..., 1-p), which is
multiplied into the R of its RZZ/CZ, so every gate is one real step.  The
two Pauli indices of qubit q are axes 2q (row) and 2q+1 (column), so
rho's own axis order (row0, ..., row_{w-1}, col0, ...) is the walk's start
layout; w complex 4x4 basis changes, steps of the same program, turn rho
into its Pauli vector, whose real walk runs in the two halves of the
spare complex buffer, and w basis changes back and the final copy return
rho in its own order.  Every gate and the channel are unital and trace
preserving, so row 0 and column 0 of each R are set to e_0 exactly and
r_I = Tr(rho) is carried untouched.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import dense, integer, qubits, real, register_matrix, register_state
from .operators import PAULI_1Q, PauliString

NATIVE_KINDS = ("RX", "RZ", "RZZ", "CZ", "HAD", "GPHASE")
STRUCTURAL_KINDS = ("APHASE",)
# gate kind -> the length of its qubit list; GPHASE and APHASE act on whole registers
_ARITY = {"RX": 1, "RZ": 1, "HAD": 1, "RZZ": 2, "CZ": 2, "GPHASE": 0, "APHASE": 0}

_HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_I2 = np.eye(2, dtype=complex)
# widest block a multi-column complex walk fuses its folded gates into
_FUSE_QUBITS = 5


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...] = ()
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits(self.qubits, "gate qubits")
        real(self.angle, "gate angle")
        if len(self.qubits) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_ARITY[self.kind]} qubit indices, got {self.qubits}")


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


@dataclass
class Circuit:
    n_system: int
    n_ancilla: int = 0
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        integer(self.n_system, "n_system")
        integer(self.n_ancilla, "n_ancilla")
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
        """Exact gate-list inversion: reversed order, negated angles (HAD and CZ
        are self-inverse and ignore theirs)."""
        return Circuit(self.n_system, self.n_ancilla, [replace(g, angle=-g.angle) for g in reversed(self.gates)])


@dataclass(frozen=True)
class NoiseModel:
    """Two-qubit depolarizing noise of strength p_tq, after every RZZ and CZ
    (per_gate_depolarizing) or as one equivalent channel at the end
    (global_depolarizing); p_tq = 0 is noiseless in either mode."""

    p_tq: float = 0.0
    mode: str = "per_gate_depolarizing"  # per_gate_depolarizing | global_depolarizing

    def __post_init__(self):
        real(self.p_tq, "p_tq", 0.0, 1.0, open_hi=True)
        if self.mode not in ("per_gate_depolarizing", "global_depolarizing"):
            raise ValueError(f"unknown noise mode {self.mode!r}")


# ---------------------------------------------------------------------------
# Dense application helpers
# ---------------------------------------------------------------------------

def _plan(
    ops: list[tuple[np.ndarray, tuple[int, ...]]], start: tuple[int, ...]
) -> tuple[list[tuple], tuple | None]:
    """Plan the carried layout of a replay (module docstring): the steps
    (matrix, axes, perm) and the perm of the final copy back to the start
    layout, which lists the binary axis at each position, most significant
    first.

    A step's perm is None when its axes already lead, in its own order;
    otherwise it is the transpose that brings them to the front, the other
    axes keeping their order and the column axis staying last.  A matrix is
    never re-indexed, so every product sums in the order of a gate-by-gate
    walk.  Plans are memoized on (layout, axes), which the repeated copies
    of W share.
    """
    memo: dict[tuple, tuple] = {}
    layout = start
    steps = []
    for local, axes in ops:
        key = (layout, axes)
        if key not in memo:
            moved = axes + tuple(a for a in layout if a not in axes)
            perm = None if moved == layout else tuple(map(layout.index, moved)) + (len(layout),)
            memo[key] = perm, moved
        perm, layout = memo[key]
        steps.append((local, axes, perm))
    return steps, None if layout == start else tuple(map(layout.index, start)) + (len(start),)


def _replay(
    steps: list[tuple], finish: tuple | None, cur: np.ndarray, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The one kernel: run planned steps on the flat state cur, with spare a
    flat buffer of its size and dtype, and return (the buffer that holds the
    result, the other one); the result is in the start layout when finish
    is the plan's final perm.

    A step is at most one transposing copy into the other buffer, of the
    state viewed as (2,) * k + (columns,), and one np.dot of its matrix
    into the first; nothing is allocated.  On density-matrix sized arrays
    fresh temporaries per gate cost more in page faults than the product
    itself.
    """
    for local, _, perm in steps:
        if perm is not None:
            dims = (2,) * (len(perm) - 1) + (-1,)
            np.copyto(spare.reshape(dims), cur.reshape(dims).transpose(perm))
            cur, spare = spare, cur
        rows = len(local)
        np.dot(local, cur.reshape(rows, -1), out=spare.reshape(rows, -1))
        cur, spare = spare, cur
    if finish is None:
        return cur, spare
    dims = (2,) * (len(finish) - 1) + (-1,)
    np.copyto(spare.reshape(dims), cur.reshape(dims).transpose(finish))
    return spare, cur


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
    return None, (), np.exp(1j * gate.angle)  # GPHASE


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices, without its per-call overhead."""
    n = len(a) * len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def _depolarizing(p: float) -> np.ndarray:
    """rho <- (1-p) rho + p (I/4 on the pair) (x) Tr_pair rho as a 16x16 matrix on
    the pair's (row, row, column, column) axes of vec(rho); e^T vec(rho) is Tr_pair rho."""
    e = np.eye(4, dtype=complex).reshape(16)
    return (1.0 - p) * np.eye(16, dtype=complex) + (p / 4.0) * np.outer(e, e)


def _pauli_basis(paulis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, T^-1) for a stack of the 4^k k-qubit Paulis: T[P, r * 2^k + c] =
    P[c, r], so T vec(X) lists Tr(P X) over P, and T^-1 = T^dag / 2^k."""
    t = paulis.transpose(0, 2, 1).reshape(len(paulis), -1)
    return t, t.conj().T / len(paulis[0])


_PAULIS = np.array([PAULI_1Q[c] for c in "IXYZ"])
# superoperator size -> (T, T^-1), for one qubit and for a pair
_PAULI_BASIS = {4: _pauli_basis(_PAULIS), 16: _pauli_basis(np.array([_kron(a, b) for a in _PAULIS for b in _PAULIS]))}


def _pauli_transfer(sup: np.ndarray) -> np.ndarray:
    """Real Pauli-transfer matrix Re(T sup T^-1) of a unital, trace-preserving
    superoperator on the row-major vec of a 1- or 2-qubit matrix, with row 0
    and column 0 set to e_0 exactly."""
    t, t_inv = _PAULI_BASIS[len(sup)]
    out = (t @ sup @ t_inv).real.copy()
    out[0] = 0.0
    out[:, 0] = 0.0
    out[0, 0] = 1.0
    return out


def _compile(
    circuit: Circuit, p_pair: float = 0.0, columns: int = 1
) -> tuple[list[tuple], tuple | None, complex]:
    """Fold, memoize and plan the native gate list once (module docstring):
    the steps and final perm _replay runs, and the scalar phase.

    The column count only selects fusion: a walk of at least
    2^_FUSE_QUBITS columns on a register wider than _FUSE_QUBITS replays
    fused blocks (_fuse).  With p_pair > 0 the program
    walks rho's real Pauli vector: w complex basis changes from rho's own
    axis order, a folded unitary's real Pauli-transfer matrix on its
    qubits' axis pairs per operation, the pair channel's multiplied in
    after every RZZ/CZ, and w basis changes back; the phase is then 1.
    The matrices are read-only.  The gate list compiled is _native's.
    """
    circuit = _native(circuit)
    channel = _pauli_transfer(_depolarizing(p_pair)) if p_pair > 0.0 else None
    gate_ids: dict[tuple, int] = {}
    entries: list[tuple[np.ndarray | None, tuple[int, ...], complex]] = []  # _gate_local of each id
    folds: dict[tuple, tuple[np.ndarray, tuple[int, ...]]] = {}
    pending: dict[int, tuple[int, ...]] = {}  # qubit -> ids of its single-qubit gates since its last pair

    def product(run: tuple[int, ...]) -> np.ndarray:
        """A run's 2x2 product, multiplied in the order its gates arrived."""
        if not run:
            return _I2
        m = entries[run[0]][0]
        for i in run[1:]:
            m = entries[i][0] @ m
        return m

    def operation(u: np.ndarray, qubits: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
        """The read-only program operation of folded unitary u."""
        if channel is not None:
            u = _pauli_transfer(_kron(u, u.conj()))
            if len(qubits) == 2:
                u = channel @ u
            qubits = tuple(a for q in qubits for a in (2 * q, 2 * q + 1))
        u.setflags(write=False)
        return u, qubits

    phase = 1.0
    program = []
    for g in circuit.gates:
        key = (g.kind, g.qubits, g.angle)
        i = gate_ids.get(key)
        if i is None:
            i = gate_ids[key] = len(entries)
            entries.append(_gate_local(g))
            if entries[i][0] is not None:
                entries[i][0].setflags(write=False)
        local, axes, scalar = entries[i]
        phase *= scalar
        if local is None:
            continue
        if len(axes) == 1:
            pending[axes[0]] = pending.get(axes[0], ()) + (i,)
            continue
        fold = (i, pending.pop(axes[0], ()), pending.pop(axes[1], ()))
        if fold not in folds:
            folds[fold] = operation(local @ _kron(product(fold[1]), product(fold[2])), axes)
        program.append(folds[fold])
    program += [operation(product(run), (q,)) for q, run in pending.items()]
    w = circuit.width
    if channel is not None:
        # rho's axes are (row0, ..., row_{w-1}, col0, ...): Pauli axes 2q and 2q+1
        start = tuple(range(0, 2 * w, 2)) + tuple(range(1, 2 * w, 2))
        basis, basis_inv = _PAULI_BASIS[4]
        pairs = [(2 * q, 2 * q + 1) for q in range(w)]
        program = [(basis, axes) for axes in pairs] + program + [(basis_inv, axes) for axes in pairs]
        return *_plan(program, start), 1.0
    if columns >= 2**_FUSE_QUBITS and w > _FUSE_QUBITS:
        program = _fuse(program)
    return *_plan(program, tuple(range(w))), phase


def _fuse(program: list[tuple[np.ndarray, tuple[int, ...]]]) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Merge consecutive operations greedily, in order, into blocks of at most
    _FUSE_QUBITS qubits.  A block of several operations becomes one matrix on
    its sorted qubits, built by replaying them on the block's identity."""
    blocks: list[tuple[set[int], list]] = []
    for op in program:
        if blocks and len(blocks[-1][0].union(op[1])) <= _FUSE_QUBITS:
            blocks[-1][0].update(op[1])
            blocks[-1][1].append(op)
        else:
            blocks.append((set(op[1]), [op]))
    fused = []
    built: dict[tuple, np.ndarray] = {}
    for qubits, members in blocks:
        if len(members) == 1:
            fused += members
            continue
        qubits = tuple(sorted(qubits))
        key = tuple(map(id, members))  # the copies of W share their memoized operations
        if key not in built:
            index = {q: i for i, q in enumerate(qubits)}
            dim = 2 ** len(qubits)
            steps, finish = _plan([(local, tuple(index[q] for q in axes)) for local, axes in members],
                                  tuple(range(len(qubits))))
            m, _ = _replay(steps, finish, np.eye(dim, dtype=complex).reshape(-1), np.empty(dim * dim, dtype=complex))
            m = m.reshape(dim, dim)
            m.setflags(write=False)
            built[key] = m
        fused.append((built[key], qubits))
    return fused


def _walk(circuit: Circuit, initial: np.ndarray, p_pair: float = 0.0) -> np.ndarray:
    """The one compile-and-replay walk behind every simulator (module docstring).

    initial is a (2^w,) state or a (2^w, B) batch of columns; with
    p_pair > 0 it is a Hermitian (2^w, 2^w) density matrix under per-gate
    noise, walked as its real Pauli vector.  The walk holds two flat
    buffers of initial's size: the state and the spare a step copies or
    multiplies into.  The real Pauli vector and its spare are the two
    halves of the complex buffer the state is not in, so the density walk
    holds no more memory than a complex one.
    """
    w = circuit.width
    shape = np.shape(initial)
    density = p_pair > 0.0
    steps, finish, phase = _compile(circuit, p_pair, 1 if density or len(shape) == 1 else shape[1])
    n = np.size(initial)
    state, spare = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    np.copyto(state.reshape(shape), initial)
    if density:  # w complex basis changes, the real walk, w basis changes back
        state, spare = _replay(steps[:w], None, state, spare)
        floats = spare.view(float)
        np.copyto(floats[:n], state.real)
        np.copyto(state, _replay(steps[w: len(steps) - w], None, floats[:n], floats[n:])[0])
        steps = steps[len(steps) - w:]
    out = _replay(steps, finish, state, spare)[0].reshape(shape)
    if phase != 1.0:
        np.multiply(phase, out, out=out)  # phase first: out *= phase rounds differently
    return out


def apply_statevector(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Noiseless statevector evolution of a (2^w,) state or (2^w, B) batch;
    any other shape raises ValueError."""
    return _walk(circuit, register_state(state, circuit.width, batch=True))


def _identity_columns(circuit: Circuit, k: int) -> np.ndarray:
    """The walk of the identity's first k columns, (2^w, k); a width above
    the dense cap raises DimensionError before anything is allocated."""
    return _walk(circuit, np.eye(2 ** dense(circuit.width), k, dtype=complex))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (desk-scale oracle): all 2^w
    identity columns, fused above _FUSE_QUBITS (module docstring)."""
    return _identity_columns(circuit, 2**circuit.width)


def encoded_block(circuit: Circuit) -> np.ndarray:
    """(<0^a| x I) U (|0^a> x I) as a dense matrix: only the 2^n ancilla-zero
    columns of U are walked.  Widths above the dense cap raise DimensionError."""
    dim = 2**circuit.n_system
    return _identity_columns(circuit, dim)[:dim]


def depolarize_pair(rho: np.ndarray, q0: int, q1: int, p: float, width: int) -> np.ndarray:
    """Two-qubit depolarizing channel: keep with 1-p, else I/4 on the pair.

    Returns a new array; rho is left unchanged.
    """
    real(p, "p", 0.0, 1.0)
    qubits((q0, q1), "qubits", integer(width, "width"))
    register_matrix(rho, width)
    steps, finish = _plan([(_depolarizing(p), (q0, q1, width + q0, width + q1))], tuple(range(2 * width)))
    out = np.array(rho, dtype=complex).reshape(-1)
    return _replay(steps, finish, out, np.empty_like(out))[0].reshape(rho.shape)


def global_depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """(1-p) rho + p I/dim on the full register."""
    real(p, "p", 0.0, 1.0)
    dim = len(register_matrix(rho))
    return (1.0 - p) * rho + p * np.eye(dim, dtype=complex) / dim


def apply_density(circuit: Circuit, rho: np.ndarray, noise: NoiseModel = NoiseModel()) -> np.ndarray:
    """Evolve a Hermitian matrix rho through the circuit under the noise model.

    per_gate_depolarizing attaches a two-qubit depolarizing channel after
    every RZZ and CZ; global_depolarizing applies one channel at the end
    with p = 1-(1-p_tq)^N_TQ; p_tq = 0 (the default NoiseModel()) is exact
    conjugation.  Every mode evolves an APHASE circuit as its decomposition.

    Per-gate noise walks rho's real Pauli coefficients Tr(P rho), so the
    result is exactly Hermitian and keeps Tr(rho) to roundoff of the final
    basis change; otherwise the eigenvectors of rho are walked as one
    batch (module docstring).  Single-qubit gates are folded into
    two-qubit ones.  A rho that is not a finite Hermitian (2^w, 2^w)
    matrix (errors.register_matrix) raises ValueError.
    """
    register_matrix(rho, circuit.width, hermitian=True)
    circuit, noisy = _native(circuit), noise.p_tq > 0.0
    if noisy and noise.mode == "per_gate_depolarizing":
        return _walk(circuit, rho, p_pair=noise.p_tq)
    lam, vecs = np.linalg.eigh(rho)
    keep = np.abs(lam) > len(lam) * np.finfo(float).eps * np.abs(lam).max()
    moved = _walk(circuit, vecs[:, keep])
    out = (moved * lam[keep]) @ moved.conj().T
    if noisy:
        n_tq = count_two_qubit_gates(circuit)
        out = global_depolarize(out, 1.0 - (1.0 - noise.p_tq) ** n_tq)
    return out


def count_two_qubit_gates(circuit: Circuit) -> int:
    """Count RZZ and CZ gates, an APHASE gate's as decompose() expands it."""
    return sum(1 for g in _native(circuit).gates if g.kind in ("RZZ", "CZ"))


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
    """Expand APHASE gates into the native gate set."""
    out = Circuit(circuit.n_system, circuit.n_ancilla)
    for g in circuit.gates:
        if g.kind == "APHASE":
            out.extend(_decompose_aphase(g, circuit))
        else:
            out.append(g)
    return out


def _native(circuit: Circuit) -> Circuit:
    """The circuit, or decompose(circuit) when it holds a structural gate."""
    return decompose(circuit) if any(g.kind in STRUCTURAL_KINDS for g in circuit.gates) else circuit


# ---------------------------------------------------------------------------
# States and measurement sampling
# ---------------------------------------------------------------------------

def plus_state(n: int) -> np.ndarray:
    return np.full(2 ** integer(n, "n"), 2.0 ** (-n / 2.0), dtype=complex)


def with_ancilla_zero(psi_system: np.ndarray, n_ancilla: int) -> np.ndarray:
    """|0^a> tensor |psi> in the ancilla-first layout; ValueError unless psi
    is a 1-D state whose length is a power of two and n_ancilla a
    non-negative integer."""
    dim = len(register_state(psi_system, name="system state"))
    full = np.zeros(2 ** integer(n_ancilla, "n_ancilla") * dim, dtype=complex)
    full[:dim] = psi_system
    return full


def density_from_state(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def partial_trace(rho: np.ndarray, keep: tuple[int, ...], width: int) -> np.ndarray:
    """Reduced density matrix on the kept qubits, indexed in keep's order:
    keep[0] is the most significant bit of its index.  ValueError when a
    kept qubit is out of range or repeated, or rho is not (2^w, 2^w)."""
    keep = qubits(list(keep), "keep", integer(width, "width"))
    register_matrix(rho, width)
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
    integer(shots, "shots", positive=True)
    n_system = observable.n
    dim_a, dim_s = 2 ** integer(n_ancilla, "n_ancilla"), 2**n_system
    register_matrix(rho, n_ancilla + n_system)
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
