import itertools
import operator

import numpy as np
import pytest

from qsp_lab import circuits as cir
from qsp_lab.circuits import (
    NATIVE_KINDS,
    Circuit,
    Gate,
    NoiseModel,
    aphase,
    apply_density,
    apply_statevector,
    circuit_unitary,
    count_two_qubit_gates,
    cz,
    decompose,
    density_from_state,
    gphase,
    had,
    mcphase,
    mcx,
    partial_trace,
    plus_state,
    rx,
    rz,
    rzz,
    sample_pauli_measurement,
    with_ancilla_zero,
)
from qsp_lab.errors import MAX_DENSE_QUBITS, DimensionError
from qsp_lab.lcu import (
    LCUPlan,
    build_lcu_circuit,
    encoded_block,
    lcu_plan,
    multiplexor_compile,
    naive_select_circuit,
    naive_select_gate_count,
    prep_gates,
    ucrz,
)
from qsp_lab.operators import PauliString, build_ising_chain, rescale, triangle_bounds
from qsp_lab.qsp import qsp_circuit
from qsp_lab.variational import AnsatzSpec, build_ansatz, cost_and_gradient, optimize

RNG = np.random.default_rng(20240817)


def zero_state(width):
    return np.eye(1, 2**width, dtype=complex)[0]


def random_state(width, rng=RNG):
    v = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
    return v / np.linalg.norm(v)


def random_density(width, rng=RNG):
    a = rng.normal(size=(2**width, 2**width)) + 1j * rng.normal(size=(2**width, 2**width))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_native_circuit(n_system, n_ancilla, n_gates, rng):
    c = Circuit(n_system, n_ancilla)
    w = c.width
    for _ in range(n_gates):
        kind = rng.choice(["RX", "RZ", "HAD", "RZZ", "CZ"])
        if kind in ("RX", "RZ", "HAD"):
            q = int(rng.integers(w))
            c.append(rx(q, rng.uniform(-np.pi, np.pi)) if kind == "RX"
                     else rz(q, rng.uniform(-np.pi, np.pi)) if kind == "RZ" else had(q))
        else:
            q0, q1 = rng.choice(w, size=2, replace=False)
            c.append(rzz(int(q0), int(q1), rng.uniform(-np.pi, np.pi)) if kind == "RZZ"
                     else cz(int(q0), int(q1)))
    return c


def inserted(c, placed):
    """A new Circuit of c's gates with each (index, gate) of placed inserted in turn."""
    gates = list(c.gates)
    for i, g in placed:
        gates.insert(i, g)
    return Circuit(c.n_system, c.n_ancilla, gates)


class TestStatevector:
    def test_empty_circuit(self):
        s = random_state(3)
        assert np.allclose(apply_statevector(Circuit(3), s), s)

    def test_hadamard(self):
        c = Circuit(1).append(had(0))
        out = apply_statevector(c, zero_state(1))
        assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_agrees_with_unitary_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            c = random_native_circuit(2, 1, 12, rng)
            s = random_state(3, rng)
            assert np.allclose(apply_statevector(c, s), circuit_unitary(c) @ s, atol=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(8)
        c = random_native_circuit(3, 0, 20, rng)
        out = apply_statevector(c, random_state(3, rng))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestUnitaryOracle:
    def test_empty(self):
        assert np.allclose(circuit_unitary(Circuit(2)), np.eye(4))

    def test_rzz_matrix(self):
        theta = 0.83
        u = circuit_unitary(Circuit(2).append(rzz(0, 1, theta)))
        e = np.exp(1j * theta / 2)
        assert np.allclose(u, np.diag([e.conjugate(), e, e, e.conjugate()]), atol=1e-12)

    def test_had_squared(self):
        c = Circuit(1).extend([had(0), had(0)])
        assert np.allclose(circuit_unitary(c), np.eye(2), atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(9)
        c = random_native_circuit(2, 2, 25, rng)
        u = circuit_unitary(c)
        assert np.allclose(u @ u.conj().T, np.eye(16), atol=1e-10)

    def test_inverse_circuit(self):
        rng = np.random.default_rng(10)
        native = random_native_circuit(2, 1, 15, rng)
        mixed = random_native_circuit(2, 2, 15, rng)
        mixed = inserted(mixed, [(3 * i, g) for i, g in enumerate(
            [gphase(0.8), aphase(-0.45), rx(1, 0.7), had(3), cz(0, 2), aphase(1.2)])])
        for c in (native, mixed):
            u = circuit_unitary(c)
            v = circuit_unitary(c.inverse())
            assert np.abs(u @ v - np.eye(len(u))).max() < 1e-12
            assert [g.kind for g in c.inverse().gates] == [g.kind for g in reversed(c.gates)]

    def test_dense_cap_checked_before_allocation(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(DimensionError):
                circuit_unitary(Circuit(MAX_DENSE_QUBITS + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestStructuralGates:
    def test_aphase_action(self):
        for a in (0, 1, 2, 3):
            phi = 0.37
            c = Circuit(1, a).append(aphase(phi))
            u = circuit_unitary(c)
            d = np.full(2 ** (a + 1), np.exp(-1j * phi), dtype=complex)
            d[:2] = np.exp(1j * phi)
            assert np.allclose(u, np.diag(d), atol=1e-12)

    def test_aphase_decompose_matches(self):
        for a in (0, 1, 2, 3):
            c = Circuit(2, a).append(aphase(-0.91))
            dec = decompose(c)
            assert np.allclose(circuit_unitary(dec), ref_unitary(c), atol=1e-10)

    def test_decompose_copies_only_an_aphase_circuit(self):
        native = Circuit(2, 2).extend([had(0), rzz(1, 2, 0.4), cz(0, 3)])
        assert decompose(native) is native
        c = Circuit(2, 2).extend([had(0), aphase(-0.7), cz(0, 3)])
        gates = c.gates
        dec = decompose(c)
        assert isinstance(dec, Circuit) and dec is not c and (dec.n_system, dec.n_ancilla) == (2, 2)
        assert c.gates is gates and [g.kind for g in gates] == ["HAD", "APHASE", "CZ"]
        assert {g.kind for g in dec.gates} <= set(NATIVE_KINDS)
        assert dec.gates[0] == had(0) and dec.gates[-1] == cz(0, 3)

    def test_simulators_see_only_native_gates(self, monkeypatch):
        # every walk builds its gates through _gate_local, and every walk and
        # the count read their gate list through decompose
        seen, listed = [], []
        gate_local, native = cir._gate_local, cir.decompose

        def recording(gate):
            seen.append(gate.kind)
            return gate_local(gate)

        def listing(circuit):
            out = native(circuit)
            listed.extend(g.kind for g in out.gates)
            return out

        monkeypatch.setattr(cir, "_gate_local", recording)
        monkeypatch.setattr(cir, "decompose", listing)
        c = Circuit(2, 2).extend([had(0), aphase(-0.7), rzz(1, 2, 0.4), aphase(0.3), cz(0, 3)])
        circuit_unitary(c)
        apply_statevector(c, zero_state(4))
        for noise in NOISES:
            apply_density(c, density_from_state(zero_state(4)), noise)
        assert seen and set(seen) <= set(NATIVE_KINDS)
        listed.clear()
        assert count_two_qubit_gates(c) == 4  # each a = 2 APHASE is one pair
        assert listed and set(listed) <= set(NATIVE_KINDS)

    @pytest.mark.parametrize("n_ancilla", [1, 2, 3])
    def test_aphase_circuit_runs_as_its_decomposition(self, n_ancilla):
        # noisy rho in both modes and the encoded block, bit for bit
        rng = np.random.default_rng(115 + n_ancilla)
        c = oracle_circuit(2, n_ancilla, 20, rng)
        c = inserted(c, [(i, aphase(phi)) for i, phi in ((3, -1.3), (9, 0.61), (len(c.gates), 2.2))])
        native = decompose(c)
        assert count_two_qubit_gates(c) == count_two_qubit_gates(native)
        assert np.array_equal(encoded_block(c), encoded_block(native))
        rho = random_density(c.width, rng)
        for noise in NOISES[1:]:
            assert np.array_equal(apply_density(c, rho, noise), apply_density(native, rho, noise)), noise

    def test_mcx_without_controls_is_x(self):
        # X itself, with no global phase left over from its RX(pi) form
        u = circuit_unitary(Circuit(2, 0).extend(mcx((), 1)))
        assert np.allclose(u, np.kron(np.eye(2), [[0, 1], [1, 0]]), rtol=0, atol=1e-15)

    def test_mcx_and_mcphase(self):
        # CCX truth table
        c = Circuit(3, 0)
        c.extend(mcx((0, 1), 2))
        u = circuit_unitary(c)
        expect = np.eye(8, dtype=complex)
        expect[6:8, 6:8] = [[0, 1], [1, 0]]
        assert np.allclose(u, expect, atol=1e-10)
        # 3-controlled phase
        c = Circuit(4, 0)
        c.extend(mcphase((0, 1, 2), 3, 0.7))
        u = circuit_unitary(c)
        expect = np.eye(16, dtype=complex)
        expect[15, 15] = np.exp(1j * 0.7)
        assert np.allclose(u, expect, atol=1e-10)


class TestDensityAndNoise:
    def test_noiseless_matches_conjugation(self):
        rng = np.random.default_rng(12)
        c = random_native_circuit(2, 1, 15, rng)
        rho = random_density(3, rng)
        u = circuit_unitary(c)
        out = apply_density(c, rho, NoiseModel())
        assert np.allclose(out, u @ rho @ u.conj().T, atol=1e-10)

    def test_per_gate_zero_probability(self):
        # p_tq = 0 is noiseless in either mode
        rng = np.random.default_rng(13)
        c = random_native_circuit(2, 0, 10, rng)
        rho = random_density(2, rng)
        u = circuit_unitary(c)
        for mode in ("per_gate_depolarizing", "global_depolarizing"):
            out = apply_density(c, rho, NoiseModel(0.0, mode))
            assert np.abs(out - u @ rho @ u.conj().T).max() < 1e-12, mode

    def test_depolarizing_fixed_point(self):
        rho = np.eye(4, dtype=complex) / 4.0
        c = Circuit(2).append(rzz(0, 1, np.pi / 2))
        out = apply_density(c, rho, NoiseModel(2.577e-3, "per_gate_depolarizing"))
        assert np.allclose(out, rho, atol=1e-12)

    def test_noisy_rzz_analytic(self):
        p = 2.577e-3
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        c = Circuit(2).append(rzz(0, 1, np.pi / 2))
        out = apply_density(c, rho, NoiseModel(p, "per_gate_depolarizing"))
        u = circuit_unitary(c)
        ideal = u @ rho @ u.conj().T
        assert np.allclose(out, (1 - p) * ideal + p * np.eye(4) / 4.0, atol=1e-12)

    def test_per_gate_equals_kraus_form(self):
        # (1-p_tq) ideal + p_tq I/4 == (1-p2) ideal + (p2/15) sum_P P rho P
        rng = np.random.default_rng(14)
        rho = random_density(2, rng)
        p2 = 2.416e-3
        p_tq = 16.0 * p2 / 15.0
        theta = 1.1
        c = Circuit(2).append(rzz(0, 1, theta))
        out = apply_density(c, rho, NoiseModel(p_tq, "per_gate_depolarizing"))
        u = circuit_unitary(c)
        ideal = u @ rho @ u.conj().T
        acc = (1 - p2) * ideal
        paulis = [PauliString(a + b) for a in "IXYZ" for b in "IXYZ"][1:]
        for ps in paulis:
            pm = ps.to_matrix()
            acc += (p2 / 15.0) * (pm @ ideal @ pm)
        assert np.allclose(out, acc, atol=1e-12)

    def test_channels_trace_and_positivity(self):
        rng = np.random.default_rng(15)
        c = random_native_circuit(2, 1, 20, rng)
        rho = random_density(3, rng)
        for mode in ("per_gate_depolarizing", "global_depolarizing"):
            out = apply_density(c, rho, NoiseModel(0.01, mode))
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out).min() > -1e-9

    def test_global_mode_near_full_strength(self):
        # one CZ, so the global channel's p is p_tq; p_tq = 0 is test_per_gate_zero_probability's
        rho = random_density(2, np.random.default_rng(16))
        out = apply_density(Circuit(2).append(cz(0, 1)), rho, NoiseModel(1.0 - 1e-9, "global_depolarizing"))
        assert np.abs(out - np.eye(4) / 4.0).max() < 1e-8

    def test_global_mode_purity(self):
        # a pure state stays pure through the CZ; the one global channel then has p = p_tq
        p = 0.223
        psi = random_state(3, np.random.default_rng(17))
        rho = apply_density(Circuit(3).append(cz(0, 2)), density_from_state(psi), NoiseModel(p, "global_depolarizing"))
        d = 8
        expected = (1 - p) ** 2 + 2 * (1 - p) * p / d + p**2 / d
        assert np.trace(rho @ rho).real == pytest.approx(expected, rel=1e-12)

    def test_per_gate_channel_on_a_subsystem(self):
        # an identity RZZ on (0, 2) leaves only its channel, at p_tq just below 1
        rng = np.random.default_rng(18)
        rho = random_density(3, rng)
        out = apply_density(Circuit(3).append(rzz(0, 2, 0.0)), rho, NoiseModel(1.0 - 1e-9, "per_gate_depolarizing"))
        assert np.abs(partial_trace(out, (0, 2), 3) - np.eye(4) / 4.0).max() < 1e-8
        assert np.abs(partial_trace(out, (1,), 3) - partial_trace(rho, (1,), 3)).max() < 1e-12

    @staticmethod
    def record_steps(monkeypatch, record):
        """Wrap the replay kernel so that each planned step it runs is recorded."""
        replay = cir._replay
        calls = []

        def recording(steps, finish, cur, spare):
            calls.extend(record(cur, local, axes) for local, axes, _ in steps)
            return replay(steps, finish, cur, spare)

        monkeypatch.setattr(cir, "_replay", recording)
        return calls

    def test_density_walk_one_step_per_gate(self, monkeypatch):
        calls = self.record_steps(monkeypatch, lambda cur, local, axes: (local.dtype.kind, local.shape, axes))
        # N = 2 two-qubit gates; k = 2 qubits (0 and 2) end with single-qubit gates
        c = Circuit(3).extend([had(0), rx(1, 0.3), rzz(0, 1, 0.7), rz(2, 0.1), cz(1, 2), rx(0, 0.2), had(2)])
        rho = random_density(3, np.random.default_rng(19))
        # per-gate noise walks rho's Pauli vector: w complex basis changes in,
        # N + k real Pauli-transfer matrices on the qubits' axis pairs, w out
        basis = [("c", (4, 4), (0, 1)), ("c", (4, 4), (2, 3)), ("c", (4, 4), (4, 5))]
        pauli = basis + [
            ("f", (16, 16), (0, 1, 2, 3)), ("f", (16, 16), (2, 3, 4, 5)), ("f", (4, 4), (0, 1)), ("f", (4, 4), (4, 5)),
        ] + basis
        # otherwise the batch of rho's eigenvectors is walked on the gates' own axes
        eigenvectors = [("c", (4, 4), (0, 1)), ("c", (4, 4), (1, 2)), ("c", (2, 2), (0,)), ("c", (2, 2), (2,))]
        for noise, expected in (
            (NoiseModel(), eigenvectors),
            (NoiseModel(0.1, "per_gate_depolarizing"), pauli),
            (NoiseModel(0.1, "global_depolarizing"), eigenvectors),
        ):
            calls.clear()
            apply_density(c, rho, noise)
            assert calls == expected

    def test_fused_walk_steps_at_width_7(self, monkeypatch):
        calls = self.record_steps(monkeypatch, lambda cur, local, axes: (cur.size, local.shape, axes))
        # folded gates (0,1) (1,2) (2,3), then (5,6) (4,5) and the trailing rx on 6:
        # (5,6) would widen the first block to 6 qubits, so it starts a second
        c = Circuit(7).extend([
            had(0), rzz(0, 1, 0.7), cz(1, 2), rx(3, 0.2), rzz(2, 3, 0.4), cz(5, 6), rzz(4, 5, -0.3), rx(6, 1.1),
        ])
        folded = [((4, 4), (0, 1)), ((4, 4), (1, 2)), ((4, 4), (2, 3)), ((4, 4), (5, 6)), ((4, 4), (4, 5)), ((2, 2), (6,))]
        # one-column walks and batches narrower than a block's identity are not
        # fused: one step per folded gate
        for batch in (zero_state(7), np.eye(128, 16, dtype=complex)):
            calls.clear()
            apply_statevector(c, batch)
            assert calls == [(batch.size, shape, axes) for shape, axes in folded]
        # a 32-column walk builds each block on its identity, on the block's
        # sorted qubits (0..3 and 4..6), then takes one step per block
        build = [(16 * 16, shape, axes) for shape, axes in folded[:3]] + [
            (8 * 8, (4, 4), (1, 2)), (8 * 8, (4, 4), (0, 1)), (8 * 8, (2, 2), (2,)),
        ]
        replay = [(128 * 32, (16, 16), (0, 1, 2, 3)), (128 * 32, (8, 8), (4, 5, 6))]
        calls.clear()
        apply_statevector(c, np.eye(128, 32, dtype=complex))
        assert calls == build + replay


def pauli_transfer_oracle(u):
    """R[P, Q] = Tr(P U Q U^dag) / 2^k over the k-qubit Pauli strings."""
    k = len(u).bit_length() - 1
    ps = [PauliString("".join(s)).to_matrix() for s in itertools.product("IXYZ", repeat=k)]
    return np.array([[np.trace(p @ u @ q @ u.conj().T).real / 2**k for q in ps] for p in ps])


def random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPauliTransfer:
    """The per-gate density walk's real Pauli-transfer matrices."""

    @staticmethod
    def assert_unital_orthogonal(r):
        assert r.dtype == float
        e0 = np.eye(len(r))[0]
        assert np.array_equal(r[0], e0) and np.array_equal(r[:, 0], e0)
        assert np.abs(r @ r.T - np.eye(len(r))).max() < 1e-14

    @pytest.mark.parametrize("gate", [
        rx(0, 0.37), rx(0, -2.9), rz(0, 1.3), rz(0, np.pi), had(0), rzz(0, 1, 0.7), rzz(0, 1, -np.pi / 2), cz(0, 1),
    ], ids=lambda g: f"{g.kind}({g.angle:.2f})")
    def test_native_gates(self, gate):
        u, _, _ = cir._gate_local(gate)
        r = cir._pauli_transfer(cir._kron(u, u.conj()))
        self.assert_unital_orthogonal(r)
        assert np.abs(r - pauli_transfer_oracle(u)).max() < 1e-14

    def test_random_folded_gates(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a, b = random_unitary(2, rng), random_unitary(2, rng)
            for gate in (rzz(0, 1, rng.uniform(-np.pi, np.pi)), cz(0, 1)):
                u = cir._gate_local(gate)[0] @ cir._kron(a, b)
                r = cir._pauli_transfer(cir._kron(u, u.conj()))
                self.assert_unital_orthogonal(r)
                assert np.abs(r - pauli_transfer_oracle(u)).max() < 1e-14
            u = random_unitary(4, rng)
            self.assert_unital_orthogonal(cir._pauli_transfer(cir._kron(u, u.conj())))

    @pytest.mark.parametrize("p", [0.0, 1e-4, 2.577e-3, 0.3, 1.0 - 1e-9])
    def test_channel_is_diagonal(self, p):
        # an identity RZZ leaves the walk's pair channel alone, read off on the 16 Pauli strings
        c, noise = Circuit(2).append(rzz(0, 1, 0.0)), NoiseModel(p, "per_gate_depolarizing")
        ps = [PauliString("".join(s)).to_matrix() for s in itertools.product("IXYZ", repeat=2)]
        r = np.array([[np.trace(a @ apply_density(c, b, noise)).real / 4 for b in ps] for a in ps])
        assert np.abs(r - np.diag([1.0] + [1.0 - p] * 15)).max() < 1e-15

    def test_long_noisy_walk_keeps_trace_and_hermiticity(self):
        rng = np.random.default_rng(22)
        c = random_native_circuit(4, 3, 600, rng)
        assert c.width == 7 and len(c) >= 500
        rho = random_density(7, rng)
        out = apply_density(c, rho, NoiseModel(2e-3, "per_gate_depolarizing"))
        assert abs(np.trace(out) - np.trace(rho)) < 1e-15
        assert np.abs(out - out.conj().T).max() < 1e-15

    def test_zero_width_register(self):
        c = Circuit(0).append(gphase(0.4))
        out = apply_density(c, np.array([[0.5]], dtype=complex), NoiseModel(0.1, "per_gate_depolarizing"))
        assert np.array_equal(out, np.array([[0.5]]))


class TestCounting:
    def test_empty(self):
        assert count_two_qubit_gates(Circuit(3)) == 0

    def test_counts_rzz_and_cz(self):
        c = Circuit(3).extend([rzz(0, 1, 0.3), cz(1, 2), had(0), rx(1, 0.2)])
        assert count_two_qubit_gates(c) == 2

    def test_aphase_counted_as_decomposed(self):
        # a = 3: each APHASE decomposes into mcphase on two controls, 5 pairs
        c = Circuit(2, 3).extend([cz(0, 3), aphase(0.3), rzz(3, 4, 0.2), aphase(-0.8)])
        assert count_two_qubit_gates(c) == 12 == count_two_qubit_gates(decompose(c))

    def test_aphase_cost_pinned(self):
        for a, expect in ((1, 0), (2, 1), (3, 5), (4, 17)):
            assert count_two_qubit_gates(decompose(Circuit(1, a).append(aphase(0.3)))) == expect

    def test_mcphase_cost_recursion(self):
        # cost(m) = 2 + 3*cost(m-1), cost(1) = 1 -> 1, 5, 17, 53
        for m, expect in ((1, 1), (2, 5), (3, 17), (4, 53)):
            c = Circuit(m + 1, 0)
            c.extend(mcphase(tuple(range(m)), m, 0.9))
            assert count_two_qubit_gates(c) == expect


class TestSampling:
    def test_deterministic_pure_state(self):
        psi = with_ancilla_zero(zero_state(1), 2)
        rho = density_from_state(psi)
        counts = sample_pauli_measurement(rho, PauliString("Z"), 100, 5, 2)
        assert counts == {("00", 1): 100}

    def test_maximally_mixed_mean(self):
        rho = np.eye(8, dtype=complex) / 8.0
        counts = sample_pauli_measurement(rho, PauliString("Z"), 20000, 6, 2)
        total = sum(o * c for (_, o), c in counts.items())
        assert abs(total / 20000) < 5.0 / np.sqrt(20000)

    @pytest.mark.parametrize("shots", [2.5, 3.0, "10"])
    def test_non_integer_shots_rejected(self, shots):
        rho = np.eye(8, dtype=complex) / 8.0
        with pytest.raises(ValueError):
            sample_pauli_measurement(rho, PauliString("Z"), shots, 0, 2)

    def test_numpy_integer_shots_accepted(self):
        rho = np.eye(8, dtype=complex) / 8.0
        counts = sample_pauli_measurement(rho, PauliString("Z"), np.int64(40), 0, 2)
        assert sum(counts.values()) == 40

    def test_reproducible(self):
        rho = np.eye(8, dtype=complex) / 8.0
        a = sample_pauli_measurement(rho, PauliString("X"), 500, 42, 2)
        b = sample_pauli_measurement(rho, PauliString("X"), 500, 42, 2)
        assert a == b

    @pytest.mark.parametrize("letters, n_ancilla", [("Z", 2), ("XY", 1), ("YZX", 2), ("IY", 0)])
    def test_block_probabilities_match_dense_traces(self, letters, n_ancilla, monkeypatch):
        rng = np.random.default_rng(22)
        dim_a, dim_s = 2**n_ancilla, 2 ** len(letters)
        m = rng.normal(size=(dim_a * dim_s,) * 2) + 1j * rng.normal(size=(dim_a * dim_s,) * 2)
        rho = m @ m.conj().T / np.trace(m @ m.conj().T)
        pm = kron_chain({q: _PAULIS["IXYZ".index(c)] for q, c in enumerate(letters)}, len(letters))
        expect = []
        for b in range(dim_a):
            block = rho[b * dim_s: (b + 1) * dim_s, b * dim_s: (b + 1) * dim_s]
            tr, ev = np.trace(block).real, np.trace(pm @ block).real
            expect += [(tr + ev) / 2.0, (tr - ev) / 2.0]
        expect = np.array(expect) / sum(expect)
        drawn = []  # the Born distribution the sampler draws from

        class Recorder:
            def __init__(self, seed):
                self.rng = np.random.Generator(np.random.PCG64(seed))

            def multinomial(self, shots, pvals):
                drawn.append(pvals)
                return self.rng.multinomial(shots, pvals)

        monkeypatch.setattr(np.random, "default_rng", Recorder)
        counts = sample_pauli_measurement(rho, PauliString(letters), 1000, 9, n_ancilla)
        monkeypatch.undo()
        assert np.abs(drawn[0] - expect).max() < 1e-14
        keys = [(format(b, f"0{n_ancilla}b") if n_ancilla else "", o) for b in range(dim_a) for o in (1, -1)]
        oracle = np.random.default_rng(9).multinomial(1000, expect)
        assert counts == {k: int(c) for k, c in zip(keys, oracle) if c}

    def test_conditional_mean_matches_trace(self):
        rng = np.random.default_rng(19)
        c = random_native_circuit(1, 2, 14, rng)
        rho = apply_density(c, density_from_state(zero_state(3)), NoiseModel())
        obs = PauliString("Z")
        shots = 10000
        counts = sample_pauli_measurement(rho, obs, shots, 7, 2)
        num = sum(o * cnt for (b, o), cnt in counts.items() if b == "00") / shots
        den = sum(cnt for (b, _), cnt in counts.items() if b == "00") / shots
        block = rho[:2, :2]
        exact = np.trace(obs.to_matrix() @ block).real / np.trace(block).real
        var_num = (np.trace(block).real - np.trace(obs.to_matrix() @ block).real ** 2) / (shots - 1)
        var_den = (np.trace(block).real - np.trace(block).real ** 2) / (shots - 1)
        sigma = abs(exact) * np.sqrt(var_num / num**2 + var_den / den**2) if num != 0 else 0.05
        assert abs(num / den - exact) < max(5 * sigma, 0.05)

    def test_born_frequencies(self):
        rng = np.random.default_rng(20)
        c = random_native_circuit(2, 1, 12, rng)
        rho = apply_density(c, density_from_state(zero_state(3)), NoiseModel())
        obs = PauliString("XZ")
        shots = 10000
        counts = sample_pauli_measurement(rho, obs, shots, 11, 1)
        pm = obs.to_matrix()
        for b in range(2):
            block = rho[b * 4: (b + 1) * 4, b * 4: (b + 1) * 4]
            for o in (1, -1):
                proj = (np.eye(4) + o * pm) / 2.0
                prob = np.trace(proj @ block).real
                freq = counts.get((format(b, "01b"), o), 0) / shots
                se = np.sqrt(max(prob * (1 - prob), 1e-12) / shots)
                assert abs(freq - prob) <= 5 * se + 1e-12


class TestRegisterInput:
    def test_negative_register_size_rejected(self):
        for build in (lambda: Circuit(-1), lambda: Circuit(1, -1)):
            with pytest.raises(ValueError):
                build()

    @pytest.mark.parametrize("sizes", [(1.5,), (2.0,), (1, 0.5), ("2",), (None,)])
    def test_non_integer_register_size_rejected(self, sizes):
        with pytest.raises(ValueError):
            Circuit(*sizes)

    def test_numpy_integer_register_sizes_accepted(self):
        c = Circuit(np.int64(1), np.int32(1)).append(cz(0, 1))
        assert np.abs(circuit_unitary(c) - np.diag([1, 1, 1, -1])).max() < 1e-12

    def test_initial_gates_range_checked(self):
        with pytest.raises(ValueError):
            Circuit(2, 0, [rx(5, 0.1)])

    @pytest.mark.parametrize("kind, qubits", [
        ("SWAP", (0, 1)),
        ("CZ", (0,)),
        ("RZZ", (0, 0)),
        ("RX", (0, 1)),
        ("HAD", ()),
        ("GPHASE", (0,)),
        ("APHASE", (0,)),
        ("MCPAULI", ()),
    ])
    def test_malformed_gate_rejected(self, kind, qubits):
        with pytest.raises(ValueError):
            Gate(kind, qubits, 0.5)

    @pytest.mark.parametrize("build", [
        lambda a: rx(0, a), lambda a: rz(1, a), lambda a: rzz(0, 1, a), lambda a: gphase(a), lambda a: aphase(a),
    ], ids=["RX", "RZ", "RZZ", "GPHASE", "APHASE"])
    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), -np.inf])
    def test_non_finite_angle_rejected(self, build, angle):
        with pytest.raises(ValueError):
            build(angle)

    @pytest.mark.parametrize("angle", [1j, "0.3", None, np.complex128(0.5 + 1j)])
    def test_non_real_angle_rejected(self, angle):
        with pytest.raises(ValueError):
            Gate("RX", (0,), angle)

    @pytest.mark.parametrize("angle", [np.float32(0.5), np.int64(1), 2])
    def test_numpy_and_integer_angles_accepted(self, angle):
        assert Gate("RX", (0,), angle).angle == angle

    @pytest.mark.parametrize("qubit", [0.1, 1.0, "0", None])
    def test_non_integer_qubit_rejected(self, qubit):
        with pytest.raises(ValueError):
            rx(qubit, 0.5)

    def test_numpy_integer_qubits_accepted(self):
        c = Circuit(2).extend([rx(np.int64(1), 0.5), cz(np.int32(0), np.int64(1))])
        assert np.abs(circuit_unitary(c) - ref_unitary(Circuit(2).extend([rx(1, 0.5), cz(0, 1)]))).max() < 1e-12

    @pytest.mark.parametrize("as_given", [list, np.array], ids=["list", "ndarray"])
    def test_gate_qubits_stored_as_a_tuple(self, as_given):
        gates = [had(0), rx(2, 0.4), rzz(1, 2, 0.7), cz(0, 2), rz(1, -0.3), rzz(0, 1, 1.1)]
        given = [Gate(g.kind, as_given(g.qubits), g.angle) for g in gates]
        assert given == gates and list(map(hash, given)) == list(map(hash, gates))
        assert all(type(g.qubits) is tuple and all(type(q) is int for q in g.qubits) for g in given)
        c, expected = Circuit(2, 1, given), Circuit(2, 1, gates)
        assert c.inverse().gates == expected.inverse().gates
        assert all(type(g.qubits) is tuple for g in c.inverse().gates)
        assert count_two_qubit_gates(c) == count_two_qubit_gates(expected) == 3
        outputs, reference = (walk_outputs(circuit, np.random.default_rng(309)) for circuit in (c, expected))
        for name in reference:
            assert np.array_equal(outputs[name], reference[name]), name

    def test_gates_stored_as_a_tuple(self):
        c = Circuit(1, 0, [rx(0, 1.0)]).append(rz(0, 0.5))
        assert c.gates == (rx(0, 1.0), rz(0, 0.5))


# ---------------------------------------------------------------------------
# Independent oracle: every gate embedded with np.kron, the two-qubit channel
# through its 16-Pauli Kraus form.  It shares no code with the simulators.
# ---------------------------------------------------------------------------

_I = np.eye(2, dtype=complex)
_PAULIS = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]).astype(complex)]


def kron_chain(ops, width):
    """np.kron over qubits 0..w-1 (qubit 0 most significant); ops maps qubit -> 2x2."""
    m = np.eye(1, dtype=complex)
    for q in range(width):
        m = np.kron(m, ops.get(q, _I))
    return m


def ref_local(gate):
    if gate.kind == "RX":
        c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if gate.kind == "RZ":
        return np.diag([np.exp(-1j * gate.angle / 2), np.exp(1j * gate.angle / 2)])
    if gate.kind == "HAD":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    if gate.kind == "RZZ":
        return np.diag(np.exp(-1j * gate.angle / 2 * np.array([1, -1, -1, 1])))
    if gate.kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    raise AssertionError(gate.kind)


def ref_gate_matrix(gate, circuit):
    """Full-register matrix of one gate, built from Kronecker products only."""
    w, a = circuit.width, circuit.n_ancilla
    if gate.kind == "GPHASE":
        return np.exp(1j * gate.angle) * np.eye(2**w)
    if gate.kind == "APHASE":
        zero = kron_chain({q: np.diag([1.0, 0.0]) for q in range(a)}, w)
        return np.exp(1j * gate.angle) * zero + np.exp(-1j * gate.angle) * (np.eye(2**w) - zero)
    local = ref_local(gate)
    if len(gate.qubits) == 1:
        return kron_chain({gate.qubits[0]: local}, w)
    q0, q1 = gate.qubits
    out = np.zeros((2**w, 2**w), dtype=complex)
    for i in range(4):
        for j in range(4):
            e0 = np.zeros((2, 2))
            e0[i >> 1, j >> 1] = 1.0
            e1 = np.zeros((2, 2))
            e1[i & 1, j & 1] = 1.0
            out += local[i, j] * kron_chain({q0: e0, q1: e1}, w)
    return out


def ref_depolarize(rho, q0, q1, p, width):
    """(1-p) rho + (p/16) sum over the 16 pair Paulis P of P rho P."""
    acc = (1.0 - p) * rho
    for pa in _PAULIS:
        for pb in _PAULIS:
            m = kron_chain({q0: pa, q1: pb}, width)
            acc = acc + (p / 16.0) * (m @ rho @ m.conj().T)
    return acc


def ref_unitary(circuit):
    u = np.eye(2**circuit.width, dtype=complex)
    for g in circuit.gates:
        u = ref_gate_matrix(g, circuit) @ u
    return u


def ref_density(circuit, rho, noise):
    per_gate = noise.mode == "per_gate_depolarizing"
    for g in circuit.gates:
        m = ref_gate_matrix(g, circuit)
        rho = m @ rho @ m.conj().T
        if per_gate and g.kind in ("RZZ", "CZ"):
            rho = ref_depolarize(rho, g.qubits[0], g.qubits[1], noise.p_tq, circuit.width)
    if noise.mode == "global_depolarizing":
        n_tq = sum(g.kind in ("RZZ", "CZ") for g in circuit.gates)
        p = 1.0 - (1.0 - noise.p_tq) ** n_tq
        rho = (1.0 - p) * rho + p * np.trace(rho).real * np.eye(rho.shape[0]) / rho.shape[0]
    return rho


NOISES = [NoiseModel(), NoiseModel(0.07, "per_gate_depolarizing"), NoiseModel(0.03, "global_depolarizing")]


def oracle_circuit(n_system, n_ancilla, n_gates, rng):
    """A random native circuit with global phases mixed in."""
    gates = list(random_native_circuit(n_system, n_ancilla, n_gates, rng).gates)
    for _ in range(3):
        gates.insert(int(rng.integers(len(gates) + 1)), gphase(rng.uniform(-np.pi, np.pi)))
    return Circuit(n_system, n_ancilla, gates)


def assert_matches_oracle(c, rng):
    w = c.width
    u = ref_unitary(c)
    assert np.abs(circuit_unitary(c) - u).max() < 1e-12
    psi = random_state(w, rng)
    assert np.abs(apply_statevector(c, psi) - u @ psi).max() < 1e-12
    batch = np.stack([random_state(w, rng) for _ in range(3)], axis=1)
    assert np.abs(apply_statevector(c, batch) - u @ batch).max() < 1e-12
    rho = random_density(w, rng)
    structural = any(g.kind == "APHASE" for g in c.gates)
    for noise in NOISES[:1] if structural else NOISES:
        out = apply_density(c, rho, noise)
        assert np.abs(out - ref_density(c, rho, noise)).max() < 1e-12, noise


class TestIndependentOracle:
    @pytest.mark.parametrize("n_system,n_ancilla", [(2, 0), (1, 2), (3, 1), (2, 2)])
    def test_random_native_circuits(self, n_system, n_ancilla):
        rng = np.random.default_rng(100 + 10 * n_system + n_ancilla)
        for _ in range(4):
            assert_matches_oracle(oracle_circuit(n_system, n_ancilla, 30, rng), rng)

    @pytest.mark.parametrize("n_system,n_ancilla", [(4, 2), (4, 3), (5, 3)])
    def test_wider_than_the_fusion_block(self, n_system, n_ancilla):
        # widths 6-8 exceed _FUSE_QUBITS, so walks of 32 or more columns replay fused blocks
        rng = np.random.default_rng(120 + 10 * n_system + n_ancilla)
        c = oracle_circuit(n_system, n_ancilla, 300, rng)
        steps, _, _ = cir._compile(c, columns=2**cir._FUSE_QUBITS)
        assert c.width > cir._FUSE_QUBITS and len(c) >= 300
        assert sum(len(axes) > 2 for _, axes, _ in steps) >= 3
        u = ref_unitary(c)
        assert np.abs(circuit_unitary(c) - u).max() < 1e-12
        for columns in (3, 2**cir._FUSE_QUBITS):  # unfused, fused
            batch = np.stack([random_state(c.width, rng) for _ in range(columns)], axis=1)
            before = batch.copy()
            assert np.abs(apply_statevector(c, batch) - u @ batch).max() < 1e-12
            assert np.array_equal(batch, before)  # the walk runs on a copy
        psi = random_state(c.width, rng)
        assert np.abs(apply_statevector(c, psi) - u @ psi).max() < 1e-12

    def test_fused_blocks_of_equal_gates_on_other_axes(self):
        # two 5-qubit blocks of three equal CZ matrices each, on different
        # relative axes: a block is reused only when its axes match too
        c = Circuit(7).extend([cz(0, 1), cz(0, 2), cz(3, 4), cz(5, 6), cz(4, 5), cz(2, 3)])
        steps, _, _ = cir._compile(c, columns=2**cir._FUSE_QUBITS)
        assert [axes for _, axes, _ in steps] == [(0, 1, 2, 3, 4), (2, 3, 4, 5, 6)]
        assert np.abs(circuit_unitary(c) - ref_unitary(c)).max() < 1e-12

    def test_width_two_pair_is_whole_register(self):
        rng = np.random.default_rng(110)
        c = Circuit(2).extend([rx(0, 0.3), rz(1, -0.8), cz(1, 0), had(0), rzz(0, 1, 1.3), rx(1, 2.1)])
        assert_matches_oracle(c, rng)
        rho = random_density(2, rng)
        out = apply_density(Circuit(2).append(cz(0, 1)), rho, NoiseModel(1.0 - 1e-9, "per_gate_depolarizing"))
        assert np.abs(out - np.eye(4) / 4.0).max() < 1e-8

    def test_idle_qubit_runs_across_noisy_pairs(self):
        # qubit 2 collects a run of single-qubit gates on either side of
        # channels on (0, 1) before its own two-qubit gate
        rng = np.random.default_rng(111)
        c = Circuit(3).extend([
            rx(2, 0.4), had(2), rz(2, -1.2), rzz(0, 1, 0.9), rx(2, 2.2), had(0),
            cz(0, 1), rz(2, 0.3), rx(2, -0.6), rzz(1, 2, -0.4), had(2), rx(2, 1.7),
        ])
        assert_matches_oracle(c, rng)

    def test_non_adjacent_pairs(self):
        rng = np.random.default_rng(112)
        c = Circuit(4).extend([
            had(0), rx(3, 0.7), cz(3, 0), rz(0, 0.2), rzz(0, 2, 1.1), rx(1, -0.5),
            rzz(3, 1, -0.9), had(2), cz(2, 0), rz(3, 1.4),
        ])
        assert_matches_oracle(c, rng)

    def test_noiseless_structural_gates(self):
        rng = np.random.default_rng(113)
        for a in (1, 2):
            c = inserted(oracle_circuit(2, a, 12, rng), [(4, aphase(-1.3)), (8, aphase(0.61))])
            c.append(aphase(2.2))
            assert_matches_oracle(c, rng)

    def test_global_phase_is_kept(self):
        c = Circuit(2).extend([had(0), gphase(0.9), rzz(0, 1, 0.4), gphase(-0.2)])
        u = circuit_unitary(c)
        assert np.abs(u - ref_unitary(c)).max() < 1e-12
        assert abs(np.angle(u[0, 0] / ref_unitary(Circuit(2).extend(c.gates[::2]))[0, 0]) - 0.7) < 1e-12
        psi = zero_state(2)
        assert np.abs(apply_statevector(c, psi) - ref_unitary(c) @ psi).max() < 1e-12

    @pytest.mark.parametrize("noise", NOISES)
    def test_apply_density_leaves_input_unchanged(self, noise):
        rng = np.random.default_rng(114)
        for width, pair in ((2, (0, 1)), (3, (2, 0)), (4, (1, 3))):
            c = Circuit(width).extend([had(pair[0]), rzz(*pair, 0.3), rx(pair[1], -0.8)])
            rho = random_density(width, rng)
            before = rho.copy()
            out = apply_density(c, rho, noise)
            assert not np.shares_memory(out, rho)
            assert np.array_equal(rho, before)
            assert np.abs(out - ref_density(c, rho, noise)).max() < 1e-12

    @pytest.mark.parametrize("noise", NOISES)
    def test_apply_density_is_linear(self, noise):
        # every mode is a linear channel: it keeps the trace of any Hermitian
        # input, an indefinite one of trace other than 1 too, and zero is zero
        rng = np.random.default_rng(115)
        c = oracle_circuit(2, 1, 30, rng)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho1, rho2 = random_density(3, rng), (a + a.conj().T) / 2.0
        combined = 0.3 * rho1 - 1.7 * rho2
        out = apply_density(c, combined, noise)
        expected = 0.3 * apply_density(c, rho1, noise) - 1.7 * apply_density(c, rho2, noise)
        assert np.abs(out - expected).max() < 1e-12
        assert abs(np.trace(out) - np.trace(combined)) < 1e-12
        assert np.array_equal(apply_density(c, np.zeros((8, 8)), noise), np.zeros((8, 8)))


class TestEigenvectorPath:
    """Without per-gate noise apply_density walks rho's eigenvectors; it must
    agree with the oracle whatever rho's rank and sign."""

    @staticmethod
    def inputs(width, rng):
        psi, phi = random_state(width, rng), random_state(width, rng)
        a = rng.normal(size=(2**width, 2**width)) + 1j * rng.normal(size=(2**width, 2**width))
        return {
            "pure": density_from_state(psi),
            "rank 2": 0.7 * density_from_state(psi) + 0.3 * density_from_state(phi),
            "full rank": random_density(width, rng),
            "indefinite": (a + a.conj().T) / 2.0,
        }

    @pytest.mark.parametrize("noise", [NOISES[0], NOISES[2]])
    def test_matches_oracle_at_every_rank(self, noise):
        rng = np.random.default_rng(120)
        c = oracle_circuit(2, 2, 40, rng)
        for name, rho in self.inputs(c.width, rng).items():
            out = apply_density(c, rho, noise)
            assert np.abs(out - ref_density(c, rho, noise)).max() < 1e-12, name
            assert np.abs(out - out.conj().T).max() < 1e-13, name
            assert abs(np.trace(out) - np.trace(rho)) < 1e-12, name

    def test_noiseless_structural_gates(self):
        rng = np.random.default_rng(121)
        c = inserted(oracle_circuit(2, 2, 12, rng), [(3, aphase(1.1)), (9, aphase(-0.37))])
        for name, rho in self.inputs(c.width, rng).items():
            out = apply_density(c, rho)
            assert np.abs(out - ref_density(c, rho, NoiseModel())).max() < 1e-12, name
            assert abs(np.trace(out) - np.trace(rho)) < 1e-12, name

    def test_zero_matrix_stays_zero(self):
        c = Circuit(2).extend([had(0), rzz(0, 1, 0.3)])
        assert np.array_equal(apply_density(c, np.zeros((4, 4), dtype=complex)), np.zeros((4, 4)))


class TestChannelAndReadoutInput:
    RHO = np.eye(4, dtype=complex) / 4.0

    @pytest.mark.parametrize("p_tq, mode", [
        (0.1, "none"), (0.0, "none"), (0.1, "global"), (1.0, "global_depolarizing"),
        (1.5, "per_gate_depolarizing"), (-0.1, "global_depolarizing"),
        (1j, "per_gate_depolarizing"), (0.1 + 0j, "per_gate_depolarizing"),
        (float("nan"), "global_depolarizing"), ("0.1", "per_gate_depolarizing"),
    ])
    def test_noise_model_rejects_unknown_mode_and_probability(self, p_tq, mode):
        with pytest.raises(ValueError):
            NoiseModel(p_tq, mode)

    @pytest.mark.parametrize("mode", ["per_gate_depolarizing", "global_depolarizing"])
    @pytest.mark.parametrize("p_tq", [1.0, 1.5, -0.1, float("nan"), 1j, 0.5 + 0j])
    def test_one_probability_rule_in_both_modes(self, p_tq, mode):
        with pytest.raises(ValueError, match=r"^p_tq must be a real number in \[0, 1\)"):
            NoiseModel(p_tq, mode)

    def test_noise_model_accepts_numpy_float_probability(self):
        assert NoiseModel(np.float64(1e-3)).p_tq == 1e-3

    @pytest.mark.parametrize("shape", [(16,), (4, 16), (4, 4, 4)])
    def test_apply_density_rejects_non_square_rho(self, shape):
        c = Circuit(2).extend([had(0), cz(0, 1)])
        with pytest.raises(ValueError):
            apply_density(c, np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("noise", NOISES)
    def test_apply_density_rejects_non_hermitian_rho(self, noise):
        c = Circuit(2).extend([had(0), cz(0, 1)])
        for bad in (1e-6, 1e-6j, np.nan, np.inf):
            rho = self.RHO.copy()
            rho[0, 1] += bad
            with pytest.raises(ValueError):
                apply_density(c, rho, noise)

    @pytest.mark.parametrize("noise", NOISES)
    def test_apply_density_accepts_its_own_output(self, noise):
        rng = np.random.default_rng(122)
        c = random_native_circuit(3, 1, 300, rng)
        rho = random_density(4, rng)
        for _ in range(3):
            rho = apply_density(c, rho, noise)
        assert abs(np.trace(rho) - 1.0) < 1e-10

    @pytest.mark.parametrize("shape", [(4, 16), (4, 4, 4), (4, 2)])
    def test_sampling_rejects_non_square_rho(self, shape):
        with pytest.raises(ValueError):
            sample_pauli_measurement(np.full(shape, 0.25, dtype=complex), PauliString("Z"), 10, 0, 1)

    def test_sampling_rejects_zero_trace(self):
        with pytest.raises(ValueError):
            sample_pauli_measurement(np.zeros((4, 4), dtype=complex), PauliString("Z"), 10, 0, 1)


def x_minus_z_plan(amplitudes=(0.5**0.5, 0.5**0.5), c=1.0):
    """The one-qubit two-branch plan of X - Z, with its amplitudes or its c replaced."""
    return LCUPlan(1, amplitudes, [1, -1], [PauliString("X"), PauliString("Z")], c)


# each input below was accepted, or refused with a TypeError or by accident, before every
# entry point checked its arguments through the one rule of their kind in errors.py
REFUSED_BY_A_RULE = [
    pytest.param(lambda: plus_state(1.5), "^n must", id="plus_state-fractional-n"),
    pytest.param(lambda: apply_density(Circuit(2), np.ones(4)), r"^density matrix of shape \(4,\)", id="density-1d-rho"),
    pytest.param(lambda: apply_density(Circuit(2), np.eye(3)), r"^density matrix of shape \(3, 3\)", id="density-3x3-rho"),
    pytest.param(lambda: partial_trace(np.eye(4) / 4, (True,), 2), "^keep must", id="partial-trace-bool-qubit"),
    pytest.param(lambda: Gate("RX", (True,), 0.1), "^gate qubits must", id="gate-bool-qubit"),
    pytest.param(lambda: Gate("RX", 0, 0.5), "^gate qubits must be a sequence", id="gate-qubit-not-in-a-sequence"),
    pytest.param(lambda: partial_trace(np.eye(4) / 4, 0, 2), "^keep must be a sequence", id="partial-trace-keep-an-int"),
    pytest.param(lambda: ucrz(0, 1, [0.1, 0.2]), "^controls must be a sequence", id="ucrz-controls-an-int"),
    # ucrz checks its controls alone before it appends the target, so a repeated control is named as controls
    pytest.param(lambda: ucrz((0, 0), 1, [0.1, 0.5, 0.2, 0.3]), "^controls must", id="ucrz-repeated-control"),
    pytest.param(lambda: Gate("RX", (0,), True), "^gate angle must", id="gate-bool-angle"),
    pytest.param(lambda: Circuit(1, 0, ["RX"]), "^gate must be a Gate", id="circuit-of-a-string"),
    pytest.param(lambda: Circuit(1).append("RX"), "^gate must be a Gate", id="append-a-string"),
    pytest.param(lambda: Circuit(1).extend([rx(0, 0.1), (0,)]), "^gate must be a Gate", id="extend-by-a-tuple"),
    pytest.param(lambda: Circuit(2).extend(5), "^gates must be an Iterable", id="extend-by-an-int"),
    pytest.param(lambda: Circuit(2, 0, 5), "^gates must be an Iterable", id="circuit-of-an-int"),
    # an int for controls built an uncontrolled gate (0) or raised TypeError (1)
    pytest.param(lambda: mcphase(0, 1, 0.1), "^controls must be a sequence", id="mcphase-controls-zero"),
    pytest.param(lambda: mcphase(1, 2, 0.1), "^controls must be a sequence", id="mcphase-controls-an-int"),
    pytest.param(lambda: mcx(0, 1), "^controls must be a sequence", id="mcx-controls-zero"),
    pytest.param(lambda: mcphase((0,), 0, 0.1), "^controls and target must", id="mcphase-target-a-control"),
    pytest.param(lambda: mcphase((0, 1), 2, "x"), "^theta must", id="mcphase-theta-a-str"),
    # a plan's numbers: complex or unnormalized amplitudes built a wrong encoding, and c <= 0 a wrong scale
    pytest.param(lambda: x_minus_z_plan([0.5j, 0.5]), "^prep_amplitudes must", id="plan-complex-amplitudes"),
    pytest.param(lambda: x_minus_z_plan([0.6, 0.6]), "^the squares of prep_amplitudes must sum to 1",
                 id="plan-unnormalized-amplitudes"),
    pytest.param(lambda: x_minus_z_plan(c=0.0), "^c must", id="plan-zero-c"),
    pytest.param(lambda: x_minus_z_plan(c=-2.0), "^c must", id="plan-negative-c"),
    pytest.param(lambda: x_minus_z_plan(c=float("nan")), "^c must", id="plan-nan-c"),
    pytest.param(lambda: x_minus_z_plan(c="x"), "^c must", id="plan-c-a-str"),
    pytest.param(lambda: with_ancilla_zero(np.ones(2), True), "^n_ancilla must", id="bool-ancilla-count"),
    pytest.param(lambda: sample_pauli_measurement(np.eye(4) / 4, PauliString("Z"), 10, 0, 1.0), "^n_ancilla must",
                 id="sampling-float-ancilla-count"),
    pytest.param(lambda: sample_pauli_measurement(np.eye(4) / 4, PauliString("Z"), 10, 1.5, 1), "^seed must",
                 id="sampling-fractional-seed"),
    pytest.param(lambda: sample_pauli_measurement(np.eye(4) / 4, PauliString("Z"), 10, True, 1), "^seed must",
                 id="sampling-bool-seed"),
    pytest.param(lambda: density_from_state(np.ones((2, 2))), r"^state of shape \(2, 2\)", id="density-2d-state"),
    pytest.param(lambda: density_from_state(np.ones(3)), r"^state of shape \(3,\)", id="density-length-3-state"),
    pytest.param(lambda: apply_density(Circuit(1), [["a", "b"], ["c", "d"]]), "^density matrix must hold numbers",
                 id="density-of-strings"),
    pytest.param(lambda: apply_statevector(Circuit(1), ["a", "b"]), "^state must hold numbers", id="state-of-strings"),
    # an object of another type for a stage's structured argument raised AttributeError
    pytest.param(lambda: apply_density(Circuit(1), np.eye(2) / 2, "x"), "^noise must be a NoiseModel", id="noise-a-str"),
    pytest.param(lambda: sample_pauli_measurement(np.eye(4) / 4, "x", 10, 0, 1), "^observable must be a PauliString",
                 id="sampling-observable-a-str"),
    pytest.param(lambda: qsp_circuit("x", [0.1, 0.2]), "^encoding must be a Circuit", id="qsp-encoding-a-str"),
    pytest.param(lambda: lcu_plan("x"), "^h_tilde must be a PauliSum", id="lcu-plan-of-a-str"),
    pytest.param(lambda: optimize(np.eye(2) / 2, 1, 1, 0, "x"), "^config must be an OptimizerConfig",
                 id="optimize-config-a-str"),
    pytest.param(lambda: apply_statevector("x", np.ones(2)), "^circuit must be a Circuit", id="statevector-of-a-str"),
    pytest.param(lambda: apply_density("x", np.eye(2) / 2), "^circuit must be a Circuit", id="density-of-a-str"),
    pytest.param(lambda: circuit_unitary("x"), "^circuit must be a Circuit", id="unitary-of-a-str"),
    pytest.param(lambda: encoded_block("x"), "^circuit must be a Circuit", id="encoded-block-of-a-str"),
    pytest.param(lambda: count_two_qubit_gates("x"), "^circuit must be a Circuit", id="count-of-a-str"),
    pytest.param(lambda: decompose("x"), "^circuit must be a Circuit", id="decompose-a-str"),
    pytest.param(lambda: build_lcu_circuit("x"), "^plan must be a LCUPlan", id="lcu-circuit-of-a-str"),
    pytest.param(lambda: multiplexor_compile("x"), "^plan must be a LCUPlan", id="multiplexor-of-a-str"),
    pytest.param(lambda: naive_select_circuit("x"), "^plan must be a LCUPlan", id="naive-select-of-a-str"),
    pytest.param(lambda: naive_select_gate_count("x"), "^plan must be a LCUPlan", id="naive-count-of-a-str"),
    pytest.param(lambda: prep_gates("x"), "^plan must be a LCUPlan", id="prep-gates-of-a-str"),
    pytest.param(lambda: cost_and_gradient(np.zeros(AnsatzSpec(1, 1, 0).n_parameters), np.eye(2) / 2, "x"),
                 "^spec must be an AnsatzSpec", id="cost-and-gradient-spec-a-str"),
]


@pytest.mark.parametrize("call, match", REFUSED_BY_A_RULE)
def test_input_refused_naming_the_argument(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# every entry point takes a nested list as np.asarray of it
AS_ARRAY = [
    pytest.param(lambda rho: partial_trace(rho, (0,), 2), id="partial_trace"),
    pytest.param(lambda rho: sample_pauli_measurement(rho, PauliString("Z"), 10, 0, 1), id="sample_pauli_measurement"),
    pytest.param(lambda rho: apply_density(Circuit(1, 1).extend([had(0), cz(0, 1)]), rho), id="apply_density"),
    pytest.param(lambda rho: density_from_state(rho[1]), id="density_from_state"),
]


@pytest.mark.parametrize("call", AS_ARRAY)
def test_nested_list_input(call):
    rho = random_density(2, np.random.default_rng(308))
    listed, expected = call(rho.tolist()), call(rho)
    assert listed == expected if isinstance(expected, dict) else np.array_equal(listed, expected)


class TestWalkInput:
    @pytest.mark.parametrize("shape", [(4, 2, 2), (2,), (8,), (2, 4), (), (1, 4)])
    def test_apply_statevector_rejects_other_shapes(self, shape):
        c = Circuit(2).extend([had(0), cz(0, 1)])
        with pytest.raises(ValueError):
            apply_statevector(c, np.ones(shape, dtype=complex))

    def test_apply_statevector_accepts_states_and_batches(self):
        c = Circuit(2).extend([had(0), cz(0, 1)])
        u = ref_unitary(c)
        for state in (np.ones(4, dtype=complex), np.ones((4, 3), dtype=complex), np.ones((4, 1)), [1, 0, 0, 0]):
            out = apply_statevector(c, state)
            assert out.shape == np.shape(state)
            assert np.abs(out - u @ np.asarray(state)).max() < 1e-12

    @pytest.mark.parametrize("psi, n_ancilla", [
        (np.ones(3), 1), (np.ones(6), 1), (np.ones(0), 1), (np.ones((2, 2)), 1), (np.array(1.0), 1),
        (np.ones(2), -1), (np.ones(2), 1.5), (np.ones(2), 2.0), (np.ones(2), "2"),
    ])
    def test_with_ancilla_zero_rejects_non_power_of_two_states(self, psi, n_ancilla):
        # and ancilla counts that are negative or not integers
        with pytest.raises(ValueError):
            with_ancilla_zero(psi, n_ancilla)

    @pytest.mark.parametrize("call, shape", [
        pytest.param(lambda x: apply_statevector(Circuit(2), x), (2, 2, 1), id="apply_statevector-3d"),
        pytest.param(lambda x: apply_statevector(Circuit(2), x), (8,), id="apply_statevector-wrong-width"),
        pytest.param(lambda x: with_ancilla_zero(x, 1), (3,), id="with_ancilla_zero-not-a-power-of-two"),
        pytest.param(lambda x: with_ancilla_zero(x, 1), (2, 1), id="with_ancilla_zero-batch"),
    ])
    def test_state_shape_is_one_rule(self, call, shape):
        # both callers refuse through errors.register_state, with its message
        with pytest.raises(ValueError, match=rf"state of shape \({shape[0]},.* is not a \(2\^w,\) state"):
            call(np.ones(shape, dtype=complex))

    def test_partial_trace_follows_keep_order(self):
        # |01>: qubit 1 is set, so keep (1, 0) puts the weight at index 0b10
        rho = density_from_state(np.eye(4, dtype=complex)[1])
        assert np.array_equal(partial_trace(rho, (0, 1), 2), rho)
        assert partial_trace(rho, (1, 0), 2)[2, 2] == 1.0
        assert partial_trace(rho, (1,), 2)[1, 1] == 1.0

    def test_qubits_given_as_a_range(self):
        # any sequence of qubit indices is taken, not only a tuple, list or array
        rho = random_density(2, np.random.default_rng(5))
        assert np.array_equal(partial_trace(rho, range(1, 2), 2), partial_trace(rho, (1,), 2))
        assert Gate("RZZ", range(2), 0.5) == rzz(0, 1, 0.5)

    @pytest.mark.parametrize("keep", [(0, 0), (5,), (-1,), (2,), (1.0,)])
    def test_partial_trace_rejects_bad_qubits(self, keep):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(4) / 4, keep, 2)

    @pytest.mark.parametrize("shape", [(4, 4), (8, 4), (8,), (16, 16)])
    def test_partial_trace_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError, match="does not match width"):
            partial_trace(np.zeros(shape), (0,), 3)

    def test_with_ancilla_zero_layout(self):
        psi = random_state(2)
        full = with_ancilla_zero(psi, 2)
        assert full.shape == (16,) and np.array_equal(full[:4], psi) and not full[4:].any()
        assert np.array_equal(with_ancilla_zero(np.ones(1), 0), np.ones(1))


# ---------------------------------------------------------------------------
# Bit-for-bit oracle: the gather/product/scatter walk.  Each operation is
# applied by gathering its axes to the front of a copy, one product, and
# scattering the result back into place, with the plan rebuilt per call.
# The planned replay runs the same products on the same operands, so every
# simulator must return the same bits.
# ---------------------------------------------------------------------------

def tensor_apply_oracle(vec, local, axes, work):
    """The gather/product/scatter kernel: local on the given binary axes of a
    C-contiguous (2^m,) or (2^m, B) array, in place; work has twice vec's size."""
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


def fuse_oracle(program):
    """The greedy fusion into blocks of at most _FUSE_QUBITS qubits, each
    block built by the gather/product/scatter kernel on its identity."""
    blocks = []
    for op in program:
        if blocks and len(blocks[-1][0].union(op[1])) <= cir._FUSE_QUBITS:
            blocks[-1][0].update(op[1])
            blocks[-1][1].append(op)
        else:
            blocks.append((set(op[1]), [op]))
    fused = []
    for qubits, members in blocks:
        if len(members) == 1:
            fused += members
            continue
        qubits = tuple(sorted(qubits))
        index = {q: i for i, q in enumerate(qubits)}
        m = np.eye(2 ** len(qubits), dtype=complex)
        work = np.empty(2 * m.size, dtype=complex)
        for local, axes in members:
            tensor_apply_oracle(m, local, tuple(index[q] for q in axes), work)
        fused.append((m, qubits))
    return fused


def walk_oracle(circuit, initial, p_pair=0.0):
    """cir._walk without a carried layout, on the operations of the same
    compile: rho interleaved by a transposed copy, a gather/product/scatter
    call per basis change and per operation, and the interleave undone."""
    w = circuit.width
    density = p_pair > 0.0
    columns = 1 if np.ndim(initial) == 1 else np.shape(initial)[1]
    steps, _, phase = cir._compile(circuit, p_pair)
    program = [(local, axes) for local, axes, _ in steps]
    if not density and columns >= 2**cir._FUSE_QUBITS and w > cir._FUSE_QUBITS:
        program = fuse_oracle(program)
    if density:
        program = program[w:len(program) - w]
        n, bits = 4**w, [2] * (2 * w)
        interleave = [a for q in range(w) for a in (q, w + q)]
        out = np.empty(n, dtype=complex)
        np.copyto(out.reshape(bits), np.asarray(initial).reshape(bits).transpose(interleave))
        work = np.empty(2 * n, dtype=complex)
        basis, basis_inv = cir._PAULI_BASIS[4]
        for q in range(w):
            tensor_apply_oracle(out, basis, (2 * q, 2 * q + 1), work)
        floats = work.view(float)
        vec, vec_work = floats[:n], floats[n: 3 * n]
        np.copyto(vec, out.real)
    else:
        out = vec = np.array(initial, dtype=complex, order="C")
        vec_work = np.empty(2 * out.size, dtype=complex)
    for local, axes in program:
        tensor_apply_oracle(vec, local, axes, vec_work)
    if density:
        np.copyto(out, vec)
        for q in range(w):
            tensor_apply_oracle(out, basis_inv, (2 * q, 2 * q + 1), work)
        np.copyto(work[:n], out)
        np.copyto(out.reshape(bits), work[:n].reshape(bits).transpose(np.argsort(interleave)))
        return out.reshape(2**w, 2**w)
    if phase != 1.0:
        np.multiply(phase, out, out=out)
    return out


def walk_outputs(c, rng):
    """Every simulator's output on c: statevector, batches below and at the
    fusion width, the dense unitary, encoded_block, and rho under each noise."""
    w = c.width
    psi = random_state(w, rng)
    rho = random_density(w, rng)
    out = {
        "statevector": apply_statevector(c, psi),
        "batch 3": apply_statevector(c, np.stack([random_state(w, rng) for _ in range(3)], axis=1)),
        "batch 40": apply_statevector(c, rng.normal(size=(2**w, 40)) + 1j * rng.normal(size=(2**w, 40))),
        "unitary": circuit_unitary(c),
        "encoded block": encoded_block(c),
        "pure rho": apply_density(c, density_from_state(psi)),
    }
    for noise in NOISES:
        out[noise] = apply_density(c, rho, noise)
    return out


class TestPlannedReplay:
    """The carried-layout replay against the gather/product/scatter oracle, bit for bit."""

    @staticmethod
    def assert_bit_identical(c, seed, monkeypatch):
        planned = walk_outputs(c, np.random.default_rng(seed))
        monkeypatch.setattr(cir, "_walk", walk_oracle)
        oracle = walk_outputs(c, np.random.default_rng(seed))
        monkeypatch.undo()
        assert planned.keys() == oracle.keys()
        for name in planned:
            assert np.array_equal(planned[name], oracle[name]), name

    @pytest.mark.parametrize("n_system,n_ancilla", [(3, 0), (2, 2), (3, 2), (4, 2), (4, 3)])
    def test_random_circuits(self, n_system, n_ancilla, monkeypatch):
        # random pairs on a register of width 3-7, many of them off its most significant qubit
        rng = np.random.default_rng(200 + 10 * n_system + n_ancilla)
        c = oracle_circuit(n_system, n_ancilla, 40 * (n_system + n_ancilla), rng)
        assert sum(min(g.qubits) > 0 for g in c.gates if len(g.qubits) == 2) >= 5
        self.assert_bit_identical(c, n_system + n_ancilla, monkeypatch)

    def test_qsp_circuit(self, monkeypatch):
        # the 3-site chain's LCU encoding (a = 4, width 7) at d = 2
        h = build_ising_chain(3, 1.0, [0.7, 1.1, 0.9], 0.3)
        w = build_lcu_circuit(lcu_plan(rescale(h, triangle_bounds(h)).h_tilde)).circuit
        c = decompose(qsp_circuit(w, np.array([0.4, -1.3])))
        assert c.width == 7 and count_two_qubit_gates(c) > 200
        self.assert_bit_identical(c, 7, monkeypatch)

    def test_leading_axes_make_no_copy(self, monkeypatch):
        # the walk starts in the register's own order: (0, 1) leads twice, (1, 0)
        # leads in the other order and (1, 2) not at all, so each of them is
        # copied to the front; the second (1, 2) then leads.  A copy is one
        # permutation of the three binary axes and the trailing column axis
        c = Circuit(3).extend([cz(0, 1), rzz(0, 1, 0.3), cz(1, 0), had(2), rzz(1, 2, 0.5), cz(1, 2)])
        planned = [((0, 1), None), ((0, 1), None), ((1, 0), (1, 0, 2, 3)), ((1, 2), (0, 2, 1, 3)), ((1, 2), None)]
        copies = []
        copyto = np.copyto

        def counting(dst, src, *args, **kwargs):
            copies.append(dst.size)
            copyto(dst, src, *args, **kwargs)

        # a state and a 3-column batch take the same steps
        for columns in (1, 3):
            steps, finish, _ = cir._compile(c, columns=columns)
            assert [(axes, perm) for _, axes, perm in steps] == planned
            assert finish == (2, 0, 1, 3)  # the layout ends as (1, 2, 0)
            psi = random_state(3) if columns == 1 else np.stack([random_state(3) for _ in range(columns)], axis=1)
            copies.clear()
            monkeypatch.setattr(np, "copyto", counting)
            out = apply_statevector(c, psi)
            monkeypatch.undo()
            # the input's load, the two steps' copies and the final copy back
            assert copies == [8 * columns] * 4
            assert np.array_equal(out, walk_oracle(c, psi))


def fresh_walk_oracle(circuit, initial, p_pair=0.0):
    """walk_oracle on a new Circuit with the same registers and gates, so
    that nothing a walk of circuit kept is read."""
    return walk_oracle(Circuit(circuit.n_system, circuit.n_ancilla, list(circuit.gates)), initial, p_pair)


def lcu_qsp_circuit(phases):
    """The 2-site chain's LCU encoding (a = 3, width 5) under QSP, APHASE gates undecomposed."""
    h = build_ising_chain(2, 1.0, [0.7, 1.1], 0.3)
    return qsp_circuit(build_lcu_circuit(lcu_plan(rescale(h, triangle_bounds(h)).h_tilde)).circuit, phases)


# each edit keeps the circuit valid and folds it again
EDITS = {
    "append": lambda c: c.append(rx(0, 0.3)),
    "extend": lambda c: c.extend([cz(0, 2), had(1)]),
}

# each write past append and extend, refused where it is made: a valid gate list, one that
# append refuses, a register size that changes the fold (the APHASE gate reads n_ancilla)
# or leaves a gate out of range, and the kept fold itself
WRITES_REFUSED = {
    "assign gates": lambda c: setattr(c, "gates", c.gates[::-1]),
    "assign a string": lambda c: setattr(c, "gates", ["RX"]),
    "assign a wide gate": lambda c: setattr(c, "gates", [rx(3, 0.1)]),
    "delete gates": lambda c: delattr(c, "gates"),
    "append to the gates": lambda c: c.gates.append(rx(3, 0.1)),
    "insert into the gates": lambda c: c.gates.insert(0, aphase(0.2)),
    "assign an entry": lambda c: operator.setitem(c.gates, 0, (0,)),
    "grow the register": lambda c: setattr(c, "n_ancilla", c.n_ancilla + 1),
    "shrink the register": lambda c: setattr(c, "n_ancilla", 0),
    "n_system": lambda c: setattr(c, "n_system", c.n_system + 1),
    "drop the fold": lambda c: setattr(c, "_folded", None),
}
# every reader of the gates: the walks read the kept fold, the others the gates
READ_THE_GATES = {
    "walks": lambda c: walk_outputs(c, np.random.default_rng(308)),
    "count_two_qubit_gates": count_two_qubit_gates,
    "decompose": lambda c: decompose(c).gates,
    "inverse": lambda c: c.inverse().gates,
}
# each way of adding gates, given a valid gate and then one append refuses
ADDERS = {
    "construct": lambda c, gates: Circuit(c.n_system, c.n_ancilla, c.gates + tuple(gates)),
    "append": lambda c, gates: [c.append(g) for g in gates],
    "extend": lambda c, gates: c.extend(gates),
}


class TestFoldKept:
    """A circuit is folded once; every later walk reuses the fold until the
    next append or extend, the only writes a built circuit takes."""

    def test_one_fold_per_circuit(self, monkeypatch):
        built = []
        gate_local = cir._gate_local
        monkeypatch.setattr(cir, "_gate_local", lambda gate: built.append(gate) or gate_local(gate))
        rng = np.random.default_rng(301)
        c = oracle_circuit(3, 3, 60, rng)  # width 6: circuit_unitary walks fused blocks
        rho = random_density(c.width, rng)
        apply_statevector(c, random_state(c.width, rng))
        encoded_block(c)
        circuit_unitary(c)
        for noise in NOISES[1:]:
            apply_density(c, rho, noise)
        # one fold builds each distinct gate's table once
        assert len(built) == len(set(built)) == len(set(c.gates))

    def test_aphase_circuit_decomposed_once(self, monkeypatch):
        c = lcu_qsp_circuit(np.array([0.4, -1.3, 0.2]))
        calls = []
        decompose_ = cir.decompose
        monkeypatch.setattr(cir, "decompose", lambda circuit: calls.append(circuit) or decompose_(circuit))
        rho = density_from_state(with_ancilla_zero(plus_state(c.n_system), c.n_ancilla))
        circuit_unitary(c)
        for noise in NOISES[1:]:
            apply_density(c, rho, noise)
        assert len(calls) == 1 and calls[0] is c

    @pytest.mark.parametrize("edit", EDITS)
    def test_an_edit_folds_again(self, edit):
        rng = np.random.default_rng(302)
        c = inserted(oracle_circuit(2, 1, 30, rng), [(4, aphase(-0.9)), (17, aphase(0.5))])
        walk_outputs(c, np.random.default_rng(303))
        EDITS[edit](c)
        fresh = Circuit(c.n_system, c.n_ancilla, list(c.gates))
        edited, expected = walk_outputs(c, np.random.default_rng(304)), walk_outputs(fresh, np.random.default_rng(304))
        for name in expected:
            assert np.array_equal(edited[name], expected[name]), name

    @pytest.mark.parametrize("read", READ_THE_GATES)
    @pytest.mark.parametrize("structural", [False, True], ids=["native", "aphase"])
    @pytest.mark.parametrize("write", WRITES_REFUSED)
    def test_a_write_past_append_is_refused_where_it_is_made(self, write, structural, read):
        gates = [had(0), cz(0, 1)] + [aphase(0.4)] * structural
        c, fresh = Circuit(1, 1, gates), Circuit(1, 1, gates)
        apply_statevector(c, plus_state(c.width))  # the circuit keeps its fold
        with pytest.raises((AttributeError, TypeError)):
            WRITES_REFUSED[write](c)
        assert c == fresh and c._folded is not None
        # the reader, decompose and inverse too, meets the gates as they were added
        got, expected = READ_THE_GATES[read](c), READ_THE_GATES[read](fresh)
        if read == "walks":
            for name in expected:
                assert np.array_equal(got[name], expected[name]), name
        else:
            assert got == expected

    @pytest.mark.parametrize("adder", ADDERS)
    @pytest.mark.parametrize("gate, message", [
        ("RX", "gate must be a Gate, got 'RX'"),
        ((0,), "gate must be a Gate, got (0,)"),
        (rx(2, 0.1), "qubit 2 out of range for width 2"),
    ], ids=["a string", "a tuple", "a wide gate"])
    def test_a_gate_append_refuses_is_refused_by_every_adder(self, adder, gate, message):
        c = Circuit(1, 1, [had(0)])
        with pytest.raises(ValueError) as refused:
            ADDERS[adder](c, [cz(0, 1), gate])
        assert str(refused.value) == message
        # extend adds all of its gates or none, and append each one it takes
        assert c.gates == (had(0),) + (cz(0, 1),) * (adder == "append")

    @pytest.mark.parametrize("encoding", ["lcu", "variational"])
    def test_global_channel_counts_the_two_qubit_gates(self, encoding):
        rng = np.random.default_rng(305)
        phases = np.array([0.3, -0.8, 1.1])
        c = lcu_qsp_circuit(phases) if encoding == "lcu" else qsp_circuit(
            build_ansatz(2, 2, 2, rng.uniform(-np.pi, np.pi, AnsatzSpec(2, 2, 2).n_parameters)), phases)
        rho = random_density(c.width, rng)
        n_tq = count_two_qubit_gates(c)
        assert sum(len(qubits) == 2 for _, qubits in cir._fold(c)[0]) == n_tq
        p, dim = 1.0 - (1.0 - 1e-3) ** n_tq, len(rho)
        expected = (1.0 - p) * apply_density(c, rho) + p * np.trace(rho).real * np.eye(dim, dtype=complex) / dim
        assert np.array_equal(apply_density(c, rho, NoiseModel(1e-3, "global_depolarizing")), expected)

    def test_later_walks_match_the_oracle(self, monkeypatch):
        rng = np.random.default_rng(306)
        # width 6: the unitary and the 40-column batch are fused
        c = inserted(oracle_circuit(4, 2, 120, rng), [(50, aphase(0.7))])
        walks = [walk_outputs(c, np.random.default_rng(307)) for _ in range(3)]
        monkeypatch.setattr(cir, "_walk", fresh_walk_oracle)
        oracle = walk_outputs(c, np.random.default_rng(307))
        monkeypatch.undo()
        for walk in walks:
            for name in oracle:
                assert np.array_equal(walk[name], oracle[name]), name
