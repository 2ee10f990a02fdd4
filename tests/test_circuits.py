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
    depolarize_pair,
    global_depolarize,
    gphase,
    had,
    mcpauli,
    mcphase,
    mcx,
    partial_trace,
    plus_state,
    rx,
    rz,
    rzz,
    sample_pauli_measurement,
    with_ancilla_zero,
    zero_state,
)
from qsp_lab.errors import DecompositionRequiredError, DimensionError
from qsp_lab.operators import MAX_DENSE_QUBITS, PauliString

RNG = np.random.default_rng(20240817)


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
        c = random_native_circuit(2, 1, 15, rng)
        u = circuit_unitary(c)
        v = circuit_unitary(c.inverse())
        assert np.allclose(u @ v, np.eye(8), atol=1e-10)

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
    def test_mcpauli_unitary(self):
        # pattern |10>, Pauli -XZ on a 2-qubit system
        c = Circuit(2, 2).append(mcpauli((1, 0), PauliString("XZ"), -1))
        u = circuit_unitary(c)
        x = np.array([[0, 1], [1, 0]])
        z = np.diag([1, -1])
        expect = np.eye(16, dtype=complex)
        expect[8:12, 8:12] = -np.kron(x, z)
        assert np.allclose(u, expect, atol=1e-12)

    def test_mcpauli_decompose_matches(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            a = int(rng.integers(1, 3))
            n = int(rng.integers(1, 3))
            pattern = tuple(int(b) for b in rng.integers(0, 2, size=a))
            letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            if set(letters) == {"I"} and rng.random() < 0.5:
                letters = "Z" + letters[1:]
            sign = int(rng.choice([1, -1]))
            c = Circuit(n, a).append(mcpauli(pattern, PauliString(letters), sign))
            dec = decompose(c)
            assert all(g.kind not in ("MCPAULI", "APHASE") for g in dec.gates)
            assert np.allclose(circuit_unitary(dec), ref_unitary(c), atol=1e-10)

    @pytest.mark.parametrize("pattern, letters", [((2,), "I"), ((1, 2), "Z"), ((-1,), "X")])
    def test_mcpauli_rejects_pattern_entry_outside_bits(self, pattern, letters):
        with pytest.raises(ValueError):
            mcpauli(pattern, PauliString(letters))

    def test_mcpauli_identity_sign(self):
        for a in (1, 2, 3):
            c = Circuit(1, a).append(mcpauli((1,) * a, PauliString("I"), -1))
            dec = decompose(c)
            assert np.allclose(circuit_unitary(dec), ref_unitary(c), atol=1e-10)

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

    def test_simulators_see_only_native_gates(self, monkeypatch):
        seen = []
        gate_local = cir._gate_local

        def recording(gate):
            seen.append(gate.kind)
            return gate_local(gate)

        monkeypatch.setattr(cir, "_gate_local", recording)
        c = Circuit(2, 2).extend([had(0), mcpauli((1, 0), PauliString("YX"), -1), aphase(0.3), rzz(1, 2, 0.4)])
        circuit_unitary(c)
        apply_statevector(c, zero_state(4))
        apply_density(c, density_from_state(zero_state(4)))
        assert seen and set(seen) <= set(NATIVE_KINDS)
        with pytest.raises(DecompositionRequiredError):
            gate_local(aphase(0.1))

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
        rng = np.random.default_rng(13)
        c = random_native_circuit(2, 0, 10, rng)
        rho = random_density(2, rng)
        a = apply_density(c, rho, NoiseModel(0.0, "per_gate_depolarizing"))
        b = apply_density(c, rho, NoiseModel())
        assert np.allclose(a, b, atol=1e-14)

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

    def test_global_depolarize_limits(self):
        rng = np.random.default_rng(16)
        rho = random_density(2, rng)
        assert np.allclose(global_depolarize(rho, 0.0), rho)
        assert np.allclose(global_depolarize(rho, 1.0), np.eye(4) / 4.0)

    def test_global_depolarize_purity(self):
        p = 0.223
        psi = random_state(3, np.random.default_rng(17))
        rho = global_depolarize(density_from_state(psi), p)
        d = 8
        expected = (1 - p) ** 2 + 2 * (1 - p) * p / d + p**2 / d
        assert np.trace(rho @ rho).real == pytest.approx(expected, rel=1e-12)

    def test_depolarize_pair_on_subsystem(self):
        rng = np.random.default_rng(18)
        rho = random_density(3, rng)
        out = depolarize_pair(rho, 0, 2, 1.0, 3)
        red = partial_trace(out, (0, 2), 3)
        assert np.allclose(red, np.eye(4) / 4.0, atol=1e-12)
        assert np.allclose(partial_trace(out, (1,), 3), partial_trace(rho, (1,), 3), atol=1e-12)


class TestCounting:
    def test_empty(self):
        assert count_two_qubit_gates(Circuit(3)) == 0

    def test_counts_rzz_and_cz(self):
        c = Circuit(3).extend([rzz(0, 1, 0.3), cz(1, 2), had(0), rx(1, 0.2)])
        assert count_two_qubit_gates(c) == 2

    def test_undecomposed_raises(self):
        c = Circuit(2, 1).append(mcpauli((1,), PauliString("XI"), 1))
        with pytest.raises(DecompositionRequiredError):
            count_two_qubit_gates(c)

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
    ])
    def test_malformed_gate_rejected(self, kind, qubits):
        with pytest.raises(ValueError):
            Gate(kind, qubits, 0.5)

    @pytest.mark.parametrize("pattern, pauli, sign", [
        ((2,), PauliString("I"), 1),
        ((1, 2), PauliString("Z"), 1),
        ((-1,), PauliString("X"), 1),
        ((1,), PauliString("Z"), 0),
        ((1,), None, 1),
    ])
    def test_mcpauli_gate_checked_without_factory(self, pattern, pauli, sign):
        with pytest.raises(ValueError):
            Gate("MCPAULI", (), 0.0, pattern, pauli, sign)

    @pytest.mark.parametrize("qubit", [0.1, 1.0, "0", None])
    def test_non_integer_qubit_rejected(self, qubit):
        with pytest.raises(ValueError):
            rx(qubit, 0.5)

    def test_numpy_integer_qubits_accepted(self):
        c = Circuit(2).extend([rx(np.int64(1), 0.5), cz(np.int32(0), np.int64(1))])
        assert np.abs(circuit_unitary(c) - ref_unitary(Circuit(2).extend([rx(1, 0.5), cz(0, 1)]))).max() < 1e-12

    def test_mcpauli_rejects_qubit_list(self):
        with pytest.raises(ValueError):
            Gate("MCPAULI", (0,), 0.0, (1,), PauliString("Z"))

    @pytest.mark.parametrize("registers, pattern, letters", [
        ((1, 2), (1,), "Z"),
        ((1, 1), (1,), "ZZ"),
        ((2, 0), (1,), "ZZ"),
    ])
    def test_mcpauli_register_mismatch_rejected_at_append(self, registers, pattern, letters):
        gate = mcpauli(pattern, PauliString(letters))
        with pytest.raises(ValueError):
            Circuit(*registers).append(gate)
        with pytest.raises(ValueError):
            Circuit(*registers, [gate])


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
    if gate.kind == "MCPAULI":
        proj = kron_chain({q: np.diag([1.0 - b, float(b)]) for q, b in enumerate(gate.pattern)}, a)
        pauli = gate.sign * gate.pauli.to_matrix()
        return np.kron(proj, pauli) + np.kron(np.eye(2**a) - proj, np.eye(2**circuit.n_system))
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
        rho = (1.0 - p) * rho + p * np.eye(rho.shape[0]) / rho.shape[0]
    return rho


NOISES = [NoiseModel(), NoiseModel(0.07, "per_gate_depolarizing"), NoiseModel(0.03, "global_depolarizing")]


def oracle_circuit(n_system, n_ancilla, n_gates, rng):
    """A random native circuit with global phases mixed in."""
    c = random_native_circuit(n_system, n_ancilla, n_gates, rng)
    for _ in range(3):
        c.gates.insert(int(rng.integers(len(c.gates) + 1)), gphase(rng.uniform(-np.pi, np.pi)))
    return c


def assert_matches_oracle(c, rng):
    w = c.width
    u = ref_unitary(c)
    assert np.abs(circuit_unitary(c) - u).max() < 1e-12
    psi = random_state(w, rng)
    assert np.abs(apply_statevector(c, psi) - u @ psi).max() < 1e-12
    batch = np.stack([random_state(w, rng) for _ in range(3)], axis=1)
    assert np.abs(apply_statevector(c, batch) - u @ batch).max() < 1e-12
    rho = random_density(w, rng)
    structural = any(g.kind in ("MCPAULI", "APHASE") for g in c.gates)
    for noise in NOISES[:1] if structural else NOISES:
        out = apply_density(c, rho, noise)
        assert np.abs(out - ref_density(c, rho, noise)).max() < 1e-12, noise


class TestIndependentOracle:
    @pytest.mark.parametrize("n_system,n_ancilla", [(2, 0), (1, 2), (3, 1), (2, 2)])
    def test_random_native_circuits(self, n_system, n_ancilla):
        rng = np.random.default_rng(100 + 10 * n_system + n_ancilla)
        for _ in range(4):
            assert_matches_oracle(oracle_circuit(n_system, n_ancilla, 30, rng), rng)

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
            c = oracle_circuit(2, a, 12, rng)
            pattern = tuple(int(b) for b in rng.integers(0, 2, size=a))
            c.gates.insert(4, mcpauli(pattern, PauliString("XY"), -1))
            c.gates.insert(8, aphase(0.61))
            c.append(mcpauli(pattern, PauliString("ZI"), 1))
            assert_matches_oracle(c, rng)

    def test_global_phase_is_kept(self):
        c = Circuit(2).extend([had(0), gphase(0.9), rzz(0, 1, 0.4), gphase(-0.2)])
        u = circuit_unitary(c)
        assert np.abs(u - ref_unitary(c)).max() < 1e-12
        assert abs(np.angle(u[0, 0] / ref_unitary(Circuit(2).extend(c.gates[::2]))[0, 0]) - 0.7) < 1e-12
        psi = zero_state(2)
        assert np.abs(apply_statevector(c, psi) - ref_unitary(c) @ psi).max() < 1e-12

    def test_depolarize_pair_leaves_input_unchanged(self):
        rng = np.random.default_rng(114)
        for width, pair in ((2, (0, 1)), (3, (2, 0)), (4, (1, 3))):
            rho = random_density(width, rng)
            before = rho.copy()
            for p in (0.0, 0.3):
                out = depolarize_pair(rho, pair[0], pair[1], p, width)
                assert not np.shares_memory(out, rho)
                assert np.array_equal(rho, before)
                assert np.abs(out - ref_depolarize(rho, pair[0], pair[1], p, width)).max() < 1e-12


class TestChannelAndReadoutInput:
    RHO = np.eye(4, dtype=complex) / 4.0

    def test_depolarize_pair_rejects_repeated_qubit(self):
        with pytest.raises(ValueError):
            depolarize_pair(self.RHO, 0, 0, 0.5, 2)

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
    def test_depolarize_pair_rejects_probability_outside_unit_interval(self, p):
        with pytest.raises(ValueError):
            depolarize_pair(self.RHO, 0, 1, p, 2)

    @pytest.mark.parametrize("pair", [(0, 2), (-1, 0)])
    def test_depolarize_pair_rejects_qubit_out_of_range(self, pair):
        with pytest.raises(ValueError):
            depolarize_pair(self.RHO, *pair, 0.5, 2)

    @pytest.mark.parametrize("shape", [(4, 16), (4, 4, 4)])
    def test_apply_density_rejects_non_square_rho(self, shape):
        c = Circuit(2).extend([had(0), cz(0, 1)])
        with pytest.raises(ValueError):
            apply_density(c, np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("shape", [(4, 16), (4, 4, 4), (4, 2)])
    def test_sampling_rejects_non_square_rho(self, shape):
        with pytest.raises(ValueError):
            sample_pauli_measurement(np.full(shape, 0.25, dtype=complex), PauliString("Z"), 10, 0, 1)

    def test_sampling_rejects_zero_trace(self):
        with pytest.raises(ValueError):
            sample_pauli_measurement(np.zeros((4, 4), dtype=complex), PauliString("Z"), 10, 0, 1)
