import numpy as np
import pytest

from qsp_lab import circuits as cir
from qsp_lab.circuits import Circuit, circuit_unitary, count_two_qubit_gates, decompose
from qsp_lab.lcu import (
    LCUPlan,
    build_lcu_circuit,
    diagonal_gates,
    encoded_block,
    lcu_plan,
    multiplexor_compile,
    naive_select_circuit,
    naive_select_gate_count,
    prep_gates,
    ucry,
    ucrz,
)
from qsp_lab.operators import (
    PauliString,
    PauliSum,
    build_ising_chain,
    rescale,
    to_matrix,
    triangle_bounds,
)


def ising4_rescaled():
    h = build_ising_chain(4, 1.0, [0.0, 1.0, 0.0, 0.0], 0.0)
    return rescale(h, triangle_bounds(h), 0.0, 1.0).h_tilde


def dense_select(plan: LCUPlan) -> np.ndarray:
    """Brute-force select oracle sum_l sign_l |l><l| (x) P_l."""
    dim_a, dim_s = 2**plan.a, 2**plan.n_system
    b = np.zeros((dim_a * dim_s, dim_a * dim_s), dtype=complex)
    for idx in range(dim_a):
        block = np.eye(dim_s, dtype=complex)
        if idx < plan.k:
            block = plan.signs[idx] * plan.paulis[idx].to_matrix()
        b[idx * dim_s: (idx + 1) * dim_s, idx * dim_s: (idx + 1) * dim_s] = block
    return b


def random_plan(rng, k, n):
    a = max(int(np.ceil(np.log2(k))), 0) if k > 1 else 0
    letters = []
    for _ in range(k):
        s = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        letters.append(s)
    weights = rng.uniform(0.2, 1.0, size=k)
    c = weights.sum()
    return LCUPlan(
        a=a,
        prep_amplitudes=np.sqrt(weights / c),
        signs=[int(s) for s in rng.choice([1, -1], size=k)],
        paulis=[PauliString(s) for s in letters],
        c=float(c),
    )


class TestPlan:
    def test_single_term(self):
        plan = lcu_plan(PauliSum(1).add(1.0, "X"))
        assert plan.a == 0 and plan.c == 1.0
        assert plan.paulis == [PauliString("X")] and plan.signs == [1]

    def test_padded_four_site(self):
        plan = lcu_plan(ising4_rescaled(), pad_equal_weights=True)
        assert plan.a == 3 and plan.k == 8
        assert np.allclose(plan.prep_amplitudes, 1 / np.sqrt(8))
        assert plan.signs[:4] == [1] * 4 and plan.signs[4:] == [-1] * 4
        assert sum(p.is_identity for p in plan.paulis) == 4
        assert plan.c == pytest.approx(1.0)
        assert abs(plan.prep_amplitudes @ plan.prep_amplitudes - 1.0) < 1e-12

    def test_two_term_symmetric(self):
        h = PauliSum(1).add(0.5, "X").add(-0.5, "Z")
        plan = lcu_plan(h)
        assert np.allclose(plan.prep_amplitudes, [1 / np.sqrt(2)] * 2)
        assert plan.signs == [1, -1]
        assert plan.c == pytest.approx(1.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            lcu_plan(PauliSum(1, [(0.0, PauliString("X"))]))


class TestGraySynthesis:
    def test_diagonal_exact(self):
        rng = np.random.default_rng(31)
        for m in (1, 2, 3, 4):
            phases = rng.uniform(-np.pi, np.pi, size=2**m)
            c = Circuit(m).extend(diagonal_gates(tuple(range(m)), phases))
            u = circuit_unitary(c)
            assert np.allclose(u, np.diag(np.exp(1j * phases)), atol=1e-10)

    def test_ucrz_exact(self):
        rng = np.random.default_rng(32)
        for m in (0, 1, 2, 3):
            alphas = rng.uniform(-np.pi, np.pi, size=2**m)
            c = Circuit(m + 1).extend(ucrz(tuple(range(m)), m, alphas))
            u = circuit_unitary(c)
            expect = np.zeros((2 ** (m + 1), 2 ** (m + 1)), dtype=complex)
            for x in range(2**m):
                e = np.exp(1j * alphas[x] / 2)
                expect[2 * x, 2 * x] = e.conjugate()
                expect[2 * x + 1, 2 * x + 1] = e
            assert np.allclose(u, expect, atol=1e-10)

    def test_ucry_exact(self):
        rng = np.random.default_rng(33)
        for m in (1, 2):
            alphas = rng.uniform(-np.pi, np.pi, size=2**m)
            c = Circuit(m + 1).extend(ucry(tuple(range(m)), m, alphas))
            u = circuit_unitary(c)
            expect = np.zeros((2 ** (m + 1), 2 ** (m + 1)), dtype=complex)
            for x in range(2**m):
                half = alphas[x] / 2
                expect[2 * x: 2 * x + 2, 2 * x: 2 * x + 2] = [
                    [np.cos(half), -np.sin(half)],
                    [np.sin(half), np.cos(half)],
                ]
            assert np.allclose(u, expect, atol=1e-10)

    def test_sparse_function_is_cheap(self):
        # function depending on 2 of 3 controls costs a 2-control walk
        alphas = np.array([0.0, 0.0, 0.7, 0.7, 0.3, 0.3, 0.0, 0.0])
        c = Circuit(4).extend(ucrz((0, 1, 2), 3, alphas))
        assert count_two_qubit_gates(c) <= 4


class TestSelectOracles:
    def test_compile_matches_naive_exhaustive_small(self):
        rng = np.random.default_rng(34)
        for k in range(1, 9):
            for n in range(1, 5):
                plan = random_plan(rng, k, n)
                if plan.a + n > 7:
                    continue
                compiled = multiplexor_compile(plan)
                assert all(g.kind not in ("MCPAULI", "APHASE") for g in compiled.gates)
                u = circuit_unitary(compiled)
                assert np.allclose(u, dense_select(plan), atol=1e-10)

    def test_naive_decomposition_matches_dense(self):
        rng = np.random.default_rng(36)
        plan = random_plan(rng, 4, 2)
        dec = decompose(naive_select_circuit(plan))
        assert np.allclose(circuit_unitary(dec), dense_select(plan), atol=1e-10)

    def test_compiled_never_exceeds_naive(self):
        rng = np.random.default_rng(37)
        for k, n in ((2, 1), (3, 2), (4, 3), (6, 3), (8, 4)):
            plan = random_plan(rng, k, n)
            compiled = count_two_qubit_gates(multiplexor_compile(plan))
            naive = naive_select_gate_count(plan)
            assert compiled <= naive

    def test_k2_single_qubit_count(self):
        rng = np.random.default_rng(38)
        plan = LCUPlan(
            a=1,
            prep_amplitudes=np.array([np.sqrt(0.5), np.sqrt(0.5)]),
            signs=[1, -1],
            paulis=[PauliString("X"), PauliString("Z")],
            c=1.0,
        )
        dec = decompose(naive_select_circuit(plan))
        assert naive_select_gate_count(plan) == count_two_qubit_gates(dec)
        del rng


class TestBlockEncoding:
    def test_four_site_exact(self):
        h = ising4_rescaled()
        plan = lcu_plan(h, pad_equal_weights=True)
        enc = build_lcu_circuit(plan)
        assert enc.scale == 1.0
        assert enc.epsilon_be < 1e-10
        assert np.allclose(enc.block(), to_matrix(h.canonicalize(drop_zero=False)), atol=1e-10)

    def test_four_site_prep_is_hadamards(self):
        plan = lcu_plan(ising4_rescaled(), pad_equal_weights=True)
        gates = prep_gates(plan, (0, 1, 2))
        assert [g.kind for g in gates] == ["HAD"] * 3

    def test_four_site_compression_targets(self):
        plan = lcu_plan(ising4_rescaled(), pad_equal_weights=True)
        naive = naive_select_gate_count(plan)
        compiled = count_two_qubit_gates(multiplexor_compile(plan))
        assert compiled <= 44
        assert 100.0 * (1.0 - compiled / naive) >= 60.0
        assert naive >= 100  # documented baseline near 125

    def test_single_pauli_trivial(self):
        plan = lcu_plan(PauliSum(2).add(1.0, "XZ"))
        enc = build_lcu_circuit(plan)
        assert enc.a == 0 and enc.epsilon_be < 1e-12
        assert np.allclose(enc.block(), PauliString("XZ").to_matrix(), atol=1e-12)

    def test_unpadded_scale(self):
        h = PauliSum(1).add(1.0, "X").add(-1.0, "Z")  # c = 2
        plan = lcu_plan(h)
        enc = build_lcu_circuit(plan)
        assert enc.scale == pytest.approx(2.0)
        assert enc.epsilon_be < 1e-10
        assert np.allclose(enc.block(), to_matrix(h) / 2.0, atol=1e-10)

    def test_nonuniform_prep(self):
        h = PauliSum(2).add(0.9, "XI").add(-0.3, "ZZ").add(0.15, "IY")
        plan = lcu_plan(h)
        enc = build_lcu_circuit(plan)
        assert enc.epsilon_be < 1e-10
        assert np.allclose(enc.block(), to_matrix(h) / plan.c, atol=1e-10)

    def test_reflection_and_inverse(self):
        plan = lcu_plan(ising4_rescaled(), pad_equal_weights=True)
        enc = build_lcu_circuit(plan)
        u = circuit_unitary(enc.circuit)
        assert np.allclose(u @ u, np.eye(u.shape[0]), atol=1e-10)
        v = circuit_unitary(enc.circuit.inverse())
        assert np.allclose(u @ v, np.eye(u.shape[0]), atol=1e-10)

    def test_block_norm_bounded(self):
        rng = np.random.default_rng(39)
        for k, n in ((3, 2), (5, 3)):
            plan = random_plan(rng, k, n)
            enc = build_lcu_circuit(plan)
            s = np.linalg.svd(encoded_block(enc.circuit), compute_uv=False)
            assert s.max() <= 1.0 + 1e-9
