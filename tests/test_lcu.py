import dataclasses
import itertools

import numpy as np
import pytest

from qsp_lab import circuits as cir
from qsp_lab import lcu
from qsp_lab.circuits import NATIVE_KINDS, Circuit, circuit_unitary, count_two_qubit_gates, decompose
from qsp_lab.errors import MAX_DENSE_QUBITS, DimensionError
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


def one_branch_plan(a, idx, letters, sign):
    """A plan whose select oracle is the one pattern-controlled Pauli
    sign * letters on ancilla pattern idx: the branches before idx are +I,
    which the naive oracle skips."""
    n = len(letters)
    return LCUPlan(a, np.full(idx + 1, 1.0 / np.sqrt(idx + 1)), [1] * idx + [sign],
                   [PauliString("I" * n)] * idx + [PauliString(letters)], 1.0)


K2 = dict(a=1, prep_amplitudes=np.full(2, np.sqrt(0.5)), signs=[1, -1],
          paulis=[PauliString("X"), PauliString("Z")], c=1.0)
K2_PLAN = LCUPlan(**K2)
ISING3 = build_ising_chain(3, 1.0, [0.7, 1.1, 0.9], 0.3)

# each replaces fields of K2 by ones no plan may hold
BAD_PLANS = [
    pytest.param(dict(signs=[1, 0]), id="zero-sign"),
    pytest.param(dict(signs=[1, 2]), id="sign-2"),
    pytest.param(dict(signs=[1, -0.5]), id="fractional-sign"),
    pytest.param(dict(signs=[1]), id="one-sign-two-paulis"),
    pytest.param(dict(signs=[1, -1, 1]), id="three-signs-two-paulis"),
    pytest.param(dict(prep_amplitudes=np.ones(3) / np.sqrt(3)), id="three-amplitudes"),
    pytest.param(dict(prep_amplitudes=np.sqrt(0.5)), id="scalar-amplitude"),
    pytest.param(dict(paulis=[PauliString("X"), PauliString("ZZ")]), id="two-registers"),
    pytest.param(dict(paulis=["X", "Z"]), id="letters-not-paulistrings"),
    pytest.param(dict(a=0), id="more-branches-than-2^a"),
    pytest.param(dict(a=-1), id="negative-a"),
    pytest.param(dict(a=1.0), id="float-a"),
    pytest.param(dict(prep_amplitudes=np.zeros(0), signs=[], paulis=[]), id="no-branches"),
]


class TestPlan:
    def test_single_term(self):
        plan = lcu_plan(PauliSum(1).add(1.0, "X"))
        assert plan.a == 0 and plan.c == 1.0
        assert plan.paulis == (PauliString("X"),) and plan.signs == (1,)

    def test_padded_four_site(self):
        plan = lcu_plan(ising4_rescaled(), pad_equal_weights=True)
        assert plan.a == 3 and plan.k == 8
        assert np.allclose(plan.prep_amplitudes, 1 / np.sqrt(8))
        assert plan.signs[:4] == (1,) * 4 and plan.signs[4:] == (-1,) * 4
        assert sum(p.is_identity for p in plan.paulis) == 4
        assert plan.c == pytest.approx(1.0)
        assert abs(plan.prep_amplitudes @ plan.prep_amplitudes - 1.0) < 1e-12

    def test_two_term_symmetric(self):
        h = PauliSum(1).add(0.5, "X").add(-0.5, "Z")
        plan = lcu_plan(h)
        assert np.allclose(plan.prep_amplitudes, [1 / np.sqrt(2)] * 2)
        assert plan.signs == (1, -1)
        assert plan.c == pytest.approx(1.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            lcu_plan(PauliSum(1, [(0.0, PauliString("X"))]))

    @pytest.mark.parametrize("terms, message", [
        ([(0.5, "I")], "at least one non-identity term"),
        ([(0.5, "X"), (0.25, "Z")], "equal non-identity magnitudes"),
        ([(0.25, "I"), (0.5, "X")], "not a multiple of the branch weight"),
        ([(0.5, "X"), (-0.5, "Y"), (0.5, "Z")], "padded branch count 3 is not a power of two"),
    ], ids=["identity-only", "unequal", "fractional-identity", "three-branches"])
    def test_padding_that_cannot_equalize_weights_rejected(self, terms, message):
        h = PauliSum(1, [(c, PauliString(p)) for c, p in terms])
        with pytest.raises(ValueError, match=message):
            lcu_plan(h, pad_equal_weights=True)

    @pytest.mark.parametrize("bad", BAD_PLANS)
    @pytest.mark.parametrize("build", [multiplexor_compile, naive_select_circuit, build_lcu_circuit])
    def test_malformed_plan_rejected(self, build, bad):
        # the plan checks its branches when it is built, so no select or W function sees
        # a malformed one (and none raises IndexError)
        with pytest.raises(ValueError):
            build(LCUPlan(**{**K2, **bad}))

    def test_numpy_integer_fields_accepted(self):
        plan = LCUPlan(**{**K2, "a": np.int64(1), "signs": [np.int64(1), np.int32(-1)]})
        assert np.allclose(circuit_unitary(naive_select_circuit(plan)), dense_select(plan), atol=1e-12)

    def test_built_plan_cannot_be_mutated(self):
        # a plan is checked once, when it is built, so nothing may change it afterwards
        fields = {**K2, "signs": list(K2["signs"]), "paulis": list(K2["paulis"])}
        plan = LCUPlan(**fields)
        fields["signs"].append(1)  # the plan keeps copies of its inputs
        fields["paulis"].append(PauliString("Y"))
        assert plan.signs == (1, -1) and plan.paulis == (PauliString("X"), PauliString("Z"))
        with pytest.raises(AttributeError):
            plan.signs.append(1)
        with pytest.raises(AttributeError):
            plan.paulis.append(PauliString("ZZ"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.signs = [1, -1, 1]
        with pytest.raises(ValueError):
            plan.prep_amplitudes[0] = 1.0
        assert np.allclose(circuit_unitary(naive_select_circuit(plan)), dense_select(plan), atol=1e-12)


class TestGraySynthesis:
    @pytest.mark.parametrize("m", range(6))
    def test_walsh_coefficients_are_the_parity_characters(self, m):
        # w[mask] = 2^-m sum_x values[x] (-1)^(sum of the bits of x on the mask's controls),
        # controls[0] the most significant bit of x and bit 0 of the mask
        values = np.random.default_rng(30 + m).normal(size=2**m)
        bits = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1  # bits[x, i]: control i of x
        masks = (np.arange(2**m)[:, None] >> np.arange(m)) & 1  # masks[mask, i]: bit i of the mask
        characters = 1 - 2 * ((masks @ bits.T) % 2)
        assert np.abs(lcu._walsh(values) - characters @ values / 2**m).max() <= 1e-15

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

    @pytest.mark.parametrize("build", [
        lambda: diagonal_gates((0, 1), [0.1, 0.2, 0.3]),
        lambda: diagonal_gates((0, 1), [0.4]),
        lambda: diagonal_gates((), [0.1, 0.2]),
        lambda: ucrz((0, 1), 2, np.arange(8.0)),
        lambda: ucrz((), 2, np.arange(2.0)),
        lambda: ucry((0, 1), 2, np.arange(2.0)),
        lambda: ucry((0,), 2, np.arange(4.0)),
        # repeated qubits
        lambda: ucrz((0,), 0, [0.1, 0.5]),
        lambda: diagonal_gates((0, 0), [0, 0.1, 0.2, 0.3]),
        # tables that are not 1-D arrays of real numbers
        lambda: diagonal_gates((0,), np.zeros((2, 1))),
        lambda: ucry((0,), 1, np.zeros((2, 2))),
        lambda: ucrz((0,), 1, [0.1j, 0.2]),
        lambda: diagonal_gates((0,), np.array([0.1, 0.2 + 0.1j])),
        lambda: ucry((0,), 1, ["0.1", "0.2"]),
    ])
    def test_malformed_synthesis_input_rejected(self, build):
        with pytest.raises(ValueError, match="^(controls and target|qubits|alphas|phases) must"):
            build()

    def test_ucry_of_zero_angles_is_empty(self):
        assert ucry((0, 1), 2, np.zeros(4)) == []

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
                assert all(g.kind in NATIVE_KINDS for g in compiled.gates)
                u = circuit_unitary(compiled)
                assert np.allclose(u, dense_select(plan), atol=1e-10)

    def test_naive_decomposition_matches_dense(self):
        rng = np.random.default_rng(36)
        plan = random_plan(rng, 4, 2)
        naive = naive_select_circuit(plan)
        assert all(g.kind in NATIVE_KINDS for g in naive.gates)
        assert np.allclose(circuit_unitary(naive), dense_select(plan), atol=1e-10)

    def test_one_branch_unitary(self):
        # pattern |10>, Pauli -XZ on a 2-qubit system
        plan = one_branch_plan(2, 0b10, "XZ", -1)
        u = circuit_unitary(naive_select_circuit(plan))
        x = np.array([[0, 1], [1, 0]])
        z = np.diag([1, -1])
        expect = np.eye(16, dtype=complex)
        expect[8:12, 8:12] = -np.kron(x, z)
        assert np.allclose(u, expect, atol=1e-12)
        assert np.allclose(u, dense_select(plan), atol=1e-12)

    def test_one_branch_matches_dense(self):
        # every pattern flip and the sign conjugation of each letter
        rng = np.random.default_rng(11)
        for a, n in itertools.product((1, 2), (1, 2)):
            for idx in range(2**a):
                for letter in "XYZ":
                    for sign in (1, -1):
                        letters = "".join(rng.choice(list("IXYZ"), size=n - 1)) + letter
                        plan = one_branch_plan(a, idx, letters, sign)
                        naive = naive_select_circuit(plan)
                        assert np.allclose(circuit_unitary(naive), dense_select(plan), atol=1e-10), plan

    def test_one_branch_identity_sign(self):
        # -I on the all-ones pattern is a phase on the ancillas alone, a global one at a = 0
        for a in (0, 1, 2, 3):
            plan = one_branch_plan(a, 2**a - 1, "I", -1)
            assert np.allclose(circuit_unitary(naive_select_circuit(plan)), dense_select(plan), atol=1e-10)

    def test_compiled_never_exceeds_naive(self):
        rng = np.random.default_rng(37)
        for k, n in ((2, 1), (3, 2), (4, 3), (6, 3), (8, 4)):
            plan = random_plan(rng, k, n)
            compiled = count_two_qubit_gates(multiplexor_compile(plan))
            naive = naive_select_gate_count(plan)
            assert compiled <= naive

    def test_naive_count_closed_form_matches_built_circuit(self):
        rng = np.random.default_rng(2026)
        plans = [random_plan(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4))) for _ in range(60)]
        plans += [one_branch_plan(a, idx, letters, sign)
                  for a in range(4) for idx in range(2**a)
                  for letters in ("I", "X", "Y", "ZZ", "IXY") for sign in (1, -1)]
        for plan in plans:
            assert naive_select_gate_count(plan) == count_two_qubit_gates(naive_select_circuit(plan)), plan

    def test_k2_single_qubit_count(self):
        # each branch is one singly-controlled phase (one RZZ); the pattern
        # flip and the sign conjugation are single-qubit
        assert naive_select_gate_count(K2_PLAN) == 2

    def test_naive_fallback_when_cheaper(self):
        assert count_two_qubit_gates(multiplexor_compile(K2_PLAN)) == 2
        assert multiplexor_compile(K2_PLAN).gates == naive_select_circuit(K2_PLAN).gates

    def test_compressed_when_cheaper(self):
        plan = lcu_plan(rescale(ISING3, triangle_bounds(ISING3)).h_tilde)
        assert plan.a == 4
        # 94 of the whole W's 122 two-qubit gates (test_encoding_two_qubit_count_pinned)
        assert (count_two_qubit_gates(multiplexor_compile(plan)), naive_select_gate_count(plan)) == (94, 530)


class TestBlockEncoding:
    def test_four_site_exact(self):
        h = ising4_rescaled()
        plan = lcu_plan(h, pad_equal_weights=True)
        enc = build_lcu_circuit(plan)
        assert enc.scale == 1.0
        assert enc.epsilon_be < 1e-10
        assert np.allclose(encoded_block(enc.circuit), h.to_matrix(), atol=1e-10)

    def test_four_site_prep_is_hadamards(self):
        plan = lcu_plan(ising4_rescaled(), pad_equal_weights=True)
        gates = prep_gates(plan)
        assert [g.kind for g in gates] == ["HAD"] * 3

    def test_four_site_compression_targets(self):
        plan = lcu_plan(ising4_rescaled(), pad_equal_weights=True)
        naive = naive_select_gate_count(plan)
        compiled = count_two_qubit_gates(multiplexor_compile(plan))
        assert compiled <= 44
        assert 100.0 * (1.0 - compiled / naive) >= 60.0
        assert naive >= 100  # documented baseline near 125

    @pytest.mark.parametrize("h, pad, a, two_qubit", [
        (ISING3, False, 4, 122),
        (build_ising_chain(4, 1.0, [0.0, 0.0, 1.0, 0.0], 0.0), True, 3, 42),
        (build_ising_chain(2, 1.0, [0.7, 1.1], 0.3), False, 3, 46),
    ], ids=["ising3", "sparse4-padded", "ising2"])
    def test_encoding_two_qubit_count_pinned(self, h, pad, a, two_qubit):
        enc = build_lcu_circuit(lcu_plan(rescale(h, triangle_bounds(h)).h_tilde, pad))
        assert enc.a == a and enc.epsilon_be < 1e-10
        assert count_two_qubit_gates(decompose(enc.circuit)) == two_qubit

    # ising2 (width 5) is at the fusion block limit, the width-7 encodings above
    # it, where circuit_unitary is fused; encoded_block walks 2^n columns, too
    # few to fuse, so it is the unfused unitary's corner bit for bit
    @pytest.mark.parametrize("h, pad", [
        (build_ising_chain(2, 1.0, [0.7, 1.1], 0.3), False),
        (build_ising_chain(3, 1.0, [0.7, 1.1, 0.9], 0.3), False),
        (build_ising_chain(4, 1.0, [0.0, 0.0, 1.0, 0.0], 0.0), True),
    ], ids=["ising2", "ising3", "sparse4-padded"])
    def test_encoded_block_is_the_unitary_corner(self, h, pad, monkeypatch):
        circuit = build_lcu_circuit(lcu_plan(rescale(h, triangle_bounds(h)).h_tilde, pad)).circuit
        dim = 2**circuit.n_system
        block = encoded_block(circuit)
        assert np.abs(block - circuit_unitary(circuit)[:dim, :dim]).max() < 1e-13
        monkeypatch.setattr(cir, "_FUSE_QUBITS", MAX_DENSE_QUBITS)  # nothing fuses
        assert np.array_equal(block, circuit_unitary(circuit)[:dim, :dim])

    def test_encoded_block_rejects_width_above_dense_cap(self):
        with pytest.raises(DimensionError):
            encoded_block(Circuit(MAX_DENSE_QUBITS - 1, 2))

    def test_single_pauli_trivial(self):
        plan = lcu_plan(PauliSum(2).add(1.0, "XZ"))
        enc = build_lcu_circuit(plan)
        assert enc.a == 0 and enc.epsilon_be < 1e-12
        assert np.allclose(encoded_block(enc.circuit), PauliString("XZ").to_matrix(), atol=1e-12)

    def test_unpadded_scale(self):
        h = PauliSum(1).add(1.0, "X").add(-1.0, "Z")  # c = 2
        plan = lcu_plan(h)
        enc = build_lcu_circuit(plan)
        assert enc.scale == pytest.approx(2.0)
        assert enc.epsilon_be < 1e-10
        assert np.allclose(encoded_block(enc.circuit), h.to_matrix() / 2.0, atol=1e-10)

    def test_nonuniform_prep(self):
        h = PauliSum(2).add(0.9, "XI").add(-0.3, "ZZ").add(0.15, "IY")
        plan = lcu_plan(h)
        enc = build_lcu_circuit(plan)
        assert enc.epsilon_be < 1e-10
        assert np.allclose(encoded_block(enc.circuit), h.to_matrix() / plan.c, atol=1e-10)

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
