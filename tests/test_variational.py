import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from qsp_lab.circuits import Circuit, circuit_unitary, count_two_qubit_gates, cz
from qsp_lab.lcu import encoded_block
from qsp_lab import variational
from qsp_lab.errors import MAX_DENSE_QUBITS, DimensionError, OptimizationError
from qsp_lab.operators import build_ising_chain, rescale, triangle_bounds
from qsp_lab.variational import (
    AnsatzSpec,
    OptimizerConfig,
    _czbar_diagonal,
    build_ansatz,
    cost_and_gradient,
    epsilon_be_from_cost,
    hessian,
    optimize,
    variational_block_encoding,
)


def ising3_rescaled():
    h = build_ising_chain(3, 1.0, [-1.05] * 3, 0.5)
    return rescale(h, triangle_bounds(h), 0.0, 1.0).h_tilde


SMALL = AnsatzSpec(n=1, a=1, layers=1)
# shapes where the column walk could go wrong: width 1, whose ladders hold no
# RZZ; no ladder at all; and widths 6 and 7, two runs of qubits of which the
# second does not lead
COLUMN_WALK_EDGES = [(1, 0, 0), (1, 0, 2), (2, 1, 0), (2, 4, 1), (3, 4, 1)]
SMALL_H = build_ising_chain(1, 1.0, [0.4], 0.2).to_matrix() / 2.0
# targets of the wrong size for SMALL's n = 1; a 1x1 one would broadcast
# against the 2x2 block
BAD_SIZES = [pytest.param(np.array([[0.3]]), id="1x1"), pytest.param(np.eye(4) / 4, id="4x4")]
# every entry point that takes theta, and the one message of errors.angles they raise
THETA_ENTRY_POINTS = [
    pytest.param(lambda th: build_ansatz(SMALL.n, SMALL.a, SMALL.layers, th), id="build_ansatz"),
    pytest.param(lambda th: cost_and_gradient(th, SMALL_H, SMALL), id="cost_and_gradient"),
    pytest.param(lambda th: hessian(th, SMALL_H, SMALL), id="hessian"),
]
ANGLES_RULE = f"^theta must hold {SMALL.n_parameters} finite angles"
# targets no entry point takes
BAD_TARGETS = [
    pytest.param(np.zeros((2, 4)), id="non-square"),
    pytest.param(np.zeros(2), id="vector"),
    pytest.param(SMALL_H + np.array([[0, 1e-6], [0, 0]]), id="asymmetric"),
    pytest.param(SMALL_H + np.array([[0, 1e-6j], [0, 0]]), id="imaginary"),
    pytest.param(SMALL_H + np.array([[np.nan, 0], [0, 0]]), id="nan"),
    pytest.param(SMALL_H + np.array([[0, np.inf], [0, 0]]), id="inf"),
]


class TestAnsatz:
    def test_rzz_count_formula(self):
        # n + a - 1 RZZ in each of the L layers of V and of V^dag, and n + a - 1 CZ between them
        for n, a, layers in ((3, 2, 3), (4, 2, 8), (1, 1, 0)):
            c = build_ansatz(n, a, layers, np.zeros(AnsatzSpec(n, a, layers).n_parameters))
            assert count_two_qubit_gates(c) == (n + a - 1) * (2 * layers + 1)

    def test_reflection_property(self):
        rng = np.random.default_rng(2)
        for n, a, layers in ((1, 1, 1), (2, 1, 2), (3, 2, 1)):
            spec = AnsatzSpec(n, a, layers)
            for _ in range(8):
                theta = rng.uniform(-np.pi, np.pi, spec.n_parameters)
                u = circuit_unitary(build_ansatz(n, a, layers, theta))
                assert np.abs(u @ u - np.eye(u.shape[0])).max() < 1e-10

    def test_zero_angles_gives_cz_ladder(self):
        spec = AnsatzSpec(2, 1, 1)
        u = circuit_unitary(build_ansatz(2, 1, 1, np.zeros(spec.n_parameters)))
        # CZ(0,1)CZ(1,2): sign (-1)^(q0 q1) * (-1)^(q1 q2) per basis state
        expect = np.diag([1, 1, 1, -1, 1, 1, -1, 1]).astype(complex)
        assert np.allclose(u, expect, atol=1e-12)

    def test_parameter_count_mismatch(self):
        with pytest.raises(ValueError):
            build_ansatz(2, 1, 1, np.zeros(5))

    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize("call", THETA_ENTRY_POINTS)
    def test_parameter_count_mismatch_every_entry_point(self, call, extra):
        with pytest.raises(ValueError, match=ANGLES_RULE):
            call(np.zeros(SMALL.n_parameters + extra))

    @pytest.mark.parametrize("theta", [
        pytest.param(["0"] * SMALL.n_parameters, id="str"),
        pytest.param([True] * SMALL.n_parameters, id="bool"),
        pytest.param(np.full(SMALL.n_parameters, 0.1j), id="complex"),
    ])
    @pytest.mark.parametrize("call", THETA_ENTRY_POINTS)
    def test_non_real_theta_every_entry_point(self, call, theta):
        with pytest.raises(ValueError, match=ANGLES_RULE):
            call(theta)

    @pytest.mark.parametrize("angle", [float("nan"), np.inf, -np.inf])
    @pytest.mark.parametrize("call", THETA_ENTRY_POINTS)
    def test_non_finite_theta_every_entry_point(self, call, angle):
        theta = np.zeros(SMALL.n_parameters)
        theta[3] = angle
        with pytest.raises(ValueError, match=ANGLES_RULE):
            call(theta)

    @pytest.mark.parametrize("bad", BAD_SIZES + BAD_TARGETS)
    @pytest.mark.parametrize(
        "call",
        [
            lambda h: cost_and_gradient(np.zeros(SMALL.n_parameters), h, SMALL),
            lambda h: hessian(np.zeros(SMALL.n_parameters), h, SMALL),
            lambda h: optimize(h, SMALL.n, SMALL.a, SMALL.layers, OptimizerConfig(restarts=1, max_iters=2)),
        ],
        ids=["cost_and_gradient", "hessian", "optimize"],
    )
    def test_bad_target_every_entry_point(self, call, bad):
        with pytest.raises(ValueError):
            call(bad)

    @pytest.mark.parametrize("bad", BAD_TARGETS)
    def test_bad_target_epsilon_be_from_cost(self, bad):
        with pytest.raises(ValueError):
            epsilon_be_from_cost(0.0, bad)

    @pytest.mark.parametrize("bad", BAD_TARGETS)
    def test_bad_target_variational_block_encoding(self, bad):
        # the wrapper reads n from the target, so only a target no entry point
        # takes is wrong for it whatever its size
        with pytest.raises(ValueError):
            variational_block_encoding(bad, SMALL.a, SMALL.layers, OptimizerConfig(restarts=1, max_iters=2))

    @pytest.mark.parametrize("spec", [
        pytest.param(None, id="none"),
        pytest.param((SMALL.n, SMALL.a, SMALL.layers), id="tuple"),
        pytest.param(dataclasses.asdict(SMALL), id="dict"),
    ])
    def test_wrong_typed_spec_refused(self, spec):
        with pytest.raises(ValueError, match="^spec must be an AnsatzSpec"):
            cost_and_gradient(np.zeros(SMALL.n_parameters), SMALL_H, spec)

    @pytest.mark.parametrize("n, a, layers", [(1, 0, 1), (1, 1, 1), (2, 1, 2), (3, 2, 1), (2, 2, 2)] + COLUMN_WALK_EDGES)
    def test_circuit_matches_dense_block(self, n, a, layers):
        # F of the block walk against the block of the circuit gate table, at
        # H = 0 (||Wblk||^2 alone) and at a random full Hermitian H, whose
        # off-diagonal entries read every entry of Wblk
        spec = AnsatzSpec(n, a, layers)
        rng = np.random.default_rng(3)
        theta = rng.uniform(-np.pi, np.pi, spec.n_parameters)
        blk = encoded_block(build_ansatz(n, a, layers, theta))
        g = rng.normal(size=blk.shape) + 1j * rng.normal(size=blk.shape)
        for h in (np.zeros(blk.shape), (g + g.conj().T) / 4):
            expected = np.vdot(blk, blk).real - 2 * np.trace(h @ blk).real
            assert abs(cost_and_gradient(theta, h, spec)[0] - expected) < 1e-10

    @pytest.mark.parametrize("n, a, layers", [(1, 0, 1), (1, 1, 1), (2, 1, 2), (3, 2, 1), (2, 2, 2)] + COLUMN_WALK_EDGES)
    def test_block_is_a_hermitian_contraction(self, n, a, layers):
        # W = V^dag CZbar V is Hermitian and unitary, so its ancilla-zero block
        # is Hermitian with spectral norm at most 1: the shape of a block
        # encoding of a Hermitian H, for which F's Re Tr(H Wblk) is Tr(H Wblk)
        theta = np.random.default_rng(4).uniform(-np.pi, np.pi, AnsatzSpec(n, a, layers).n_parameters)
        blk = encoded_block(build_ansatz(n, a, layers, theta))
        assert np.abs(blk - blk.conj().T).max() < 1e-12
        assert np.linalg.norm(blk, 2) <= 1.0 + 1e-12


class TestCostAndDerivatives:
    def test_cost_exact_encoding(self):
        # W block equal to H gives F = -Tr(H^2), eps = 0
        h = np.diag([0.25, 0.75]).astype(complex)
        f_at_exact = -np.trace(h @ h).real
        assert epsilon_be_from_cost(f_at_exact, h) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("f", [np.nan, np.inf, -np.inf])
    def test_epsilon_be_from_cost_rejects_non_finite_cost(self, f):
        with pytest.raises(ValueError, match="f_value"):
            epsilon_be_from_cost(f, np.diag([0.25, 0.75]).astype(complex))

    def test_cost_zero_block(self):
        h = np.diag([0.25, 0.75]).astype(complex)
        assert epsilon_be_from_cost(0.0, h) == pytest.approx(np.sqrt(np.trace(h @ h).real))

    def test_cost_matches_brute_force(self):
        rng = np.random.default_rng(4)
        spec = AnsatzSpec(3, 2, 1)
        h = ising3_rescaled().to_matrix()
        for _ in range(3):
            theta = rng.uniform(-1, 1, spec.n_parameters)
            blk = encoded_block(build_ansatz(spec.n, spec.a, spec.layers, theta))
            brute = np.trace(blk.conj().T @ blk).real - 2 * np.trace(h @ blk).real
            assert cost_and_gradient(theta, h, spec)[0] == pytest.approx(brute, abs=1e-9)

    def test_frobenius_identity(self):
        # eps^2 from the cost identity equals the direct Frobenius norm
        rng = np.random.default_rng(5)
        spec = AnsatzSpec(2, 1, 2)
        hs = build_ising_chain(2, 0.3, [0.2, -0.1], 0.15).to_matrix()
        for _ in range(5):
            theta = rng.uniform(-1, 1, spec.n_parameters)
            eps = epsilon_be_from_cost(cost_and_gradient(theta, hs, spec)[0], hs)
            direct = np.linalg.norm(encoded_block(build_ansatz(spec.n, spec.a, spec.layers, theta)) - hs)
            assert eps == pytest.approx(direct, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            theta = rng.uniform(-1.2, 1.2, SMALL.n_parameters)
            _, g = cost_and_gradient(theta, SMALL_H, SMALL)
            fd = np.zeros_like(g)
            for i in range(len(theta)):
                e = np.zeros_like(theta)
                e[i] = 1e-5
                fd[i] = (cost_and_gradient(theta + e, SMALL_H, SMALL)[0]
                         - cost_and_gradient(theta - e, SMALL_H, SMALL)[0]) / 2e-5
            assert np.abs(g - fd).max() < 1e-6

    def test_gradient_single_parameter_closed_form(self):
        # n=a=L=1 with only the first RX angle nonzero: compare against a
        # symbolic derivative of the 2x2 block entries.
        spec = SMALL
        h = np.array([[0.2, 0.0], [0.0, -0.1]], dtype=complex)

        def f_scalar(t0):
            theta = np.zeros(spec.n_parameters)
            theta[0] = t0
            return cost_and_gradient(theta, h, spec)[0]

        t0 = 0.7
        theta = np.zeros(spec.n_parameters)
        theta[0] = t0
        g = cost_and_gradient(theta, h, spec)[1]
        fd = (f_scalar(t0 + 1e-6) - f_scalar(t0 - 1e-6)) / 2e-6
        assert g[0] == pytest.approx(fd, abs=1e-6)

    def test_hessian_symmetric(self):
        theta = np.random.default_rng(7).uniform(-1, 1, SMALL.n_parameters)
        hm = hessian(theta, SMALL_H, SMALL)
        assert np.abs(hm - hm.T).max() < 1e-9

    def test_hessian_matches_fd_gradient(self):
        theta = np.random.default_rng(8).uniform(-0.9, 0.9, SMALL.n_parameters)
        hm = hessian(theta, SMALL_H, SMALL)
        fd = np.zeros_like(hm)
        for i in range(len(theta)):
            e = np.zeros_like(theta)
            e[i] = 1e-5
            gp = cost_and_gradient(theta + e, SMALL_H, SMALL)[1]
            gm = cost_and_gradient(theta - e, SMALL_H, SMALL)[1]
            fd[:, i] = (gp - gm) / 2e-5
        assert np.abs(hm - fd).max() < 1e-5

    def test_hessian_psd_at_minimum(self):
        res = optimize(SMALL_H, 1, 1, 1, OptimizerConfig(restarts=4, init_seed=11))
        hm = hessian(res.theta, SMALL_H, SMALL)
        assert np.linalg.eigvalsh(hm).min() > -1e-6


class TestOptimize:
    def test_reaches_paper_class_error(self):
        ht = ising3_rescaled()
        res = optimize(ht, 3, 2, 3, OptimizerConfig(restarts=4, init_seed=7))
        assert res.epsilon_be <= 2.5e-2

    def test_gradient_norm_at_optimum(self):
        res = optimize(SMALL_H, 1, 1, 1, OptimizerConfig(restarts=4, init_seed=9))
        g = cost_and_gradient(res.theta, SMALL_H, SMALL)[1]
        assert np.linalg.norm(g) < 1e-4

    def test_scaled_identity_near_random_baseline(self):
        rng = np.random.default_rng(10)
        h = 0.3 * np.eye(2, dtype=complex)
        res = optimize(h, 1, 1, 1, OptimizerConfig(restarts=4, init_seed=12))
        spec = SMALL
        baseline = min(
            epsilon_be_from_cost(cost_and_gradient(rng.uniform(-np.pi, np.pi, spec.n_parameters), h, spec)[0], h)
            for _ in range(2000)
        )
        assert res.epsilon_be <= baseline + 1e-3

    def test_newton_runs(self):
        # trust-region Newton on the exact Hessian reaches the optimum BFGS reaches
        cfg = OptimizerConfig(method="newton", max_iters=40, restarts=2, init_seed=5)
        res = optimize(SMALL_H, 1, 1, 1, cfg)
        bfgs = optimize(SMALL_H, 1, 1, 1, dataclasses.replace(cfg, method="bfgs"))
        assert res.converged and bfgs.converged
        assert abs(res.epsilon_be - bfgs.epsilon_be) < 1e-6

    def test_newton_stopped_early_is_not_converged(self, monkeypatch):
        calls = []
        inner = variational.hessian
        monkeypatch.setattr(variational, "hessian", lambda *args: calls.append(1) or inner(*args))
        cfg = OptimizerConfig(method="newton", max_iters=1, restarts=2, init_seed=5)
        assert not optimize(SMALL_H, 1, 1, 1, cfg).converged
        assert calls  # the Newton step reads the exact Hessian

    def test_block_encoding_wrapper(self):
        ht = ising3_rescaled()
        enc, res = variational_block_encoding(ht, a=2, layers=1,
                                              config=OptimizerConfig(restarts=2, init_seed=1))
        assert enc.a == 2
        u = circuit_unitary(enc.circuit)
        assert np.allclose(u @ u, np.eye(u.shape[0]), atol=1e-10)
        direct = np.linalg.norm(encoded_block(enc.circuit) - ht.to_matrix())
        assert direct == pytest.approx(res.epsilon_be, abs=1e-8)

    def test_block_encoding_of_a_dense_target(self):
        ht = ising3_rescaled()
        config = OptimizerConfig(max_iters=20, restarts=1, init_seed=3)
        (enc, res), (dense_enc, dense_res) = (variational_block_encoding(h, 2, 1, config) for h in (ht, ht.to_matrix()))
        assert dense_enc == enc and dense_res.epsilon_be == res.epsilon_be
        assert np.array_equal(dense_res.theta, res.theta)


class TestConfigValidation:
    def test_negative_restarts_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=-1)

    def test_max_iters_below_one_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)

    # restarts = 0 too: optimize runs only its seeded restarts, so a config without one could not run
    @pytest.mark.parametrize("field, value", [
        ("restarts", 1.5), ("restarts", "2"), ("restarts", 0), ("init_seed", 1.5), ("init_seed", -1),
        ("init_seed", None), ("max_iters", 2.5), ("max_iters", 10.0),
    ])
    def test_non_integer_or_negative_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            OptimizerConfig(**{field: value})

    def test_bool_max_iters_rejected(self):
        with pytest.raises(ValueError, match="^max_iters must"):
            OptimizerConfig(max_iters=True)

    def test_numpy_integer_config_accepted(self):
        config = OptimizerConfig(max_iters=np.int64(5), init_seed=np.int32(3), restarts=np.int64(1))
        res = optimize(SMALL_H, SMALL.n, SMALL.a, SMALL.layers, config)
        assert res.evals == len(res.trace) > 0

    def test_config_cannot_be_mutated(self):
        # a config is checked once, when it is built, so nothing may change it afterwards
        config = OptimizerConfig(restarts=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.restarts = -1
        assert config.restarts == 1

    @pytest.mark.parametrize("method", ["sgd", "BFGS", ""])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ValueError):
            OptimizerConfig(method=method)

    @pytest.mark.parametrize("shape", [(1, 1, -1), (0, 0, 1), (1, -1, 1)])
    def test_impossible_ansatz_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            AnsatzSpec(*shape)

    @pytest.mark.parametrize("shape", [(1.5, 1, 1), (1, 1.0, 1), (1, 1, "1"), (2, None, 1)])
    def test_non_integer_ansatz_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            AnsatzSpec(*shape)

    def test_ansatz_above_the_dense_cap_rejected_before_allocating(self):
        # at (10, 3, 1) the gradient's adjoint stack would take about 12 GB and the Hessian's 97 GB
        tracemalloc.start()
        try:
            for build in (lambda: AnsatzSpec(10, 3, 1), lambda: build_ansatz(10, 3, 1, np.zeros(90)),
                          lambda: optimize(SMALL_H, MAX_DENSE_QUBITS, 1, 0)):
                with pytest.raises(DimensionError):
                    build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert AnsatzSpec(MAX_DENSE_QUBITS - 1, 1, 0).width == MAX_DENSE_QUBITS

    def test_numpy_integer_ansatz_shape_accepted(self):
        assert AnsatzSpec(np.int64(1), np.int32(1), np.int64(1)).n_parameters == SMALL.n_parameters

    def test_negative_layers_rejected_by_optimize(self):
        with pytest.raises(ValueError, match="layers"):
            optimize(SMALL_H, SMALL.n, SMALL.a, -1, OptimizerConfig(restarts=1))

    def test_no_starting_point_raises(self):
        with pytest.raises(ValueError):
            optimize(SMALL_H, SMALL.n, SMALL.a, SMALL.layers, OptimizerConfig(restarts=0))

    def test_restart_r_starts_at_its_seeded_draw(self, monkeypatch):
        thetas, firsts = [], []  # every evaluated theta; the index of each restart's first
        inner = variational._cost_and_gradient
        monkeypatch.setattr(variational, "_cost_and_gradient",
                            lambda theta, h, spec: thetas.append(np.copy(theta)) or inner(theta, h, spec))
        minimize = scipy.optimize.minimize
        monkeypatch.setattr(scipy.optimize, "minimize",
                            lambda *args, **kw: firsts.append(len(thetas)) or minimize(*args, **kw))
        optimize(SMALL_H, SMALL.n, SMALL.a, SMALL.layers, OptimizerConfig(restarts=3, max_iters=5, init_seed=4))
        assert len(firsts) == 3
        for r, first in enumerate(firsts):
            assert np.array_equal(thetas[first], np.random.default_rng(4 + r).uniform(-0.1, 0.1, SMALL.n_parameters))

    def test_trace_lists_the_cost_of_every_evaluation(self, monkeypatch):
        seen = []
        inner = variational._cost_and_gradient

        def recording(theta, h, spec):
            f, g = inner(theta, h, spec)
            seen.append(f)
            return f, g

        monkeypatch.setattr(variational, "_cost_and_gradient", recording)
        res = optimize(SMALL_H, SMALL.n, SMALL.a, SMALL.layers, OptimizerConfig(restarts=1, max_iters=20, init_seed=3))
        assert res.trace == seen and len(seen) > 1
        assert res.epsilon_be in [epsilon_be_from_cost(f, SMALL_H) for f in seen]

    def test_evals_counts_every_start(self, monkeypatch):
        calls = []
        inner = variational._cost_and_gradient

        def counting(theta, h, spec):
            calls.append(1)
            return inner(theta, h, spec)

        monkeypatch.setattr(variational, "_cost_and_gradient", counting)
        res = optimize(SMALL_H, SMALL.n, SMALL.a, SMALL.layers, OptimizerConfig(restarts=4, max_iters=20, init_seed=11))
        assert res.evals == len(calls)
        assert len(res.trace) < res.evals  # the trace is the winning start's alone

    def test_non_finite_cost_raises(self, monkeypatch):
        inner = variational._cost_and_gradient

        def poisoned(theta, h, spec):
            f, g = inner(theta, h, spec)
            return np.nan, g

        monkeypatch.setattr(variational, "_cost_and_gradient", poisoned)
        with pytest.raises(OptimizationError):
            optimize(SMALL_H, SMALL.n, SMALL.a, SMALL.layers, OptimizerConfig(restarts=1, max_iters=5))


def shift_rule_hessian(theta, h, spec):
    """Independent Hessian oracle: each gradient entry is a trig polynomial of
    frequency <= 2 in every angle, so the four-point shift rule with shifts
    (2mu-1)pi/4 differentiates it exactly."""
    shifts = (2 * np.arange(1, 5) - 1) * np.pi / 4
    coeffs = (-1.0) ** np.arange(4) / (8 * np.sin(shifts / 2) ** 2)
    out = np.zeros((spec.n_parameters, spec.n_parameters))
    for k in range(spec.n_parameters):
        for s, c in zip(shifts, coeffs):
            step = np.zeros(spec.n_parameters)
            step[k] = s
            out[:, k] += c * cost_and_gradient(theta + step, h, spec)[1]
    return out


class TestHessianOracle:
    @pytest.mark.parametrize("n, a, layers", [(2, 1, 1), (3, 2, 1)] + COLUMN_WALK_EDGES)
    def test_matches_shift_rule(self, n, a, layers):
        spec = AnsatzSpec(n, a, layers)
        h = {1: SMALL_H, 2: build_ising_chain(2, 0.3, [0.2, -0.1], 0.15).to_matrix(), 3: ising3_rescaled().to_matrix()}[n]
        theta = np.random.default_rng(30 + n).uniform(-np.pi, np.pi, spec.n_parameters)
        hm = hessian(theta, h, spec)
        assert np.array_equal(hm, hm.T)
        assert np.abs(hm - shift_rule_hessian(theta, h, spec)).max() < 1e-10


def test_czbar_diagonal_matches_cz_ladder():
    for width in range(1, 6):
        ladder = Circuit(width).extend(cz(q, q + 1) for q in range(width - 1))
        assert np.array_equal(_czbar_diagonal(width), np.diag(circuit_unitary(ladder)).real)


@pytest.mark.parametrize("n, a, layers", [(3, 2, 3)] + COLUMN_WALK_EDGES)
def test_backward_walk_steps_are_adjoint_blocks(n, a, layers):
    # Y_k = B_k^dag Y_k+1, with B_k the dense matrix of the forward block step
    spec = AnsatzSpec(n, a, layers)
    blocks = variational._blocks(spec, np.random.default_rng(40 + n).uniform(-np.pi, np.pi, spec.n_parameters))
    ys = variational._walk(spec, blocks)
    identity = np.eye(2**spec.width, dtype=complex)
    assert np.array_equal(ys[-1], identity[:, : 2**n])
    for k in range(2 * layers + 1):
        b_k = variational._forward(blocks, k, identity)
        assert np.abs(ys[k] - b_k.conj().T @ ys[k + 1]).max() < 1e-12


@pytest.mark.parametrize("n, a, layers", [(2, 4, 1), (3, 4, 1)])
def test_projection_tables_are_pauli_traces(n, a, layers):
    sigmas = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]  # X, Y, Z
    runs = variational._walk_tables(AnsatzSpec(n, a, layers))[-1]
    assert len(runs) == 2
    rng = np.random.default_rng(50 + n)
    for lo, hi, _, flat, phases in runs:
        b = hi - lo
        r = rng.normal(size=(2**b, 2**b)) + 1j * rng.normal(size=(2**b, 2**b))
        for s, sigma in enumerate(sigmas):
            for i in range(b):
                dense = np.kron(np.kron(np.eye(2**i), sigma), np.eye(2 ** (b - 1 - i)))
                assert abs((phases[s, i] * r.flat[flat[s, i]]).sum() - np.trace(dense @ r)) < 1e-12


def shift_rule_gradient(theta, h, spec):
    """Independent gradient oracle: F is a trig polynomial of frequency <= 2
    in every angle, so the four-point shift rule on the cost with shifts
    (2mu-1)pi/4 differentiates it exactly."""
    shifts = (2 * np.arange(1, 5) - 1) * np.pi / 4
    coeffs = (-1.0) ** np.arange(4) / (8 * np.sin(shifts / 2) ** 2)
    out = np.zeros(spec.n_parameters)
    for k in range(spec.n_parameters):
        for s, c in zip(shifts, coeffs):
            step = np.zeros(spec.n_parameters)
            step[k] = s
            out[k] += c * cost_and_gradient(theta + step, h, spec)[0]
    return out


class TestGradientOracle:
    # at a = 0 the adjoint walk's columns are the whole register; (3, 2, 3)
    # is the benchmark's largest shape
    @pytest.mark.parametrize("n, a, layers", [(1, 0, 1), (2, 1, 1), (3, 2, 2), (3, 2, 3)] + COLUMN_WALK_EDGES)
    def test_matches_shift_rule(self, n, a, layers):
        spec = AnsatzSpec(n, a, layers)
        h = {1: SMALL_H, 2: build_ising_chain(2, 0.3, [0.2, -0.1], 0.15).to_matrix(), 3: ising3_rescaled().to_matrix()}[n]
        theta = np.random.default_rng(40 + n).uniform(-np.pi, np.pi, spec.n_parameters)
        _, g = cost_and_gradient(theta, h, spec)
        assert np.abs(g - shift_rule_gradient(theta, h, spec)).max() < 1e-10
