import dataclasses
import tracemalloc

import numpy as np
import pytest

from qsp_lab.circuits import Circuit, circuit_unitary, count_two_qubit_gates, cz
from qsp_lab.lcu import encoded_block
from qsp_lab import variational
from qsp_lab.errors import MAX_DENSE_QUBITS, DimensionError, OptimizationError
from qsp_lab.operators import PauliString, build_ising_chain, rescale, triangle_bounds
from qsp_lab.variational import (
    AnsatzSpec,
    OptimizerConfig,
    _czbar_diagonal,
    _generator_table,
    _v_gate_sequence,
    ansatz_block,
    build_ansatz,
    cost,
    cost_and_gradient,
    epsilon_be_from_cost,
    hessian,
    layer_sweep,
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
    pytest.param(lambda th: cost(th, SMALL_H, SMALL), id="cost"),
    pytest.param(lambda th: cost_and_gradient(th, SMALL_H, SMALL), id="cost_and_gradient"),
    pytest.param(lambda th: hessian(th, SMALL_H, SMALL), id="hessian"),
    pytest.param(lambda th: ansatz_block(SMALL, th), id="ansatz_block"),
    pytest.param(lambda th: optimize(SMALL_H, SMALL.n, SMALL.a, SMALL.layers, OptimizerConfig(restarts=1), [th]),
                 id="optimize-warm-start"),
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
        spec = AnsatzSpec(3, 2, 3)
        assert spec.rzz_per_application == 28
        c = build_ansatz(3, 2, 3, np.zeros(spec.n_parameters))
        assert count_two_qubit_gates(c) == 28

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

    @pytest.mark.parametrize("angle", [float("nan"), np.inf, -np.inf])
    @pytest.mark.parametrize("call", THETA_ENTRY_POINTS)
    def test_non_finite_theta_every_entry_point(self, call, angle, monkeypatch):
        calls = []
        inner = variational.cost_and_gradient
        monkeypatch.setattr(variational, "cost_and_gradient", lambda *args: calls.append(1) or inner(*args))
        theta = np.zeros(SMALL.n_parameters)
        theta[3] = angle
        with pytest.raises(ValueError, match=ANGLES_RULE):
            call(theta)
        assert not calls  # optimize rejects the warm start before any evaluation

    @pytest.mark.parametrize("bad", BAD_SIZES + BAD_TARGETS)
    @pytest.mark.parametrize(
        "call",
        [
            lambda h: cost(np.zeros(SMALL.n_parameters), h, SMALL),
            lambda h: cost_and_gradient(np.zeros(SMALL.n_parameters), h, SMALL),
            lambda h: hessian(np.zeros(SMALL.n_parameters), h, SMALL),
            lambda h: optimize(h, SMALL.n, SMALL.a, SMALL.layers, OptimizerConfig(restarts=1, max_iters=2)),
        ],
        ids=["cost", "cost_and_gradient", "hessian", "optimize"],
    )
    def test_bad_target_every_entry_point(self, call, bad):
        with pytest.raises(ValueError):
            call(bad)

    @pytest.mark.parametrize("bad", BAD_TARGETS)
    def test_bad_target_epsilon_be_from_cost(self, bad):
        with pytest.raises(ValueError):
            epsilon_be_from_cost(0.0, bad)

    @pytest.mark.parametrize("n, a, layers", [(1, 0, 1), (1, 1, 1), (2, 1, 2), (3, 2, 1), (2, 2, 2)] + COLUMN_WALK_EDGES)
    def test_circuit_matches_dense_block(self, n, a, layers):
        # the dense walk's rotation identity against the circuit gate table
        spec = AnsatzSpec(n, a, layers)
        theta = np.random.default_rng(3).uniform(-np.pi, np.pi, spec.n_parameters)
        blk_dense = ansatz_block(spec, theta)
        blk_circ = encoded_block(build_ansatz(n, a, layers, theta))
        assert np.abs(blk_dense - blk_circ).max() < 1e-10


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
            blk = ansatz_block(spec, theta)
            brute = np.trace(blk.conj().T @ blk).real - 2 * np.trace(h @ blk).real
            assert cost(theta, h, spec) == pytest.approx(brute, abs=1e-9)

    def test_frobenius_identity(self):
        # eps^2 from the cost identity equals the direct Frobenius norm
        rng = np.random.default_rng(5)
        spec = AnsatzSpec(2, 1, 2)
        hs = build_ising_chain(2, 0.3, [0.2, -0.1], 0.15).to_matrix()
        for _ in range(5):
            theta = rng.uniform(-1, 1, spec.n_parameters)
            eps = epsilon_be_from_cost(cost(theta, hs, spec), hs)
            direct = np.linalg.norm(ansatz_block(spec, theta) - hs)
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
                fd[i] = (cost(theta + e, SMALL_H, SMALL) - cost(theta - e, SMALL_H, SMALL)) / 2e-5
            assert np.abs(g - fd).max() < 1e-6

    def test_gradient_single_parameter_closed_form(self):
        # n=a=L=1 with only the first RX angle nonzero: compare against a
        # symbolic derivative of the 2x2 block entries.
        spec = SMALL
        h = np.array([[0.2, 0.0], [0.0, -0.1]], dtype=complex)

        def f_scalar(t0):
            theta = np.zeros(spec.n_parameters)
            theta[0] = t0
            return cost(theta, h, spec)

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
            epsilon_be_from_cost(cost(rng.uniform(-np.pi, np.pi, spec.n_parameters), h, spec), h)
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


class TestLayerSweep:
    def test_monotone_in_layers(self):
        ht = ising3_rescaled()
        results = layer_sweep(ht, a=2, layer_range=range(1, 5),
                              config=OptimizerConfig(restarts=2, init_seed=21))
        eps = [results[layer].epsilon_be for layer in range(1, 5)]
        for lo, hi in zip(eps[1:], eps[:-1]):
            assert lo <= hi + 1e-3

    def test_skipped_depth_is_warm_started(self):
        # the 2-site chain on a = 1: L = 3 starts from L = 1's optimum padded
        # with two zero-angle layers, so it can only do better
        h = build_ising_chain(2, 1.0, [0.7, 1.1], 0.3)
        ht = rescale(h, triangle_bounds(h), 0.0, 1.0).h_tilde
        results = layer_sweep(ht, a=1, layer_range=[1, 3], config=OptimizerConfig(restarts=1, max_iters=30))
        assert results.keys() == {1, 3}
        assert results[3].epsilon_be <= results[1].epsilon_be + 1e-12

    @pytest.mark.parametrize("layer_range", [[2, 1], [1, 1]])
    def test_layer_range_not_increasing_rejected(self, layer_range):
        with pytest.raises(ValueError, match="layer_range"):
            layer_sweep(ising3_rescaled(), a=1, layer_range=layer_range)


class TestConfigValidation:
    def test_negative_restarts_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=-1)

    def test_max_iters_below_one_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)

    @pytest.mark.parametrize("field, value", [
        ("restarts", 1.5), ("restarts", "2"), ("init_seed", 1.5), ("init_seed", -1), ("init_seed", None),
        ("max_iters", 2.5), ("max_iters", 10.0),
    ])
    def test_non_integer_or_negative_config_rejected(self, field, value):
        with pytest.raises(ValueError):
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

    def test_zero_restarts_with_warm_start(self):
        theta0 = np.zeros(SMALL.n_parameters)
        res = optimize(SMALL_H, SMALL.n, SMALL.a, SMALL.layers, OptimizerConfig(restarts=0, max_iters=5), [theta0])
        assert res is not None
        assert res.trace[0] == cost(theta0, SMALL_H, SMALL)  # the first evaluation is the warm start

    def test_trace_lists_the_cost_of_every_evaluation(self, monkeypatch):
        seen = []
        inner = variational.cost_and_gradient

        def recording(theta, h, spec):
            f, g = inner(theta, h, spec)
            seen.append(f)
            return f, g

        monkeypatch.setattr(variational, "cost_and_gradient", recording)
        res = optimize(SMALL_H, SMALL.n, SMALL.a, SMALL.layers, OptimizerConfig(restarts=1, max_iters=20, init_seed=3))
        assert res.trace == seen and len(seen) > 1
        assert res.epsilon_be in [epsilon_be_from_cost(f, SMALL_H) for f in seen]

    def test_evals_counts_every_start(self, monkeypatch):
        calls = []
        inner = variational.cost_and_gradient

        def counting(theta, h, spec):
            calls.append(1)
            return inner(theta, h, spec)

        monkeypatch.setattr(variational, "cost_and_gradient", counting)
        res = optimize(SMALL_H, SMALL.n, SMALL.a, SMALL.layers, OptimizerConfig(restarts=4, max_iters=20, init_seed=11))
        assert res.evals == len(calls)
        assert len(res.trace) < res.evals  # the trace is the winning start's alone

    def test_non_finite_cost_raises(self, monkeypatch):
        inner = variational.cost_and_gradient

        def poisoned(theta, h, spec):
            f, g = inner(theta, h, spec)
            return np.nan, g

        monkeypatch.setattr(variational, "cost_and_gradient", poisoned)
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
    @pytest.mark.parametrize("n, a, layers", [(2, 1, 1), (3, 2, 1)])
    def test_matches_shift_rule(self, n, a, layers):
        spec = AnsatzSpec(n, a, layers)
        h = ising3_rescaled().to_matrix() if n == 3 else build_ising_chain(2, 0.3, [0.2, -0.1], 0.15).to_matrix()
        theta = np.random.default_rng(30 + n).uniform(-np.pi, np.pi, spec.n_parameters)
        hm = hessian(theta, h, spec)
        assert np.array_equal(hm, hm.T)
        assert np.abs(hm - shift_rule_hessian(theta, h, spec)).max() < 1e-10


def test_czbar_diagonal_matches_cz_ladder():
    for width in range(1, 6):
        ladder = Circuit(width).extend(cz(q, q + 1) for q in range(width - 1))
        assert np.array_equal(_czbar_diagonal(width), np.diag(circuit_unitary(ladder)).real)


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
            out[k] += c * cost(theta + step, h, spec)
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

    def test_cost_is_the_same_bits(self):
        spec = AnsatzSpec(3, 2, 2)
        h = ising3_rescaled().to_matrix()
        rng = np.random.default_rng(44)
        for _ in range(3):
            theta = rng.uniform(-np.pi, np.pi, spec.n_parameters)
            assert cost_and_gradient(theta, h, spec)[0] == cost(theta, h, spec)


@pytest.mark.parametrize("n, a", [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2)])
def test_generator_table_matches_pauli_matrices(n, a):
    # every table row, applied as the walk applies it, against the dense
    # Pauli string of that gate's generator times M; both are exact
    spec = AnsatzSpec(n, a, 1)
    w = spec.width
    rng = np.random.default_rng(50 + w)
    m = rng.normal(size=(2**w, 2**w)) + 1j * rng.normal(size=(2**w, 2**w))
    gates = _v_gate_sequence(spec, np.zeros(spec.n_parameters))
    table = _generator_table(spec)
    assert len(table) == len(gates)
    for g, (flips, action) in zip(gates, table):
        letters = ["I"] * w
        for q in g.qubits:
            letters[q] = "X" if g.kind == "RX" else "Z"
        expect = PauliString("".join(letters)).to_matrix() @ m
        assert np.array_equal(m[action] if flips else action * m, expect)
