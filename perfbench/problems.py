"""Seeded problems for the qsp_lab benchmark and the pipeline that solves them.

``generate(workload, seed)`` returns one pass of problems.  Every problem
has ``run(tracer) -> Outcome``; the outcome carries the numbers the
benchmark reports and the list of correctness gates that failed.  All calls
into qsp_lab go through the tracer so a traced run can attribute time to
the modules ``operators``, ``lcu``, ``qsp``, ``variational`` and
``circuits``; ``bench.*`` spans are this file's own work.

The package has no function that assembles a QSP circuit, so
``qsp_circuit`` builds prod_k APHASE(phi_k) W from public pieces.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from qsp_lab import circuits, lcu, operators, qsp, variational

WORKLOADS = ("lcu_noisy_sim", "variational_encode")
TOL = 1e-10

LCU_DEGREES = (2, 4)
LCU_TIME = 1.0  # evolution time of the rescaled Hamiltonian
PER_GATE_P = (1e-4, 1e-3)  # each problem simulates one; each chain and each degree meets both
GLOBAL_P = 1e-3
SHOTS = 1000

VAR_TARGETS = 3
VAR_LAYERS = (2, 3)
VAR_ANCILLAS = 2
VAR_MAX_ITERS = 50
VAR_DEGREE = 2
NEWTON_SPEC = (2, 1, 1)  # (n, a, layers): small enough for a dense Hessian per step
NEWTON_MAX_ITERS = 3


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    epsilon_poly: list[float] = field(default_factory=list)
    infidelity: list[float] = field(default_factory=list)
    success_prob: list[float] = field(default_factory=list)
    two_qubit: int = 0  # assembled QSP circuits
    encoding_two_qubit: int = 0  # one application of the LCU encoding
    simulated_gates: int = 0  # gates applied by apply_density
    epsilon_be: list[float] = field(default_factory=list)
    evals: int = 0
    optimizations: int = 0
    converged: int = 0

    def gate(self, name: str, ok: bool, value=None) -> None:
        if not ok:
            self.failures.append(f"{name}: {value}")


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def ising3(rng: np.random.Generator) -> operators.PauliSum:
    """3-site chain with a nonzero longitudinal field: 9 LCU terms, a = 4."""
    return operators.build_ising_chain(
        3, rng.uniform(0.8, 1.2), list(rng.uniform(0.5, 1.5, 3)), rng.uniform(0.2, 0.4)
    )


def sparse4(rng: np.random.Generator) -> operators.PauliSum:
    """4-site chain with one transverse field of the coupling's size: padded LCU, a = 3."""
    fields = [0.0] * 4
    fields[int(rng.integers(4))] = 1.0
    return operators.build_ising_chain(4, 1.0, fields, 0.0)


def generate(workload: str, seed: int) -> list:
    """One pass of problems; the same (workload, seed) gives the same problems."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "lcu_noisy_sim":
        chains = [("ising3", ising3(rng), False), ("sparse4", sparse4(rng), True)]
        return [
            LCUProblem(f"{name}-d{d}", h, pad, d, PER_GATE_P[(i + j) % 2],
                       int(rng.integers(h.n)), int(rng.integers(2**31)))
            for i, (name, h, pad) in enumerate(chains)
            for j, d in enumerate(LCU_DEGREES)
        ]
    if workload == "variational_encode":
        out = []
        for k in range(VAR_TARGETS):
            h = ising3(rng)
            for layers in VAR_LAYERS:
                out.append(VariationalProblem(f"target{k}-L{layers}", h, layers, int(rng.integers(2**31))))
        n, _, _ = NEWTON_SPEC
        h2 = operators.build_ising_chain(n, rng.uniform(0.8, 1.2), list(rng.uniform(0.5, 1.5, n)), 0.3)
        out.append(NewtonProblem("newton", h2, int(rng.integers(2**31))))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str) -> list:
    """Small problems on the workload's code paths, solved once before timing."""
    h2 = operators.build_ising_chain(2, 1.0, [0.7, 1.1], 0.3)
    if workload == "lcu_noisy_sim":
        return [LCUProblem("warmup", h2, False, 2, PER_GATE_P[0], 0, 0)]
    if workload == "variational_encode":
        return [VariationalProblem("warmup", h2, 1, 0, max_iters=3), NewtonProblem("warmup-newton", h2, 0)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# QSP composition and its reference
# ---------------------------------------------------------------------------

def qsp_circuit(encoding: circuits.Circuit, phases) -> circuits.Circuit:
    """prod_k APHASE(phi_k) W: in application order W, APHASE(phi_{d-1}), ..., W, APHASE(phi_0)."""
    out = circuits.Circuit(encoding.n_system, encoding.n_ancilla)
    for phi in reversed(phases):
        out.extend(encoding.gates)
        out.append(circuits.aphase(float(phi)))
    return out


def polynomial_of_block(block: np.ndarray, phases: qsp.QSPPhases, tr) -> np.ndarray:
    """f(B) through the eigendecomposition of the Hermitian part of B."""
    lam, vecs = np.linalg.eigh((block + block.conj().T) / 2.0)
    f = np.array([
        tr.call("qsp.scalar", qsp.qsp_scalar_unitary, float(np.clip(x, -1.0, 1.0)), phases)[0, 0]
        for x in lam
    ])
    return (vecs * f) @ vecs.conj().T


def _design(d: int, t_tilde: float, interval, tr, out: Outcome) -> qsp.QSPPhases:
    phases = tr.call("qsp.phases", qsp.optimize_phases, d, t_tilde, interval)
    report = tr.call("qsp.validate", qsp.validate_qsp_polynomial, phases)
    out.gate("parity_ok", report["parity_ok"], report["parity_error"])
    out.gate("bounded_ok", report["bounded_ok"], report["max_abs_f"])
    out.epsilon_poly.append(phases.epsilon_poly)
    return phases


def _rescaled(h: operators.PauliSum, tr) -> operators.RescaledHamiltonian:
    bounds = tr.call("operators.rescale", operators.triangle_bounds, h)
    return tr.call("operators.rescale", operators.rescale, h, bounds)


def _assemble_and_check(encoding: circuits.Circuit, phases: qsp.QSPPhases, tr, out: Outcome) -> circuits.Circuit:
    """Compose, decompose and count the QSP circuit; gate W^2 = I and block = f(B)."""
    with tr.span("bench.assemble"):
        composed = qsp_circuit(encoding, phases.phases)
    native = tr.call("circuits.decompose", circuits.decompose, composed)
    out.two_qubit += tr.call("circuits.count", circuits.count_two_qubit_gates, native)
    dim = 2**encoding.n_system
    with tr.span("bench.check"):
        w = tr.call("circuits.unitary", circuits.circuit_unitary, encoding)
        defect = float(np.linalg.norm(w @ w - np.eye(w.shape[0])))
        out.gate("W^2 = I", defect <= TOL, defect)
        u = tr.call("circuits.unitary", circuits.circuit_unitary, native)
        err = float(np.linalg.norm(u[:dim, :dim] - polynomial_of_block(w[:dim, :dim], phases, tr)))
        out.gate("block = f(B)", err <= TOL, err)
    return native


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LCUProblem:
    """Exact LCU encoding, QSP at one degree, noisy density simulation and readout."""

    pid: str
    hamiltonian: operators.PauliSum
    pad: bool
    degree: int
    per_gate_p: float
    observed_site: int
    sample_seed: int

    def run(self, tr) -> Outcome:
        out = Outcome()
        h = self.hamiltonian
        resc = _rescaled(h, tr)
        plan = tr.call("lcu.encode", lcu.lcu_plan, resc.h_tilde, self.pad)
        enc = tr.call("lcu.encode", lcu.build_lcu_circuit, plan)
        out.gate("LCU epsilon_be", enc.epsilon_be <= TOL, enc.epsilon_be)
        w_native = tr.call("circuits.decompose", circuits.decompose, enc.circuit)
        out.encoding_two_qubit = tr.call("circuits.count", circuits.count_two_qubit_gates, w_native)
        interval = (resc.interval_a / enc.scale, resc.interval_b / enc.scale)
        phases = _design(self.degree, LCU_TIME * enc.scale, interval, tr, out)
        native = _assemble_and_check(enc.circuit, phases, tr, out)

        target = resc.h_tilde.scaled(1.0 / enc.scale)
        psi0 = tr.call("circuits.prepare", circuits.plus_state, h.n)
        psi_exact = tr.call("operators.propagator", operators.exact_propagator, target, phases.t_tilde) @ psi0
        rho0 = tr.call(
            "circuits.prepare", circuits.density_from_state,
            tr.call("circuits.prepare", circuits.with_ancilla_zero, psi0, enc.a),
        )
        observable = operators.PauliString.single(h.n, self.observed_site, "Z")
        noises = [(self.per_gate_p, "per_gate_depolarizing"), (GLOBAL_P, "global_depolarizing")]
        for p, mode in noises:
            stage = "circuits.simulate_per_gate" if mode == "per_gate_depolarizing" else "circuits.simulate_global"
            rho = tr.call(stage, circuits.apply_density, native, rho0, circuits.NoiseModel(p, mode))
            out.simulated_gates += len(native)
            with tr.span("bench.check"):
                _check_density(rho, out)
            counts = tr.call(
                "circuits.readout", circuits.sample_pauli_measurement,
                rho, observable, SHOTS, self.sample_seed, enc.a,
            )
            out.gate("shot total", sum(counts.values()) == SHOTS, sum(counts.values()))
            _postselected_readout(rho[: 2**h.n, : 2**h.n], psi_exact, out)
        return out


def _check_density(rho: np.ndarray, out: Outcome) -> None:
    trace_defect = abs(np.trace(rho) - 1.0)
    out.gate("rho trace", trace_defect <= TOL, trace_defect)
    herm = float(np.linalg.norm(rho - rho.conj().T))
    out.gate("rho Hermitian", herm <= TOL, herm)
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    out.gate("rho >= 0", low >= -TOL, low)


def _postselected_readout(rho_sys: np.ndarray, psi_exact: np.ndarray, out: Outcome) -> None:
    """Ancilla-zero success probability and 1 - <psi|rho_post|psi>."""
    p_success = float(np.trace(rho_sys).real)
    out.success_prob.append(p_success)
    out.infidelity.append(1.0 - float((psi_exact.conj() @ rho_sys @ psi_exact).real) / p_success)


@dataclass(frozen=True)
class VariationalProblem:
    """BFGS reflection-ansatz encoding of a 3-site chain, then a noiseless d=2 QSP readout."""

    pid: str
    hamiltonian: operators.PauliSum
    layers: int
    init_seed: int
    max_iters: int = VAR_MAX_ITERS

    def run(self, tr) -> Outcome:
        out = Outcome()
        h = self.hamiltonian
        n, a = h.n, VAR_ANCILLAS
        h_tilde = _rescaled(h, tr).h_tilde
        config = variational.OptimizerConfig(max_iters=self.max_iters, restarts=1, init_seed=self.init_seed)
        result = tr.call("variational.optimize", variational.optimize, h_tilde, n, a, self.layers, config)
        _count_optimization(result, out)
        spec = variational.AnsatzSpec(n, a, self.layers)
        f, _ = tr.call("variational.cost_and_gradient", variational.cost_and_gradient, result.theta, h_tilde, spec)
        eps = tr.call("variational.epsilon_be", variational.epsilon_be_from_cost, f, h_tilde)
        out.gate("epsilon_be reported", abs(eps - result.epsilon_be) <= 1e-8, eps - result.epsilon_be)
        out.epsilon_be.append(eps)
        ansatz = tr.call("variational.build_ansatz", variational.build_ansatz, n, a, self.layers, result.theta)

        phases = _design(VAR_DEGREE, LCU_TIME, (0.0, 1.0), tr, out)
        native = _assemble_and_check(ansatz, phases, tr, out)
        psi0 = tr.call("circuits.prepare", circuits.plus_state, n)
        psi = tr.call(
            "circuits.statevector", circuits.apply_statevector, native,
            tr.call("circuits.prepare", circuits.with_ancilla_zero, psi0, a),
        )
        psi_exact = tr.call("operators.propagator", operators.exact_propagator, h_tilde, phases.t_tilde) @ psi0
        sys_part = psi[: 2**n]
        _postselected_readout(np.outer(sys_part, sys_part.conj()), psi_exact, out)
        return out


@dataclass(frozen=True)
class NewtonProblem:
    """A few Newton steps on a small ansatz, so the dense Hessian runs every pass."""

    pid: str
    hamiltonian: operators.PauliSum
    init_seed: int

    def run(self, tr) -> Outcome:
        out = Outcome()
        n, a, layers = NEWTON_SPEC
        h_tilde = _rescaled(self.hamiltonian, tr).h_tilde
        config = variational.OptimizerConfig(
            method="newton", max_iters=NEWTON_MAX_ITERS, restarts=1, init_seed=self.init_seed
        )
        result = tr.call("variational.optimize", variational.optimize, h_tilde, n, a, layers, config)
        _count_optimization(result, out)
        spec = variational.AnsatzSpec(n, a, layers)
        hess = tr.call("variational.hessian", variational.hessian, result.theta, h_tilde, spec)
        out.gate("Hessian finite", bool(np.all(np.isfinite(hess))), hess.shape)
        return out


def _count_optimization(result: variational.OptimizeResult, out: Outcome) -> None:
    out.optimizations += 1
    out.evals += len(result.trace)
    out.converged += int(result.converged)
    out.gate("epsilon_be finite", bool(np.isfinite(result.epsilon_be)), result.epsilon_be)
