"""The qsp_lab benchmark.

    python3 perfbench/run.py --workload lcu_noisy_sim --seed 1 --seconds 45 --trace 0

Run from the repository root.  The workload's problems come from the seed
(``problems.generate``).  After set-up the run solves the whole problem
set again and again for about ``--seconds`` seconds; each pass is timed
and every problem's correctness gates are checked on every pass.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the ``end_to_end`` ones of BENCHMARK.json, measured untraced;
with ``--trace 1`` passes alternate between untraced and traced, the
metrics are the ``per_layer`` ones from the traced passes (per pass, median
over traced passes), and the spans are written to ``perfbench/out/``.
Lines before the last one are a readable report.

Passes repeat identical work.  On a shared host, other tenants slow the
CPU by up to 1.8x: it switches between a fast and a slow speed many times
a second, and the share of time at each drifts over minutes, so a whole
run can be slow.  During untraced passes ``tracing.SpeedSampler`` times a
fixed reference computation (``tracing.reference_seconds``) every 30 ms.
A problem's time in a pass is its wall time, less the samples' own, times
the mean over the samples taken during it of ``tracing.REFERENCE_S`` over
the reference's time: the seconds the problem takes on a host where the
reference computation takes ``REFERENCE_S``.  A problem's time for the
run is the median over the untraced passes; ``solve_s`` is the sum over
the problems, ``problem_p50_s`` and ``problem_tail_s`` the median and 75th
percentile over them.  The report lines give the raw wall times as well.

BLAS and OpenMP run one thread (set here, before numpy loads).  Set-up
time is measured the same way: seven fresh processes each import the
package, generate the problems and solve the warm-up problems; each one's
wall time is divided by the median of the reference times taken just
before and just after it, and ``setup_s`` is the median of those ratios
times ``tracing.REFERENCE_S``.

Known limits: ``QSPPhases.converged`` is always True, so the phase
designer's calls are counted but not its convergence; ``optimize`` with
``restarts=0`` returns None and is never called that way.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
SETUP_REFERENCES = 10  # reference computations on each side of a set-up probe
PROBE_TIMEOUT_S = 120
LAYERS = ("qsp", "circuits", "variational", "lcu", "operators", "bench")

sys.path.insert(0, str(SRC))

import tracing  # noqa: E402 - after the thread settings


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_problems_module():
    """Import the benchmark's problems against this checkout's src/ only."""
    import problems
    import qsp_lab

    if Path(qsp_lab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"qsp_lab was imported from {qsp_lab.__file__}, not from {SRC}")
    return problems


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_seconds(args) -> tuple[float, list[float]]:
    """Set-up seconds at the reference speed, and the probes' wall times.

    Each fresh process that imports, generates and warms up is timed
    between two groups of reference computations.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    ratios, walls = [], []
    for _ in range(SETUP_PROBES):
        refs = [tracing.reference_seconds() for _ in range(SETUP_REFERENCES)]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
        refs += [tracing.reference_seconds() for _ in range(SETUP_REFERENCES)]
        ratios.append(walls[-1] / statistics.median(refs))
    return tracing.REFERENCE_S * statistics.median(ratios), walls


def solve(problem, tracer, problems_mod):
    """Run one problem; a problem that raises counts as failed and the run goes on."""
    tracer.problem = problem.pid
    try:
        with tracer.span("bench.problem"):
            return problem.run(tracer)
    except Exception as exc:  # noqa: BLE001 - recorded, counted, reported
        traceback.print_exc(file=sys.stderr)
        return problems_mod.Outcome(failures=[f"raised {type(exc).__name__}: {exc}"])


def measure(problem_list, seconds, trace, tracers, problems_mod, sampler) -> list[dict]:
    """Solve the problem set until the next pass would end after ``seconds``.

    With tracing, passes alternate untraced, traced, untraced, ... and at
    least one of each runs.  ``sampler`` samples the host speed during the
    untraced passes.  Each pass gets ``walls``, its problems' wall times
    less the sampler's own time, and an untraced pass also ``times``, its
    problems' seconds at the reference speed.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = tracers[traced]
        first_span = len(tracer.spans)
        bounds, outcomes = [], []
        with nullcontext() if traced else sampler:
            for problem in problem_list:
                p0 = time.perf_counter()
                outcomes.append(solve(problem, tracer, problems_mod))
                bounds.append((p0, time.perf_counter()))
        passes.append({"traced": traced, "bounds": bounds, "outcomes": outcomes,
                       "spans": (first_span, len(tracer.spans))})
        elapsed = time.perf_counter() - start
        if trace and len(passes) < 2:
            continue
        if elapsed + elapsed / len(passes) > seconds:
            break
    for p in passes:
        if p["traced"]:
            p["walls"] = [t1 - t0 for t0, t1 in p["bounds"]]
            continue
        p["times"], handler = zip(*(tracing.reference_speed_seconds(t0, t1, sampler.samples)
                                    for t0, t1 in p["bounds"]))
        p["walls"] = [t1 - t0 - h for (t0, t1), h in zip(p["bounds"], handler)]
    return passes


def problem_times(passes) -> list[float]:
    """Each problem's median seconds at the reference speed over the untraced passes."""
    return [statistics.median(col) for col in zip(*(p["times"] for p in passes if not p["traced"]))]


def work_wall(p) -> float:
    """A pass's wall time without the sampler's."""
    return sum(p["walls"])


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def accuracy(outcomes) -> dict:
    """Deterministic outputs of one pass."""
    return {
        "epsilon_poly_mean": mean(e for o in outcomes for e in o.epsilon_poly),
        "two_qubit_gates": sum(o.two_qubit for o in outcomes),
        "encoding_two_qubit": sum(o.encoding_two_qubit for o in outcomes),
        "infidelity_mean": mean(x for o in outcomes for x in o.infidelity),
        "success_prob_mean": mean(x for o in outcomes for x in o.success_prob),
        "epsilon_be_mean": mean(x for o in outcomes for x in o.epsilon_be),
    }


def report(passes) -> dict:
    """Readable figures of the run: pass walls, problem times, accuracy outputs."""
    return {"pass_walls": [work_wall(p) for p in passes],
            "problem_times": problem_times(passes),
            **accuracy(passes[0]["outcomes"])}


def end_to_end(passes, setup_s) -> dict:
    times = problem_times(passes)
    return {
        "setup_s": setup_s,
        "solve_s": sum(times),
        "problem_p50_s": statistics.median(times),
        # A pass has 4 or 7 problems, too few to leave 10 beyond any
        # percentile; the upper quartile is the tail every workload has.
        "problem_tail_s": statistics.quantiles(times, n=4, method="inclusive")[2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "epsilon_poly_mean": accuracy(passes[0]["outcomes"])["epsilon_poly_mean"],
    }


def layer_values(p, tracer) -> dict:
    """Per-layer figures of one traced pass.

    ``<layer>.<stage>_s`` is the self time of that stage's spans in the
    pass, except ``variational.cost_and_gradient_s`` and
    ``variational.hessian_s``, which are per call; ``share.<layer>`` is the
    layer's self time over the pass wall time.
    """
    own = tracer.self_times(*p["spans"])
    calls: dict[str, int] = {}
    for s in tracer.spans[slice(*p["spans"])]:
        calls[s[0]] = calls.get(s[0], 0) + 1
    outcomes = p["outcomes"]

    def t(name):
        return own.get(name, 0.0)

    def per_call(name):
        return t(name) / calls[name] if calls.get(name) else 0.0

    simulate = t("circuits.simulate_per_gate") + t("circuits.simulate_global")
    evals = sum(o.evals for o in outcomes)
    optimizations = sum(o.optimizations for o in outcomes)
    acc = accuracy(outcomes)
    out = {
        "qsp.phases_s": t("qsp.phases"),
        "qsp.calls": calls.get("qsp.phases", 0),
        "qsp.validate_s": t("qsp.validate"),
        "circuits.simulate_per_gate_s": t("circuits.simulate_per_gate"),
        "circuits.simulate_global_s": t("circuits.simulate_global"),
        "circuits.gates_per_s": sum(o.simulated_gates for o in outcomes) / simulate if simulate else 0.0,
        "circuits.decompose_s": t("circuits.decompose"),
        "circuits.unitary_s": t("circuits.unitary"),
        "circuits.statevector_s": t("circuits.statevector"),
        "circuits.readout_s": t("circuits.readout"),
        "circuits.two_qubit_gates": acc["two_qubit_gates"],
        "circuits.infidelity_mean": acc["infidelity_mean"],
        "circuits.success_prob_mean": acc["success_prob_mean"],
        "variational.optimize_s": t("variational.optimize"),
        "variational.evals": evals,
        "variational.eval_s": t("variational.optimize") / evals if evals else 0.0,
        "variational.cost_and_gradient_s": per_call("variational.cost_and_gradient"),
        "variational.hessian_s": per_call("variational.hessian"),
        "variational.converged_frac": (
            sum(o.converged for o in outcomes) / optimizations if optimizations else 0.0
        ),
        "variational.epsilon_be_mean": acc["epsilon_be_mean"],
        "lcu.encode_s": t("lcu.encode"),
        "lcu.two_qubit": acc["encoding_two_qubit"],
        "operators.rescale_s": t("operators.rescale"),
        "operators.propagator_s": t("operators.propagator"),
        "bench.assemble_s": t("bench.assemble"),
        "bench.check_s": t("bench.check"),
    }
    for layer in LAYERS:
        self_s = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_s"] = self_s
        out[f"share.{layer}"] = self_s / work_wall(p)
    return out


def per_layer(passes, tracer) -> dict:
    traced = [layer_values(p, tracer) for p in passes if p["traced"]]
    values = {k: statistics.median(v[k] for v in traced) for k in traced[0]}
    values["trace.overhead_s"] = (
        min(work_wall(p) for p in passes if p["traced"]) - min(work_wall(p) for p in passes if not p["traced"])
    )
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        problems_mod = load_problems_module()
    except ImportError as exc:
        print(f"cannot import the qsp_lab sources under {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in problems_mod.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {problems_mod.WORKLOADS}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    problem_list = problems_mod.generate(args.workload, args.seed)
    warm = tracing.Tracer(False)
    for problem in problems_mod.warmup(args.workload):
        outcome = solve(problem, warm, problems_mod)
        if outcome.failures:
            print(f"warm-up problem {problem.pid} failed: {outcome.failures}", file=sys.stderr)
            return 3
    if args.setup_only:
        return 0
    setup_s, setup_walls = (None, None) if args.trace else setup_seconds(args)

    tracers = {False: tracing.Tracer(False), True: tracing.Tracer(True)}
    passes = measure(problem_list, args.seconds, bool(args.trace), tracers, problems_mod, tracing.SpeedSampler())

    failures = [(p["traced"], pr.pid, o.failures)
                for p in passes for pr, o in zip(problem_list, p["outcomes"]) if o.failures]
    attempted = sum(len(p["outcomes"]) for p in passes)
    env = environment()
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} problems/pass {len(problem_list)} "
          f"passes {len(passes)} attempted {attempted} failed {len(failures)} "
          f"fail_frac {len(failures) / attempted}")
    for traced, pid, msgs in failures:
        print(f"FAILED {pid} (traced={traced}): {'; '.join(msgs)}")

    for k, v in report(passes).items():
        print(f"  {k} = {v}")
    if setup_walls:
        print(f"  setup_walls = {setup_walls}")
    if args.trace:
        values = per_layer(passes, tracers[True])
        spec = declared["per_layer"]
        out_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracers[True].dump(out_path, env)
        print(f"spans written to {out_path.relative_to(ROOT)}")
    else:
        values = end_to_end(passes, setup_s)
        spec = declared["end_to_end"]
    undeclared = set(values) - {m["name"] for m in spec}
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
