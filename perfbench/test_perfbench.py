"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import problems  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from qsp_lab import circuits, lcu, operators, qsp  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", problems.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = problems.generate(workload, 7)
    assert first == problems.generate(workload, 7)
    assert first != problems.generate(workload, 8)
    assert len({p.pid for p in first}) == len(first)


def test_composition_reproduces_f_of_block_one_site_d2():
    h = operators.PauliSum(1).add(0.6, "X").add(-0.3, "Z")
    resc = operators.rescale(h, operators.triangle_bounds(h))
    enc = lcu.build_lcu_circuit(lcu.lcu_plan(resc.h_tilde))
    phases = qsp.optimize_phases(2, 1.0)
    block = circuits.circuit_unitary(problems.qsp_circuit(enc.circuit, phases.phases))[:2, :2]

    lam, vecs = np.linalg.eigh(resc.h_tilde.to_matrix() / enc.scale)
    f = [qsp.qsp_scalar_unitary(x, phases)[0, 0] for x in lam]
    assert np.linalg.norm(block - (vecs * f) @ vecs.conj().T) <= 1e-10
    reference = problems.polynomial_of_block(lcu.encoded_block(enc.circuit), phases, tracing.Tracer(False))
    assert np.linalg.norm(block - reference) <= 1e-10


def test_self_time_subtracts_children():
    tr = tracing.Tracer(True)
    tr.spans = [
        ["bench.problem", 0.0, 10.0, -1, "p"],
        ["qsp.phases", 1.0, 4.0, 0, "p"],
        ["bench.check", 5.0, 9.0, 0, "p"],
        ["circuits.unitary", 6.0, 8.0, 2, "p"],
    ]
    assert tr.self_times() == {
        "bench.problem": 3.0, "qsp.phases": 3.0, "bench.check": 2.0, "circuits.unitary": 2.0,
    }
    assert tr.self_times(2) == {"bench.check": 2.0, "circuits.unitary": 2.0}


def test_reference_speed_seconds():
    ref = tracing.REFERENCE_S
    # (start, reference seconds, handler seconds): one sample at full speed, one at half
    samples = [(1.0, ref, 0.5), (2.0, 2 * ref, 0.5), (9.0, ref, 0.0)]
    assert tracing.reference_speed_seconds(0.0, 5.0, samples) == pytest.approx(((5.0 - 1.0) * 0.75, 1.0))
    # no sample inside: the nearest one's speed, no handler time
    assert tracing.reference_speed_seconds(3.0, 4.0, samples) == pytest.approx((0.5, 0.0))
    assert tracing.reference_speed_seconds(7.5, 8.0, samples) == pytest.approx((0.5, 0.0))


def test_problem_times_are_medians_over_untraced_passes():
    passes = [{"traced": False, "times": (1.0, 5.0)}, {"traced": True},
              {"traced": False, "times": (3.0, 4.0)}, {"traced": False, "times": (2.0, 9.0)}]
    assert run.problem_times(passes) == [2.0, 5.0]


def test_speed_sampler_samples_while_entered():
    sampler = tracing.SpeedSampler(interval=0.005, reference=lambda: 0.001)
    with sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    n = len(sampler.samples)
    time.sleep(0.03)
    assert 5 <= n == len(sampler.samples)
    assert all(r == 0.001 and h >= 0 for _, r, h in sampler.samples)


def run_bench(cwd, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "variational_encode",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
