"""Self-tests of the benchmark: every check rejects a wrong answer, and every
workload prints every metric BENCHMARK.json names.

Kept outside the package's test suite; run from the repository root with

    python3 -m pytest -q benchmarks
"""

import dataclasses
import io
import json
import math
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import run  # puts this checkout's src/ on the path before deepbsde loads
import checks
import deepbsde
from workloads import WORKLOADS, gradient_probe

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# sizes that exercise every phase in well under a second per round
SMALL = {"heldout": 256, "grad_batch": 8, "mc_calls": 1, "mc_samples": 200,
         "ch_calls": 1, "ch_samples": 200, "fd_nodes": (16, 32), "fd_heat_nodes": 16,
         "fd_hjb_nodes": (16, 32)}


def small(workload):
    text = re.sub(r"iterations = \d+", "iterations = 3", workload.config_text)
    fields = {f.name for f in dataclasses.fields(workload)}
    return dataclasses.replace(workload, config_text=text,
                               **{k: v for k, v in SMALL.items() if k in fields})


# --- each check accepts the right answer and rejects a wrong one ---

def test_y0_shifted_by_two_percent_is_rejected():
    assert checks.y0_relative(20.0 * 1.005, 20.0).ok
    assert not checks.y0_relative(20.0 * 1.02, 20.0).ok
    assert not checks.y0_relative(20.0 * 0.98, 20.0).ok
    fd = deepbsde.OracleEstimate(value=0.75394602, stderr=0.0, info={})
    assert checks.y0_fd(0.7544, fd).ok
    assert not checks.y0_fd(fd.value * 1.02, fd).ok


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gradient_check_rejects_scaled_and_flipped_gradients(name):
    workload = WORKLOADS[name]
    inp = workload.build(seed=5)
    bank = inp.config.build_bank(seed=6)
    g_dot_v, central, typical = gradient_probe(inp, bank, batch=8)
    assert checks.directional_gradient(g_dot_v, central, typical).ok
    assert not checks.directional_gradient(1.01 * g_dot_v, central, typical).ok
    assert not checks.directional_gradient(-g_dot_v, central, typical).ok


def test_cole_hopf_at_twice_lambda_is_rejected():
    workload = WORKLOADS["hjb_d100"]
    p = workload.build(seed=1).problem
    for lam, expect in ((1.0, True), (2.0, False)):
        est = deepbsde.cole_hopf_mc(lam, p.g, np.zeros(p.d), p.T, workload.ch_samples,
                                    deepbsde.RngStream(8))
        assert checks.cole_hopf_published(est).ok is expect, (lam, est)


def test_coarse_fd_grid_fails_the_refinement_check():
    workload = WORKLOADS["allen_cahn_d1"]
    problem = workload.build(seed=1).problem
    fine = [deepbsde.fd_semilinear_1d(problem, 0.0, nodes=n) for n in workload.fd_nodes]
    assert checks.fd_refinement(*fine).ok
    coarse = [deepbsde.fd_semilinear_1d(problem, 0.0, nodes=n) for n in (8, 16)]
    assert not checks.fd_refinement(*coarse).ok


def test_fd_closed_form_rejects_a_shifted_value():
    est = deepbsde.fd_semilinear_1d(deepbsde.get_problem("heat", 1), 0.0, nodes=50)
    assert checks.fd_closed_form(est, 2.0).ok
    assert not checks.fd_closed_form(est, 2.0 + 1e-4).ok


def test_fd_hjb_agrees_with_cole_hopf_at_twice_lambda():
    """The d=1 comparison fails at lambda because the built-in driver is
    -lambda |z|^2 = -2 lambda |grad u|^2; at 2 lambda the two routes agree,
    so the check itself is sound."""
    hjb = deepbsde.get_problem("hjb", 1, {"lambda": 1.0})
    grids = [deepbsde.fd_semilinear_1d(hjb, 0.0, nodes=n) for n in (100, 200)]
    results = {}
    for lam in (1.0, 2.0):
        mc = deepbsde.cole_hopf_mc(lam, hjb.g, np.zeros(1), hjb.T, 100_000,
                                   deepbsde.RngStream(3))
        results[lam] = checks.fd_cole_hopf(*grids, mc).ok
    assert results == {1.0: False, 2.0: True}


def test_mc_and_martingale_checks_reject_shifted_values():
    workload = dataclasses.replace(WORKLOADS["heat_d10"], mc_calls=1)
    inp = workload.build(seed=2)
    (est,) = workload.reference(inp)
    exact = workload.exact(inp)
    assert checks.mc_closed_form(est, exact).ok
    assert not checks.mc_closed_form(est, exact * 1.02).ok
    assert not checks.mc_closed_form(est, exact * 0.98).ok

    rng = np.random.default_rng(0)
    y0 = np.zeros(10_000)
    terminal = rng.normal(size=y0.size)
    assert checks.martingale(y0, terminal).ok
    assert not checks.martingale(y0, terminal + 0.1).ok


def test_loss_and_round_trip_checks():
    assert checks.loss_decreased(287.0, 8.0).ok
    assert not checks.loss_decreased(8.0, 287.0).ok
    assert checks.archive_round_trip(0.75, 0.75).ok
    assert not checks.archive_round_trip(math.nextafter(0.75, 1.0), 0.75).ok


# --- every workload prints every metric, traced and untraced ---

@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_prints_every_metric(name, trace):
    result = run.run_workload(small(WORKLOADS[name]), seed=3, seconds=0.0, trace=trace,
                              probes=1, log=io.StringIO())
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1


def test_absent_layer_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(deepbsde.train, "adam_step")
    tracer = run.tracing.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.absent == {"update"}
    metrics = run.tracing.layer_metrics(tracer, {1: 1.0}, 1.0, 10, 100)
    assert metrics["optim.update_ms.p50"]["value"] is None
    assert metrics["train.unattributed_s"]["value"] == 1.0


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    args = ["--workload", "heat_d10", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(SPEC["command"] + args, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
