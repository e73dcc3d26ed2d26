"""The package names the benchmark under benchmarks/ calls.

The benchmark's own self-tests run outside this suite, so a change that
drops a name its tracer wraps, one its gradient probe or eval phase calls,
or a config attribute it reads (T, N, lam, eval_samples), would pass here
and then fail every benchmark run. These tests make it fail here.

The tracer is also the one reason a module in src/ may import a name it
never reads: the last test fails on any other unused import.
"""

import ast
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import deepbsde

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, gradient_probe  # noqa: E402


def test_every_traced_name_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.TARGETS if not hasattr(owner, attr)]
    assert missing == []


@pytest.mark.parametrize("name", ["hjb_d100", "allen_cahn_d1"])
def test_gradient_probe_runs_and_passes(name):
    inp = WORKLOADS[name].build(seed=5)
    bank = inp.config.build_bank(seed=6)
    outcome = checks.directional_gradient(*gradient_probe(inp, bank, batch=4))
    assert outcome.ok, outcome


@pytest.mark.parametrize("name", ["hjb_d100", "allen_cahn_d1"])
def test_reference_runs_and_passes(name):
    # the workloads call the oracles with positional arguments, so a changed
    # signature fails here
    workload = WORKLOADS[name]
    inp = workload.build(seed=5)
    refs = workload.reference(inp)
    if name == "hjb_d100":
        outcomes = [checks.cole_hopf_published(est) for est in refs]
    else:
        exact = 2.0 * inp.extra["heat"].T
        outcomes = [checks.mc_closed_form(refs["mc"], exact),
                    checks.fd_closed_form(refs["heat"], exact)]
    assert all(outcome.ok for outcome in outcomes), outcomes


@pytest.mark.parametrize("name", ["hjb_d100", "allen_cahn_d1"])
def test_eval_phase_runs_on_a_saved_bank(name, tmp_path):
    # a small held-out batch keeps this quick; the phase is the benchmark's own
    workload = dataclasses.replace(WORKLOADS[name], heldout=8)
    inp = workload.build(seed=5)
    bank = inp.config.build_bank(seed=6)
    deepbsde.save_params(bank, {}, tmp_path / "params.json")
    ev = workload.evaluate(inp, tmp_path)
    assert np.array_equal(ev.bank.theta, bank.theta)
    assert np.isfinite(ev.values.loss) and np.isfinite(ev.u0)


@pytest.mark.parametrize("name", ["hjb_d100", "allen_cahn_d1"])
def test_eval_phase_is_the_same_on_one_worker_and_on_several(name, tmp_path, workers):
    # the full held-out batch, as the benchmark evaluates it
    workload = WORKLOADS[name]
    inp = workload.build(seed=5)
    deepbsde.save_params(inp.config.build_bank(seed=6), {}, tmp_path / "params.json")
    runs = []
    for k in (1, 3):
        started = workers(k)
        runs.append(workload.evaluate(inp, tmp_path).values)
        assert len(started) == (0 if k == 1 else 4)
    for field in dataclasses.fields(runs[0]):
        one, several = (np.asarray(getattr(v, field.name)) for v in runs)
        assert one.tobytes() == several.tobytes(), field.name


def _unread_imports(path):
    """{name: line} of the names a module imports and never reads; a name
    listed in __all__ counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.split(".")[0]: alias.lineno
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return {name: line for name, line in imported.items() if name not in read}


def test_src_imports_only_names_it_reads():
    # an import kept only so that the tracer can wrap it under the importing
    # module is marked noqa: F401; it goes together with its TARGETS entry
    wrapped = {(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in tracing.TARGETS}
    src = Path(deepbsde.__file__).resolve().parent
    unread = []
    for path in sorted(src.glob("*.py")):
        module = "deepbsde" if path.stem == "__init__" else f"deepbsde.{path.stem}"
        lines = path.read_text(encoding="utf-8").splitlines()
        for name, line in _unread_imports(path).items():
            if "# noqa: F401" not in lines[line - 1] or (module, name) not in wrapped:
                unread.append(f"{path.name}:{line} {name}")
    assert unread == []
