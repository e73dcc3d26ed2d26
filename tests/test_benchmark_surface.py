"""The package names the benchmark under benchmarks/ calls.

The benchmark's own self-tests run outside this suite, so a change that
drops a name its tracer wraps, or one its gradient probe calls, would pass
here and then fail every benchmark run. These tests make it fail here.
"""

import sys
from pathlib import Path

import pytest

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
