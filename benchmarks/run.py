"""Run one benchmark workload of deepbsde and print its metrics.

    python3 benchmarks/run.py --workload heat_d10 --seed 1 --seconds 50 --trace 0

Run from the root of a checkout: the package is imported from its `src/`.
The run repeats whole rounds of the workload's phases (reference, train,
eval, then the untimed checks) for about `--seconds`, always at least one
round, and reports per-phase medians over the rounds. With `--trace 1` it
alternates rounds without and with the tracer, at least one of each, and
prints the per-layer metrics instead; trace.overhead_s is the traced minus
the untraced median train_s. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the rest of
the report goes to standard error.
"""

import os

BLAS_THREADS = "1"
# fixed before numpy loads its BLAS; two threads gave unsteady step times
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 7

# the package under test is this checkout's src/; without it the run fails
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import deepbsde  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import KNOWN_FAULTS, WORKLOADS, gradient_probe  # noqa: E402


def measure_setup(workload, seed, probes):
    """Median over fresh processes of the time from process start to the
    end of set-up (import, config parsing, problem and grid)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        # CLOCK_MONOTONIC is system-wide, so the child's stamp is comparable
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return statistics.median(samples)


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def run_round(workload, inp, out_dir, tracer, index):
    tracer.round = index
    timing = {}
    tracer.phase = "reference"
    t0 = time.perf_counter()
    refs = workload.reference(inp)
    timing["reference_s"] = time.perf_counter() - t0

    tracer.phase = "train"
    config = dataclasses.replace(inp.config, output_dir=str(out_dir))
    t0 = time.perf_counter()
    final = deepbsde.run_train(config)
    timing["train_s"] = time.perf_counter() - t0

    tracer.phase = "eval"
    t0 = time.perf_counter()
    ev = workload.evaluate(inp, out_dir)
    timing["eval_s"] = time.perf_counter() - t0
    tracer.phase = None

    outcomes = workload.check(inp, refs, final, ev, out_dir)
    outcomes.append(checks.directional_gradient(*gradient_probe(inp, ev.bank,
                                                                workload.grad_batch)))
    archive_bytes = (Path(out_dir) / "params.json").stat().st_size
    return timing, outcomes, deepbsde.param_count(ev.bank), archive_bytes


def run_workload(workload, seed, seconds, trace, probes=SETUP_PROBES, log=sys.stderr):
    """Run rounds for about `seconds`; returns the result object."""
    setup_s = measure_setup(workload.name, seed, probes) if not trace else None
    inp = workload.build(seed)
    tracer = tracing.Tracer()
    out_dir = OUT / f"train-{workload.name}-{os.getpid()}"
    rounds = []
    try:
        start = time.perf_counter()
        while True:
            # a traced run alternates untraced and traced rounds, from one each
            if trace and len(rounds) % 2 == 1:
                tracer.install()
            t0 = time.perf_counter()
            rounds.append(run_round(workload, inp, out_dir, tracer, len(rounds)))
            last = time.perf_counter() - t0
            tracer.restore()
            if len(rounds) == 1:
                # one pass is what a user pays; later rounds only add heap
                # the allocator kept from the first, by a varying amount
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if len(rounds) >= (2 if trace else 1) and \
                    time.perf_counter() - start + last > seconds:
                break
    finally:
        tracer.restore()
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = failed = 0
    correct = True
    for index, (timing, outcomes, _, _) in enumerate(rounds):
        phases = " ".join(f"{k}={v:.4f}" for k, v in timing.items())
        print(f"round {index}: {phases}", file=log)
        for o in outcomes:
            attempted += 1
            if not o.ok:
                failed += 1
                correct = correct and o.name in KNOWN_FAULTS
            print(f"  {'PASS' if o.ok else 'FAIL'} {o.name}: {o.detail}", file=log)

    if trace:
        train_s = [r[0]["train_s"] for r in rounds]
        traced = {i: train_s[i] for i in range(1, len(rounds), 2)}
        _, _, params, archive_bytes = rounds[-1]
        metrics = tracing.layer_metrics(tracer, traced, statistics.median(train_s[0::2]),
                                        params, archive_bytes)
        write_trace(tracer, workload.name, seed)
    else:
        timed = [r[0] for r in rounds]
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for key in ("reference_s", "train_s", "eval_s"):
            metrics[key] = {"value": statistics.median(t[key] for t in timed), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    for name in sorted(tracer.absent):
        print(f"layer absent: {name}", file=log)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_trace(tracer, workload, seed):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the monotonic clock and exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if SRC not in Path(deepbsde.__file__).resolve().parents:
        print(f"deepbsde was imported from {deepbsde.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.build(args.seed)
        print(repr(time.monotonic()))
        return 0
    print(json.dumps(machine_facts()), file=sys.stderr)
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
