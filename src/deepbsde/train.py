"""Training loop, metrics emission, and the parameter archive format.

Metrics are CSV with the fixed header `step,loss,y0,grad_norm,lr,elapsed_s`,
every real printed with 17 significant digits (round-trip exact) and every
row flushed on write, so an aborted run keeps everything logged so far.

Archives are JSON: {"version": 2, "config": {...}, "theta": "..."}, where
"theta" is the base64 of the bank's flat vector as little-endian float64.
The embedded config carries the architecture fingerprint, which fixes every
tensor's name, shape and offset in theta; loading rebuilds the bank from it
and rejects a theta of any other length. Version 1 (per-tensor text) is
refused, not read.
`loss_curve.csv`, `params.json` and `run_summary.json` are written to a
temporary file and moved into place, so a crash never leaves a half-written
one; a run first removes all four artifacts of any earlier run in its
directory, so an aborted rerun leaves only its own metrics.csv.

The wall clock is injectable (`clock=`): with the default clock the
elapsed_s column reports real seconds, with a supplied deterministic clock
two identical runs produce byte-identical metrics files.
"""

import base64
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bsde import Tape, backward, estimate_u0, rollout_loss
from .errors import ConfigError, NumericError, ShapeError
# unflatten_params is no longer called here, but benchmarks/tracing.py times
# it under this module's name, where it now reads 0 ms per step
from .net import SubnetBank, layout, param_count, unflatten_params  # noqa: F401
from .optim import AdamState, adam_step, clip_by_global_norm, lr_at, sgd_step
from .problems import as_vector
from .sde import RngStream, make_uniform_grid, simulate_paths

METRICS_HEADER = "step,loss,y0,grad_norm,lr,elapsed_s"


@dataclass(frozen=True)
class MetricsRecord:
    step: int
    loss: float
    y0: float
    grad_norm: float
    lr: float
    elapsed_s: float


def _fmt(value):
    return format(float(value), ".17g")


def format_metrics_row(record):
    return ",".join([
        str(int(record.step)), _fmt(record.loss), _fmt(record.y0),
        _fmt(record.grad_norm), _fmt(record.lr), _fmt(record.elapsed_s),
    ])


def write_metrics(records, path):
    """Append records to a CSV, creating it (with header) if needed.

    Each row is flushed as it is written.
    """
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    with open(path, "a", encoding="utf-8") as fh:
        if fresh:
            fh.write(METRICS_HEADER + "\n")
            fh.flush()
        for record in records:
            fh.write(format_metrics_row(record) + "\n")
            fh.flush()


# a bank's constructor arguments, stored in the archive as its fingerprint
_ARCHITECTURE = ("xi_mode", "sharing", "d", "num_steps", "hidden", "activation")


def save_params(bank, config_extra, path):
    """Write the archive; `config_extra` is merged into the embedded config
    (the bank's architecture fingerprint always wins on overlap)."""
    config = dict(config_extra or {})
    config.update({key: getattr(bank, key) for key in _ARCHITECTURE})
    theta = base64.b64encode(bank.theta.astype("<f8", copy=False).tobytes()).decode("ascii")
    body = '{\n"version": 2,\n"config": %s,\n"theta": "%s"\n}\n' % (
        json.dumps(config, sort_keys=True), theta)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, body)


def _write_atomic(path, text):
    """Write `text` beside `path`, make it durable, then move it over `path`:
    a failure leaves `path` as it was and no temporary file behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_archive(path):
    """(SubnetBank, embedded config dict) from an archive file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:
        raise ConfigError(f"archive {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"archive {path} is not a JSON object")
    version = doc.get("version")
    if version != 2:
        note = " (per-tensor text) is no longer read" if version == 1 else " is not read"
        raise ConfigError(f"archive version {version!r}{note}; expected version 2")
    config = doc.get("config")
    if not isinstance(config, dict):
        raise ConfigError("archive has no embedded config")
    for key in _ARCHITECTURE:
        if key not in config:
            raise ConfigError(f"archive config lacks '{key}'")
    # bool is not an integer here, and int() would truncate 2.7 or read "2"
    for key in ("d", "num_steps"):
        if type(config[key]) is not int:
            raise ConfigError(f"archive config '{key}' must be an integer, got {config[key]!r}")
    if type(config["hidden"]) is not list or any(type(w) is not int for w in config["hidden"]):
        raise ConfigError(f"archive config 'hidden' must be a list of integers, got {config['hidden']!r}")
    fingerprint = {key: config[key] for key in _ARCHITECTURE}
    size = layout(**fingerprint)[-1][-1]
    theta = doc.get("theta")
    if not isinstance(theta, str):
        raise ConfigError(f"archive 'theta' must be a base64 string, got {type(theta).__name__}")
    try:
        raw = base64.b64decode(theta, validate=True)
    except ValueError as e:
        raise ConfigError(f"archive 'theta' is not valid base64: {e}") from e
    if len(raw) != 8 * size:
        raise ShapeError(f"archive 'theta' holds {len(raw)} bytes, expected "
                         f"{8 * size} for {size} float64 values")
    values = np.frombuffer(raw, dtype="<f8")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ConfigError(f"archive 'theta' entry {bad[0]} is non-finite ({values[bad[0]]})")
    bank = SubnetBank(**fingerprint)
    bank.theta[...] = values
    return bank, config


def _config_echo(config):
    """The run's settings as archived, problem vectors broadcast to d entries."""
    echo = {
        "problem": config.problem, "d": config.d, "N": config.N,
        "batch_size": config.batch_size, "iterations": config.iterations,
        "seed": config.seed, "optimizer": config.optimizer,
        "lr_values": list(config.lr_values), "lr_boundaries": list(config.lr_boundaries),
        "grad_clip": config.grad_clip,
        "activation": config.activation, "hidden": list(config.hidden_widths()),
        "sharing": config.sharing,
        "eval_every": config.eval_every, "eval_samples": config.eval_samples,
    }
    for key, value in config.problem_overrides().items():
        echo[key] = as_vector(value, config.d, key).tolist() if isinstance(value, tuple) else value
    return echo


def run_train(config, clock=time.perf_counter):
    """Train per the config; writes metrics.csv, loss_curve.csv, params.json,
    and run_summary.json into config.output_dir; returns the final record.

    Randomness layout: stream (seed->0) feeds per-iteration path simulation,
    (seed->1) network initialization, (seed->2) evaluation draws; everything
    downstream derives from those, so (config, seed) fixes the entire run.
    """
    t_start = clock()
    problem = config.build_problem()
    grid = make_uniform_grid(config.T, config.N)
    root = RngStream(config.seed)
    data_stream = root.derive(0)
    eval_stream = root.derive(2)
    bank = config.build_bank(root.derive(1).seed_state)

    adam = None
    if config.optimizer == "adam":
        adam = AdamState.create(bank.theta.size)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    # a rerun that aborts must not leave the previous run's archive behind
    for name in ("metrics.csv", "loss_curve.csv", "params.json", "run_summary.json"):
        (out_dir / name).unlink(missing_ok=True)

    records = []

    def emit(step, loss_value, grad_norm, rate):
        y0_mean, _ = estimate_u0(bank, problem, config.eval_samples, eval_stream.derive(step))
        record = MetricsRecord(
            step=step, loss=loss_value, y0=y0_mean, grad_norm=grad_norm,
            lr=rate, elapsed_s=clock() - t_start,
        )
        write_metrics([record], metrics_path)
        records.append(record)
        return record

    def one_batch(step):
        stream = data_stream.derive(step)
        paths, increments = simulate_paths(problem, grid, config.batch_size, stream)
        tape = Tape()
        result = rollout_loss(tape, problem, bank, grid, paths, increments)
        backward(tape, result.loss)
        return float(result.loss.value), tape.grad

    try:
        for step in range(config.iterations):
            loss_value, flat = one_batch(step)
            rate = lr_at(config.lr_values, config.lr_boundaries, step)
            # grad_norm is the norm before clipping, as on the closing row
            if step % config.eval_every == 0:
                emit(step, loss_value, float(np.linalg.norm(flat)), rate)
            if config.grad_clip > 0.0:
                clip_by_global_norm(flat, config.grad_clip)
            if adam is None:
                sgd_step(bank.theta, flat, rate)
            else:
                adam_step(adam, bank.theta, flat, rate)
        # closing row: state after the last update, on a fresh batch
        step = config.iterations
        loss_value, flat = one_batch(step)
    except NumericError as e:
        raise NumericError(f"training aborted at step {step}: {e}") from e
    final = emit(step, loss_value, float(np.linalg.norm(flat)),
                 lr_at(config.lr_values, config.lr_boundaries, step))

    curve = "".join(f"{record.step},{_fmt(record.loss)}\n" for record in records)
    _write_atomic(out_dir / "loss_curve.csv", "step,loss\n" + curve)

    save_params(bank, _config_echo(config), out_dir / "params.json")
    summary = {
        "config": _config_echo(config),
        "param_count": param_count(bank),
        "final": {
            "step": final.step, "loss": final.loss, "y0": final.y0,
            "grad_norm": final.grad_norm, "lr": final.lr,
        },
        "wall_seconds": final.elapsed_s,
    }
    _write_atomic(out_dir / "run_summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return final
