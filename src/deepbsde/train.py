"""Training loop, metrics emission, and the parameter archive format.

Metrics are CSV with the fixed header `step,loss,y0,grad_norm,lr,elapsed_s`,
every real printed with 17 significant digits (round-trip exact) and every
row flushed on write, so an aborted run keeps everything logged so far.

Archives are JSON: {"version": 1, "config": {...}, "tensors": [...]} with
tensors named and ordered exactly as the bank flattens. The embedded config
carries the architecture fingerprint; loading rejects any mismatch.

The wall clock is injectable (`clock=`): with the default clock the
elapsed_s column reports real seconds, with a supplied deterministic clock
two identical runs produce byte-identical metrics files.
"""

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bsde import Tape, backward, estimate_u0, rollout_loss
from .errors import ConfigError, NumericError, ShapeError
from .net import SubnetBank, flatten_params, param_count, unflatten_params
from .optim import AdamState, adam_step, clip_by_global_norm, lr_at, sgd_step
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


def _tensor_json(name, arr):
    arr = np.asarray(arr, dtype=np.float64)
    shape = ",".join(str(int(s)) for s in arr.shape)
    data = ",".join(_fmt(v) for v in arr.ravel())
    return '{"name": %s, "shape": [%s], "data": [%s]}' % (json.dumps(name), shape, data)


def _fingerprint(bank):
    hidden = list(bank.z_nets[0].config.layer_widths[1:-1]) if bank.z_nets else \
        (list(bank.y0_net.config.layer_widths[1:-1]) if bank.y0_net is not None else [])
    activation = bank.z_nets[0].config.activation if bank.z_nets else \
        (bank.y0_net.config.activation if bank.y0_net is not None else "tanh")
    return {
        "mode": bank.mode, "sharing": bank.sharing, "d": bank.d,
        "num_steps": bank.num_steps, "hidden": hidden, "activation": activation,
    }


def save_params(bank, config_extra, path):
    """Write the archive; `config_extra` is merged into the embedded config
    (the bank's architecture fingerprint always wins on overlap)."""
    config = dict(config_extra or {})
    config.update(_fingerprint(bank))
    tensors = ",\n    ".join(_tensor_json(name, arr) for name, arr in bank.tensor_items())
    body = (
        '{\n"version": 1,\n"config": %s,\n"tensors": [\n    %s\n]\n}\n'
        % (json.dumps(config, sort_keys=True), tensors)
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(body, encoding="utf-8")


def load_archive(path):
    """(SubnetBank, embedded config dict) from an archive file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("version")
    if version != 1:
        raise ConfigError(f"unsupported archive version {version!r} (expected 1)")
    config = doc.get("config")
    if not isinstance(config, dict):
        raise ConfigError("archive has no embedded config")
    for key in ("mode", "sharing", "d", "num_steps", "hidden", "activation"):
        if key not in config:
            raise ConfigError(f"archive config lacks '{key}'")
    template = SubnetBank.create(
        config["mode"], config["sharing"], int(config["d"]), int(config["num_steps"]),
        hidden=tuple(config["hidden"]), activation=config["activation"], seed=0,
    )
    stored = {}
    for entry in doc.get("tensors", []):
        stored[entry["name"]] = (tuple(entry["shape"]), entry["data"])
    parts = []
    for name, arr in template.tensor_items():
        if name not in stored:
            raise ConfigError(f"archive lacks tensor '{name}'")
        shape, data = stored.pop(name)
        if shape != arr.shape:
            raise ShapeError(f"tensor '{name}' has shape {shape}, expected {arr.shape}")
        values = np.asarray(data, dtype=np.float64)
        if values.size != arr.size:
            raise ShapeError(f"tensor '{name}' carries {values.size} values, expected {arr.size}")
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"tensor '{name}' holds non-finite values")
        parts.append(values)
    if stored:
        raise ConfigError(f"archive has unexpected tensors: {sorted(stored)}")
    bank = unflatten_params(template, np.concatenate(parts))
    return bank, config


def load_params(path):
    """SubnetBank from an archive file."""
    bank, _ = load_archive(path)
    return bank


def _config_echo(config):
    echo = {
        "problem": config.problem, "d": config.d, "T": config.T, "N": config.N,
        "batch_size": config.batch_size, "iterations": config.iterations,
        "seed": config.seed, "optimizer": config.optimizer,
        "activation": config.activation, "hidden": list(config.hidden_widths()),
        "sharing": config.sharing, "mode": config.mode, "xi_mode": config.xi_mode,
        "eval_every": config.eval_every, "eval_samples": config.eval_samples,
    }
    def broadcast(values):
        vals = [float(v) for v in values]
        return vals * config.d if len(vals) == 1 else vals

    if config.xi_mode == "point":
        echo["xi0"] = broadcast(config.xi0)
    else:
        echo["box_low"] = broadcast(config.box_low)
        echo["box_high"] = broadcast(config.box_high)
    if config.problem == "hjb":
        echo["lambda"] = config.lam
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
    schedule = config.schedule()

    theta = flatten_params(bank)
    adam = None
    if config.optimizer == "adam":
        adam = AdamState.create(theta.size, config.beta1, config.beta2, config.eps)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    curve_path = out_dir / "loss_curve.csv"
    for path in (metrics_path, curve_path):
        if path.exists():
            path.unlink()

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
        grads = backward(tape, result.loss)
        flat = np.concatenate([grads[pid].ravel() for pid in tape.param_ids])
        return float(result.loss.value), flat

    for step in range(config.iterations):
        try:
            loss_value, flat = one_batch(step)
            if config.grad_clip > 0.0:
                flat = clip_by_global_norm(flat, config.grad_clip)
            rate = lr_at(schedule, step)
            if step % config.eval_every == 0:
                emit(step, loss_value, float(np.linalg.norm(flat)), rate)
            if adam is not None:
                theta, adam = adam_step(adam, theta, flat, rate)
            else:
                theta = sgd_step(theta, flat, rate)
            bank = unflatten_params(bank, theta)
        except NumericError as e:
            raise NumericError(f"training aborted at step {step}: {e}") from e

    # closing row: state after the last update, on a fresh batch
    final_step = config.iterations
    try:
        loss_value, flat = one_batch(final_step)
    except NumericError as e:
        raise NumericError(f"training aborted at step {final_step}: {e}") from e
    final = emit(final_step, loss_value, float(np.linalg.norm(flat)),
                 lr_at(schedule, final_step))

    with open(curve_path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for record in records:
            fh.write(f"{record.step},{_fmt(record.loss)}\n")

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
    (out_dir / "run_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return final
