"""Training loop artifacts, parameter archives, and the command-line surface."""

import base64
import dataclasses
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deepbsde
from deepbsde.cli import main
from deepbsde.config import RunConfig, parse_config_text
from deepbsde.errors import ConfigError, NumericError, ShapeError
from deepbsde.net import SubnetBank, param_count, unflatten_params
from deepbsde.bsde import estimate_u0
from deepbsde.problems import get_problem
from deepbsde.sde import RngStream
from deepbsde.train import (
    METRICS_HEADER,
    MetricsRecord,
    _config_echo,
    format_metrics_row,
    load_archive,
    run_train,
    save_params,
    write_metrics,
)

from conftest import machine

TINY = """
problem = heat
d = 2
N = 4
batch = 8
iterations = 6
seed = 5
eval_every = 2
eval_samples = 64
"""


def _config(text, **updates):
    cfg = parse_config_text(text)
    return dataclasses.replace(cfg, **updates) if updates else cfg


# ---------------------------------------------------------------- metrics csv

def test_metrics_header_and_single_row(tmp_path):
    path = tmp_path / "metrics.csv"
    rec = MetricsRecord(step=0, loss=1.5, y0=0.25, grad_norm=3.0, lr=0.01, elapsed_s=0.125)
    write_metrics([rec], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == METRICS_HEADER == "step,loss,y0,grad_norm,lr,elapsed_s"
    assert lines[1] == "0,1.5,0.25,3,0.01,0.125"


def test_metrics_round_trip_17_digits(tmp_path):
    path = tmp_path / "metrics.csv"
    rec = MetricsRecord(step=7, loss=1.0 / 3.0, y0=np.pi, grad_norm=1e-17,
                        lr=5e-3, elapsed_s=123.456789)
    write_metrics([rec], path)
    row = path.read_text().splitlines()[1].split(",")
    assert int(row[0]) == 7
    # 17 significant digits reproduce the doubles bit for bit
    assert float(row[1]) == rec.loss
    assert float(row[2]) == rec.y0
    assert float(row[3]) == rec.grad_norm


def test_metrics_append_keeps_existing_rows(tmp_path):
    path = tmp_path / "metrics.csv"
    first = MetricsRecord(step=0, loss=2.0, y0=0.0, grad_norm=1.0, lr=0.1, elapsed_s=0.0)
    second = MetricsRecord(step=1, loss=1.0, y0=0.5, grad_norm=0.5, lr=0.1, elapsed_s=1.0)
    write_metrics([first], path)
    write_metrics([second], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines.count(METRICS_HEADER) == 1
    assert lines[1].startswith("0,") and lines[2].startswith("1,")


def test_format_metrics_row_matches_header_arity():
    rec = MetricsRecord(step=3, loss=0.5, y0=1.0, grad_norm=2.0, lr=0.01, elapsed_s=9.0)
    assert len(format_metrics_row(rec).split(",")) == len(METRICS_HEADER.split(","))


# ------------------------------------------------------------- param archive

def _fresh_bank(xi_mode="box", sharing="independent"):
    return SubnetBank.create(xi_mode, sharing, d=3, num_steps=4, hidden=(5, 5), seed=42)


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def test_archive_round_trip_bitwise(tmp_path):
    bank = _fresh_bank()
    path = tmp_path / "params.json"
    save_params(bank, {"note": "kept"}, path)
    loaded, config = load_archive(path)
    for (name_a, arr_a), (name_b, arr_b) in zip(bank.tensor_items(), loaded.tensor_items()):
        assert name_a == name_b
        assert arr_a.shape == arr_b.shape
        assert np.array_equal(arr_a, arr_b)
    assert config["note"] == "kept"
    # the start law is stored once, as the bank's own fingerprint field
    assert config["xi_mode"] == "box" and "mode" not in config
    assert json.loads(path.read_text())["version"] == 2


def test_archive_round_trip_shared_and_deterministic(tmp_path):
    for xi_mode, sharing in [("point", "independent"), ("box", "shared")]:
        bank = _fresh_bank(xi_mode, sharing)
        path = tmp_path / f"{xi_mode}_{sharing}.json"
        save_params(bank, {}, path)
        loaded, _ = load_archive(path)
        assert loaded.xi_mode == xi_mode and loaded.sharing == sharing
        assert param_count(loaded) == param_count(bank)
        for (_, a), (_, b) in zip(bank.tensor_items(), loaded.tensor_items()):
            assert np.array_equal(a, b)


def test_archive_theta_is_little_endian_float64_in_flatten_order(tmp_path):
    # y0 first, then z0, whatever the host's byte order
    bank = SubnetBank.create("point", "independent", d=3, num_steps=1, hidden=(5,))
    bank.y0[...] = 1.5
    bank.z0[...] = [0.25, -0.5, 2.0]
    path = tmp_path / "params.json"
    save_params(bank, {}, path)
    wire = base64.b64encode(struct.pack("<4d", 1.5, 0.25, -0.5, 2.0)).decode("ascii")
    assert json.loads(path.read_text())["theta"] == wire


# the non-finite value goes into the middle of theta, where the message must find it
_NON_FINITE = {"NaN": np.nan, "Infinity": np.inf, "-Infinity": -np.inf}

# each of these replaces the base64 string, except that "entry_without_data"
# drops the field and "non_numeric" slips its "#" into the middle of the good
# string, where a decoder that does not validate would skip it
_NOT_BASE64 = {"entry_without_data": None, "null_data": None, "bool_value": True,
               "huge_integer": 10 ** 400, "nested_garbage": [0.5, {"k": None}],
               "non_numeric": "#", "numeric_string": "0.5"}

DAMAGES = ["NaN", "Infinity", "-Infinity", "truncated", "not_an_object", *_NOT_BASE64]

# the damages that the tests of theta's length, of the version and of an
# architecture too large to allocate add
MORE_DAMAGES = ["one_float_short", "one_float_extra", "empty_theta", "version_1", "version_3",
                "oversized"]


def _damage_archive(path, kind):
    """Corrupt a saved archive as a hand edit or a crash mid-write could;
    returns the error load_archive raises and a pattern its message matches."""
    text = path.read_text()
    doc = json.loads(text)
    theta = np.frombuffer(base64.b64decode(doc["theta"]), dtype="<f8")
    if kind == "truncated":
        path.write_text(text[: len(text) // 2])
        return ConfigError, "not valid JSON"
    if kind == "not_an_object":
        path.write_text("[]\n")
        return ConfigError, "not a JSON object"
    error = ConfigError
    if kind in _NON_FINITE:
        bad = theta.copy()
        bad[theta.size // 2] = _NON_FINITE[kind]
        doc["theta"] = _b64(bad)
        message = f"'theta' entry {theta.size // 2} is non-finite"
    elif kind in _NOT_BASE64:
        value = _NOT_BASE64[kind]
        if kind == "entry_without_data":
            del doc["theta"]
        elif kind == "non_numeric":
            doc["theta"] = doc["theta"][:8] + value + doc["theta"][8:]
        else:
            doc["theta"] = value
        if isinstance(value, str):
            message = "'theta' is not valid base64"
        else:
            message = f"'theta' must be a base64 string, got {type(value).__name__}"
    elif kind == "oversized":
        # about 1.4 PiB of theta, once allocated before its length was checked
        doc["config"].update(d=10 ** 7, hidden=[10 ** 7])
        doc["theta"] = ""
        error, message = ShapeError, r"'theta' holds 0 bytes, expected \d+ for \d+ float64 values"
    elif kind.startswith("version_"):
        doc["version"] = int(kind[-1])
        message = (r"archive version 1 \(per-tensor text\) is no longer read; expected version 2"
                   if kind == "version_1" else "archive version 3 is not read; expected version 2")
    else:
        stored = {"one_float_short": theta[:-1], "one_float_extra": np.append(theta, 0.5),
                  "empty_theta": theta[:0]}[kind]
        doc["theta"] = _b64(stored)
        error = ShapeError
        message = (f"'theta' holds {8 * stored.size} bytes, expected {8 * theta.size} "
                   f"for {theta.size} float64 values")
    path.write_text(json.dumps(doc))
    return error, message


def _assert_rejected(tmp_path, kind):
    path = tmp_path / "params.json"
    save_params(_fresh_bank(), {}, path)
    error, message = _damage_archive(path, kind)
    with pytest.raises(error, match=message):
        load_archive(path)


@pytest.mark.parametrize("token", DAMAGES)
def test_archive_rejects_non_finite_tensor(tmp_path, token):
    _assert_rejected(tmp_path, token)


def test_archive_rejects_wrong_version(tmp_path):
    # version 1 stored each tensor as text; it is refused, not converted
    for kind in ("version_1", "version_3"):
        _assert_rejected(tmp_path, kind)


def test_archive_rejects_tampered_shape(tmp_path):
    _assert_rejected(tmp_path, "one_float_short")


def test_archive_rejects_unexpected_tensor(tmp_path):
    _assert_rejected(tmp_path, "one_float_extra")


def test_archive_rejects_missing_tensor(tmp_path):
    _assert_rejected(tmp_path, "empty_theta")


@pytest.mark.parametrize("name", ["point_independent", "box_shared"])
def test_archive_from_per_tensor_layout_round_trips_bytewise(tmp_path, name):
    # written by run_train in archive version 1, before the bank's tensors
    # became views of one flat vector (commit f519a70): read here as the
    # reference for the names and order of theta's tensors
    source = Path(__file__).parent / "data" / f"params_{name}.json"
    doc = json.loads(source.read_text())
    bank = SubnetBank(**{key: doc["config"][key] for key in
                         ("xi_mode", "sharing", "d", "num_steps", "hidden", "activation")})
    views = dict(bank.tensor_items())
    assert [t["name"] for t in doc["tensors"]] == list(views)
    for tensor in doc["tensors"]:
        views[tensor["name"]][...] = np.reshape(tensor["data"], tensor["shape"])
    in_file_order = np.concatenate([np.ravel(t["data"]) for t in doc["tensors"]])
    assert in_file_order.tobytes() == bank.theta.tobytes()
    save_params(bank, doc["config"], tmp_path / "params.json")
    loaded, _ = load_archive(tmp_path / "params.json")
    assert loaded.theta.tobytes() == bank.theta.tobytes()
    with pytest.raises(ConfigError, match=r"archive version 1 \(per-tensor text\)"):
        load_archive(source)
    # until the bank was keyed by xi_mode, run_train's archives stored its
    # old "mode" name beside "xi_mode", as the fixtures do; loading ignores it
    assert {"mode", "xi_mode"} <= set(doc["config"])
    layout_path = tmp_path / "mode_and_xi_mode.json"
    layout_path.write_text('{\n"version": 2,\n"config": %s,\n"theta": "%s"\n}\n'
                           % (json.dumps(doc["config"], sort_keys=True), _b64(in_file_order)))
    loaded, config = load_archive(layout_path)
    assert loaded.theta.tobytes() == bank.theta.tobytes()
    assert loaded.xi_mode == config["xi_mode"] == doc["config"]["xi_mode"]


def test_save_params_failure_keeps_previous_archive(tmp_path, monkeypatch):
    path = tmp_path / "params.json"
    save_params(_fresh_bank(), {"note": "old"}, path)
    before = path.read_bytes()

    def disk_full(fd):
        raise OSError(28, "No space left on device")

    # the new archive is fully written but never made durable
    monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises(OSError, match="No space"):
        save_params(_fresh_bank("point"), {"note": "new"}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["params.json"]


def test_archive_keeps_the_architecture_of_a_bank_without_networks(tmp_path):
    # a point start over one step has plain y0 and z0 only, yet its archive
    # still names the hidden widths and activation it was built with
    bank = SubnetBank.create("point", "independent", d=3, num_steps=1,
                             hidden=(7, 7), activation="relu")
    assert bank.y0_net is None and bank.z_nets == []
    bank.y0[...] = 1.5
    bank.z0[...] = [0.25, -0.5, 2.0]
    path = tmp_path / "params.json"
    save_params(bank, {}, path)
    stored = json.loads(path.read_text())["config"]
    assert stored["hidden"] == [7, 7] and stored["activation"] == "relu"
    loaded, config = load_archive(path)
    assert (loaded.hidden, loaded.activation) == ((7, 7), "relu")
    assert config["hidden"] == [7, 7] and config["activation"] == "relu"
    assert np.array_equal(loaded.theta, bank.theta)


def test_loading_and_unflattening_draw_nothing(tmp_path, monkeypatch):
    bank = _fresh_bank()
    path = tmp_path / "params.json"
    save_params(bank, {}, path)

    def refuse(*args, **kwargs):
        raise AssertionError("a random stream was opened")

    # SubnetBank.create's stream is the only source of draws in net.py
    monkeypatch.setattr("deepbsde.net.RngStream", refuse)
    loaded, _ = load_archive(path)
    assert np.array_equal(loaded.theta, bank.theta)
    moved = unflatten_params(bank, bank.theta + 1.0)
    assert np.array_equal(moved.theta, bank.theta + 1.0)
    assert [name for name, _ in moved.tensor_items()] == [name for name, _ in bank.tensor_items()]


# ------------------------------------------------------------------ run_train

def test_zero_iterations_logs_init_state(tmp_path):
    cfg = _config(TINY, iterations=0, output_dir=str(tmp_path / "run"))
    final = run_train(cfg)
    assert final.step == 0

    lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the single step-0 row

    # archive must hold the untouched initial parameters
    reference = cfg.build_bank(RngStream(cfg.seed).derive(1).seed_state)
    loaded, _ = load_archive(tmp_path / "run" / "params.json")
    for (_, a), (_, b) in zip(reference.tensor_items(), loaded.tensor_items()):
        assert np.array_equal(a, b)

    summary = json.loads((tmp_path / "run" / "run_summary.json").read_text())
    assert summary["final"]["step"] == 0
    assert summary["param_count"] == param_count(reference)
    # both configs name the start law once, as xi_mode; the archive adds
    # only the fingerprint's num_steps (N in the run's own settings)
    archived = json.loads((tmp_path / "run" / "params.json").read_text())["config"]
    assert "mode" not in archived and "mode" not in summary["config"]
    assert set(archived) - set(summary["config"]) == {"num_steps"}
    assert archived["xi_mode"] == summary["config"]["xi_mode"] == "point"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_rerun_replaces_stale_metrics(tmp_path):
    cfg = _config(TINY, output_dir=str(tmp_path / "run"))
    run_train(cfg)
    first = (tmp_path / "run" / "metrics.csv").read_text()
    run_train(cfg)
    again = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    # same row count as a fresh run, not doubled by appending
    assert len(again) == len(first.splitlines())
    # a rerun that aborts leaves its own metrics and none of the old artifacts
    blowup = _config(TINY + "optimizer = sgd\nlr = 1e200\n", output_dir=str(tmp_path / "run"))
    with pytest.raises(NumericError, match="training aborted at step"):
        run_train(blowup)
    assert [p.name for p in (tmp_path / "run").iterdir()] == ["metrics.csv"]
    rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert rows[0] == METRICS_HEADER and rows[1].startswith("0,")


def _fake_clock():
    state = {"t": 0.0}

    def tick():
        state["t"] += 0.5
        return state["t"]

    return tick


def test_bitwise_deterministic_given_fixed_clock(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_train(_config(TINY, output_dir=str(out_a)), clock=_fake_clock())
    run_train(_config(TINY, output_dir=str(out_b)), clock=_fake_clock())
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "params.json").read_bytes() == (out_b / "params.json").read_bytes()
    assert (out_a / "loss_curve.csv").read_bytes() == (out_b / "loss_curve.csv").read_bytes()


# config text: the first 12 hex digits of the sha256 of metrics.csv,
# loss_curve.csv, params.json and run_summary.json under a 0.25 s clock.
# Between them: SGD with clipping on a shared relu net over a box start,
# Adam on a two-rate schedule, Adam on hjb from a point start. Training
# reads normals, so these are pinned like the normal digests in test_sde.py.
ARTIFACT_PINS = {
    "problem = heat\nd = 3\nN = 10\nbatch = 32\niterations = 60\nseed = 1\n"
    "xi_mode = box\nbox_low = -1, -0.5, 0\nsharing = shared\nactivation = relu\n"
    "optimizer = sgd\ngrad_clip = 0.5\n":
        ("a8108cd2e035", "f4a0b785e1d3", "a4749f9e8aef", "50d9cec3a89c"),
    "problem = heat\nd = 2\nN = 10\nbatch = 32\niterations = 80\nseed = 1\n"
    "xi_mode = box\nlr_values = 0.01, 0.003\nlr_boundaries = 40\n":
        ("bf65904c8bd2", "52062b8e463f", "acfc8f744d07", "57e551ab041e"),
    "problem = hjb\nd = 3\nN = 10\nbatch = 32\niterations = 60\nseed = 1\n"
    "lambda = 2.5\nT = 0.5\nxi0 = 0.1, 0.2, 0.3\n":
        ("8a19bf4d5b8c", "67d07bc68ac5", "965ee4451d64", "9cfd6ec6b500"),
}


@pytest.mark.parametrize("text", list(ARTIFACT_PINS), ids=["sgd_clip", "adam_schedule", "hjb"])
def test_training_artifacts_keep_their_bytes(tmp_path, text):
    state = {"t": 0.0}

    def clock():
        state["t"] += 0.25
        return state["t"]

    run_train(_config(text, output_dir=str(tmp_path)), clock=clock)
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:12]
        for name in ("metrics.csv", "loss_curve.csv", "params.json", "run_summary.json")
    )
    assert digests == ARTIFACT_PINS[text], machine()


@pytest.mark.parametrize("text", [TINY, TINY + "xi_mode = box\n", TINY.replace("heat", "hjb")],
                         ids=["point", "box", "hjb"])
def test_config_echo_records_every_setting(text):
    # all but the output directory, less the start-law keys and lambda that
    # the config drops because they would change nothing
    config = _config(text)
    dropped = {"xi0", "box_low", "box_high", "lambda"} - set(config.problem_overrides())
    fields = {"lambda" if f.name == "lam" else f.name for f in dataclasses.fields(RunConfig)}
    assert set(_config_echo(config)) == fields - {"output_dir"} - dropped


def test_archive_deterministic_even_with_real_clock(tmp_path):
    # timing noise may move elapsed_s, but parameters depend only on (config, seed)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_train(_config(TINY, output_dir=str(out_a)))
    run_train(_config(TINY, output_dir=str(out_b)))
    assert (out_a / "params.json").read_bytes() == (out_b / "params.json").read_bytes()


def test_seed_changes_the_run(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_train(_config(TINY, output_dir=str(out_a)))
    run_train(_config(TINY, seed=6, output_dir=str(out_b)))
    assert (out_a / "params.json").read_bytes() != (out_b / "params.json").read_bytes()


def test_grad_norm_is_taken_before_clipping(tmp_path):
    # step 0's gradient is the same with and without clipping, and so is
    # the grad_norm its row reports, bit for bit
    steps = {}
    for name, clip in (("plain", 0.0), ("clipped", 1e-6)):
        run_train(_config(TINY, grad_clip=clip, output_dir=str(tmp_path / name)))
        rows = (tmp_path / name / "metrics.csv").read_text().splitlines()[1:]
        steps[name] = {row.split(",")[0]: row.split(",")[3] for row in rows}
    assert steps["clipped"]["0"] == steps["plain"]["0"]
    assert float(steps["clipped"]["0"]) > 1e-3


def test_loss_curve_mirrors_metrics(tmp_path):
    cfg = _config(TINY, output_dir=str(tmp_path / "run"))
    run_train(cfg)
    import csv
    with open(tmp_path / "run" / "metrics.csv") as fh:
        metric_rows = list(csv.DictReader(fh))
    curve_lines = (tmp_path / "run" / "loss_curve.csv").read_text().splitlines()
    assert curve_lines[0] == "step,loss"
    assert len(curve_lines) == len(metric_rows) + 1
    for row, line in zip(metric_rows, curve_lines[1:]):
        step, loss = line.split(",")
        assert step == row["step"]
        assert float(loss) == float(row["loss"])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_training_aborts_cleanly_on_blowup(tmp_path):
    from deepbsde.errors import NumericError
    cfg = _config(TINY, optimizer="sgd", lr_values=(1e200,), iterations=20,
                  output_dir=str(tmp_path / "run"))
    with pytest.raises(NumericError, match="training aborted at step"):
        run_train(cfg)
    # rows written before the failure survive (flush per row)
    assert (tmp_path / "run" / "metrics.csv").exists()


def test_loss_trend_on_heat():
    """Training must cut the loss to below 1% of its starting value."""
    text = """
    problem = heat
    d = 10
    N = 40
    batch = 128
    iterations = 2400
    seed = 11
    optimizer = adam
    sharing = shared
    activation = relu
    hidden = 32, 32
    lr_values = 0.05, 0.01, 0.002
    lr_boundaries = 800, 1600
    eval_every = 25
    eval_samples = 512
    """
    import csv
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _config(text, output_dir=tmp)
        run_train(cfg)
        with open(f"{tmp}/metrics.csv") as fh:
            losses = [float(r["loss"]) for r in csv.DictReader(fh)]
    assert losses[0] > 100.0  # sanity: started far from the solution
    assert min(losses) < 0.01 * losses[0]


# ------------------------------------------------------------------- the CLI

def _write_config(tmp_path, text=TINY):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_cli_train_and_artifacts(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    for name in ("metrics.csv", "loss_curve.csv", "params.json", "run_summary.json"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "final: step=6" in stdout
    assert (out / "metrics.csv").read_text().splitlines()[0] == METRICS_HEADER


def test_cli_train_seed_override(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["train", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg_path), "--seed", "5",
                 "--out", str(out_b)]) == 0
    capsys.readouterr()
    # seed 5 equals the config's own seed, so the runs coincide
    assert (out_a / "params.json").read_bytes() == (out_b / "params.json").read_bytes()


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, TINY + "momentum_rate = 0.9\n")
    code = main(["train", "--config", str(cfg_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_config_key_without_effect_exits_2(tmp_path, capsys):
    # lambda reaches only the hjb problem; TINY is heat
    cfg_path = _write_config(tmp_path, TINY + "lambda = 2.0\n")
    code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "'lambda' has no effect" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_empty_out_exits_2_and_keeps_the_working_directory(tmp_path, capsys, monkeypatch):
    # an empty output directory once resolved to the working directory,
    # whose artifacts the run then deleted and overwrote
    cfg_path = _write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "params.json").write_text("kept\n", encoding="utf-8")
    code = main(["train", "--config", str(cfg_path), "--out", ""])
    assert code == 2
    assert "'output_dir' must be a non-empty string" in capsys.readouterr().err
    assert (tmp_path / "params.json").read_text(encoding="utf-8") == "kept\n"
    assert not (tmp_path / "metrics.csv").exists()


def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "latin1.cfg"
    cfg_path.write_bytes(TINY.encode("utf-8") + b"# caf\xe9\n")
    code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config {cfg_path} is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_exits_4(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "absent.cfg")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cli_numeric_blowup_exits_3(tmp_path, capsys):
    text = TINY + "optimizer = sgd\nlr = 1e200\n"
    cfg_path = _write_config(tmp_path, text)
    code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "training aborted at step" in capsys.readouterr().err


def test_cli_oracle_heat(tmp_path, capsys):
    record_path = tmp_path / "oracle.json"
    code = main(["oracle", "--problem", "heat", "--d", "2", "--samples", "20000",
                 "--seed", "9", "--out", str(record_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "mc_feynman_kac: u(0, x0) =" in stdout
    record = json.loads(record_path.read_text())
    assert record["method"] == "mc_feynman_kac"
    # exact answer is 2dT = 4; generous statistical gate
    assert abs(record["value"] - 4.0) < 6.0 * record["stderr"] + 1e-9


def test_cli_oracle_unknown_problem_exits_2(tmp_path, capsys):
    code = main(["oracle", "--problem", "kpz", "--d", "1",
                 "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_oracle_negative_dimension_exits_2(tmp_path, capsys):
    code = main(["oracle", "--problem", "heat", "--d", "-1",
                 "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "dimension must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("step", ["fsync", "replace"])
def test_cli_oracle_write_failure_keeps_previous_record(tmp_path, capsys, monkeypatch, step):
    record_path = tmp_path / "oracle.json"
    argv = ["oracle", "--problem", "heat", "--d", "1", "--samples", "200",
            "--out", str(record_path)]
    assert main(argv + ["--seed", "1"]) == 0
    before = record_path.read_bytes()

    def disk_full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, step, disk_full)
    assert main(argv + ["--seed", "2"]) == 4
    assert "No space" in capsys.readouterr().err
    assert record_path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["oracle.json"]


def test_cli_oracle_fd_route(tmp_path, capsys):
    code = main(["oracle", "--problem", "allen_cahn", "--d", "1", "--x0", "0.0",
                 "--grid", "200", "--out", str(tmp_path / "o.json")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "fd_semilinear_1d" in stdout
    record = json.loads((tmp_path / "o.json").read_text())
    assert record["stderr"] == 0.0
    # the march draws nothing, so the record names no seed
    assert record["seed"] is None


@pytest.mark.parametrize("grid", ["", ",", "50,10,1,2", "fifty"])
def test_cli_oracle_malformed_grid_exits_2(tmp_path, capsys, grid):
    # an empty --grid is a given grid too, not the default one
    code = main(["oracle", "--problem", "allen_cahn", "--d", "1",
                 "--grid", grid, "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "--grid" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("width", ["nan", "inf"])
def test_cli_oracle_non_finite_half_width_exits_2(tmp_path, capsys, width):
    # these once marched and exited 3 with non-finite values at time step 0
    code = main(["oracle", "--problem", "allen_cahn", "--d", "1",
                 "--grid", f"100,10,{width}", "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "half_width must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("problem, flags", [
    ("heat", ["--lambda", "5"]),
    ("heat", ["--grid", "50"]),
    # a flag the route does read excuses none that it never reads
    ("hjb", ["--grid", "50", "--samples", "64", "--seed", "3"]),
    ("hjb", ["--grid", "50"]),
    ("allen_cahn", ["--samples", "7"]),
    ("allen_cahn", ["--samples", "7", "--grid", "50"]),
    ("allen_cahn", ["--lambda", "1"]),
    ("allen_cahn", ["--seed", "5"]),
])
def test_cli_oracle_flag_its_route_never_reads_exits_2(tmp_path, capsys, problem, flags):
    code = main(["oracle", "--problem", problem, "--d", "1", *flags,
                 "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert f"{flags[0]} has no effect" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_cli_oracle_steps_is_an_unknown_flag(tmp_path):
    # terminal draws are exact, so no route reads a path grid
    with pytest.raises(SystemExit) as info:
        main(["oracle", "--problem", "heat", "--d", "1", "--steps", "3",
              "--out", str(tmp_path / "o.json")])
    assert info.value.code == 2
    assert not (tmp_path / "o.json").exists()


def test_cli_eval_round_trip(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["eval", "--params", str(out / "params.json"), "--problem", "heat",
                 "--samples", "512"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "u(0, xi)" in stdout or "estimate" in stdout


def test_cli_eval_problem_mismatch_exits_2(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["eval", "--params", str(out / "params.json"),
                 "--problem", "allen_cahn", "--samples", "64"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_eval_box_start_rebuilds_the_trained_problem(tmp_path, capsys):
    text = TINY + "T = 0.7\nxi_mode = box\nbox_low = -0.5, 0\nbox_high = 0.25\n"
    cfg = parse_config_text(text)
    out = tmp_path / "out"
    assert main(["train", "--config", str(_write_config(tmp_path, text)),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    bank, _ = load_archive(out / "params.json")
    mean, _ = estimate_u0(bank, cfg.build_problem(), 256, RngStream(9))
    code = main(["eval", "--params", str(out / "params.json"), "--problem", "heat",
                 "--samples", "256", "--seed", "9"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0].startswith(f"u(0, xi) = {mean:.10g} ")
    # a box start has no single point to compare the exact solution at
    assert "exact:" not in stdout


@pytest.mark.parametrize("xi_mode, contrary", [("point", "box"), ("box", "point")])
def test_cli_eval_uses_the_banks_start_law_over_a_contrary_one(tmp_path, capsys,
                                                               xi_mode, contrary):
    # xi_mode is a field of the bank's fingerprint, which save_params writes
    # over config_extra, so an archive cannot pair a bank with another law
    bank = _fresh_bank(xi_mode)
    path = tmp_path / "params.json"
    save_params(bank, {"problem": "heat", "xi_mode": contrary}, path)
    assert json.loads(path.read_text())["config"]["xi_mode"] == xi_mode
    problem = get_problem("heat", bank.d, {"xi_mode": xi_mode})
    mean, spread = estimate_u0(bank, problem, 64, RngStream(3))
    code = main(["eval", "--params", str(path), "--problem", "heat",
                 "--samples", "64", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"u(0, xi) = {mean:.10g} (spread {spread:.4g} over 64 draws)"
    # only a point start has the single value the exact solution is compared at
    assert ("exact:" in out) == (xi_mode == "point")


def test_cli_eval_archive_without_xi_mode_exits_2(tmp_path, capsys):
    path = tmp_path / "params.json"
    save_params(_fresh_bank(), {"problem": "heat"}, path)
    doc = json.loads(path.read_text())
    del doc["config"]["xi_mode"]
    path.write_text(json.dumps(doc))
    code = main(["eval", "--params", str(path), "--problem", "heat"])
    assert code == 2
    assert "archive config lacks 'xi_mode'" in capsys.readouterr().err


def test_cli_eval_bare_archive_uses_problem_defaults(tmp_path, capsys):
    bank = _fresh_bank("point")
    path = tmp_path / "params.json"
    save_params(bank, None, path)
    problem = get_problem("heat", bank.d)
    mean, _ = estimate_u0(bank, problem, 128, RngStream(4))
    code = main(["eval", "--params", str(path), "--problem", "heat",
                 "--samples", "128", "--seed", "4"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"u(0, xi) = {mean:.10g} ")
    # heat's exact u(0, 0) = 2 d T with the default T = 1 and xi0 = 0
    assert lines[1].startswith(f"exact:     {2.0 * bank.d:.10g} ")


def test_cli_eval_zero_samples_exits_2(tmp_path, capsys):
    path = tmp_path / "params.json"
    save_params(_fresh_bank("point"), None, path)
    code = main(["eval", "--params", str(path), "--problem", "heat", "--samples", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert "n_eval must be at least 1" in captured.err
    assert "over 0 draws" not in captured.out


def test_cli_eval_non_finite_archive_exits_2(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    archive = (out / "params.json").read_text()
    for kind in DAMAGES + MORE_DAMAGES:
        damaged = tmp_path / f"{kind}.json"
        damaged.write_text(archive)
        _, message = _damage_archive(damaged, kind)
        code = main(["eval", "--params", str(damaged), "--problem", "heat"])
        assert code == 2, kind
        assert re.search(message, capsys.readouterr().err), kind


def test_cli_eval_bad_architecture_field_exits_2(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "params.json").read_text())
    # 2.7 once loaded as d = 2; the others failed with exit code 1
    for key, value in [("d", "x"), ("d", 2.7), ("d", True), ("hidden", 5),
                       ("hidden", "ab"), ("hidden", [12, 12.0]), ("num_steps", None)]:
        damaged = tmp_path / "damaged.json"
        damaged.write_text(json.dumps({**doc, "config": {**doc["config"], key: value}}))
        code = main(["eval", "--params", str(damaged), "--problem", "heat"])
        assert code == 2, (key, value)
        assert f"archive config '{key}' must be" in capsys.readouterr().err, (key, value)


@pytest.mark.parametrize("setting",[{"T": "abc"}, {"T": True}, {"T": float("inf")},
                                     {"xi0": ["x", 1]}])
def test_cli_eval_non_numeric_problem_setting_exits_2(tmp_path, capsys, setting):
    path = tmp_path / "params.json"
    save_params(_fresh_bank("point"), {"problem": "heat", **setting}, path)
    code = main(["eval", "--params", str(path), "--problem", "heat"])
    assert code == 2
    key = next(iter(setting))
    assert re.search(f"'{key}' must be a finite number", capsys.readouterr().err)


def test_module_entry_point_subprocess(tmp_path):
    """python -m deepbsde behaves like the installed console script.

    The child gets an absolute package path through env=, since a relative
    PYTHONPATH such as ``src`` does not resolve from cwd=tmp_path.
    """
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    env = dict(os.environ)
    package_root = str(Path(deepbsde.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "deepbsde", "train", "--config", str(cfg_path),
         "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "params.json").exists()

    proc = subprocess.run(
        [sys.executable, "-m", "deepbsde", "train", "--config",
         str(tmp_path / "absent.cfg")],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 4


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["schmain"])
    assert info.value.code == 2


def test_cli_oracle_non_numeric_x0_exits_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["oracle", "--problem", "heat", "--d", "2", "--x0", "abc",
              "--out", str(tmp_path / "o.json")])
    assert info.value.code == 2


def test_every_exported_name_exists_once():
    # `from deepbsde import *` fails on a name __all__ lists but the package lacks
    names = deepbsde.__all__
    assert sorted(set(names)) == sorted(names)
    assert [name for name in names if not hasattr(deepbsde, name)] == []
    namespace = {}
    exec("from deepbsde import *", namespace)
    assert set(names) <= set(namespace)
