"""Config parsing: schema, aliases, defaults, and error reporting."""

import math

import numpy as np
import pytest

from deepbsde.config import RunConfig, parse_config, parse_config_text
from deepbsde.errors import ConfigError
from deepbsde.optim import lr_at

MINIMAL = """
problem = heat
d = 2
N = 20
batch = 256
iterations = 2000
seed = 1
"""


def test_minimal_config_parses():
    cfg = parse_config_text(MINIMAL)
    assert cfg.problem == "heat"
    assert cfg.d == 2
    assert cfg.N == 20
    assert cfg.batch_size == 256  # 'batch' is an alias
    assert cfg.iterations == 2000
    assert cfg.seed == 1


def test_minimal_config_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.T == 1.0
    assert cfg.optimizer == "adam"
    assert cfg.lr_values == (5e-3,) and cfg.lr_boundaries == ()
    assert cfg.xi_mode == "point"
    # a point start builds the scalar-head bank
    assert cfg.build_bank(seed=0).y0_net is None
    assert cfg.sharing == "independent"
    assert cfg.activation == "tanh"
    assert cfg.hidden is None
    assert cfg.hidden_widths() == (12, 12)


def test_comments_and_blank_lines_ignored():
    text = """
    # leading comment
    problem = heat   # trailing comment
    d = 2

    N = 20
    batch_size = 256
    iterations = 10
    seed = 7
    """
    cfg = parse_config_text(text)
    assert cfg.problem == "heat"
    assert cfg.seed == 7


def test_zero_batch_size_rejected():
    text = MINIMAL.replace("batch = 256", "batch_size = 0")
    with pytest.raises(ConfigError, match="'batch_size' must be at least 1"):
        parse_config_text(text)


def test_unknown_key_lists_accepted():
    text = MINIMAL + "momentum_rate = 0.9\n"
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    message = str(info.value)
    assert "momentum_rate" in message
    # the accepted list should be in the message so typos are self-serve
    assert "batch_size" in message
    assert "lr" in message


def test_duplicate_key_rejected():
    text = MINIMAL + "d = 3\n"
    with pytest.raises(ConfigError, match="'d' already set"):
        parse_config_text(text)


def test_alias_collides_with_canonical_key():
    # batch and batch_size write the same field; giving both is a duplicate
    text = MINIMAL + "batch_size = 128\n"
    with pytest.raises(ConfigError, match="already set on line 5 by 'batch'"):
        parse_config_text(text)


@pytest.mark.parametrize("extra, message", [
    ("lr = 0.01\nlr_values = 0.01, 0.001\nlr_boundaries = 500",
     r"run\.cfg:9: key 'lr_values' already set on line 8 by 'lr'"),
    ("lr_values = 0.01, 0.001\nlr_boundaries = 500\nlr = 0.01",
     r"run\.cfg:10: key 'lr' already set on line 8 by 'lr_values'"),
], ids=["lr-first", "lr_values-first"])
def test_lr_next_to_lr_values_is_a_repeated_key(extra, message):
    # lr = r is the schedule lr_values = r, so the message names the key
    # that set it first
    with pytest.raises(ConfigError, match=message):
        parse_config_text(MINIMAL + extra + "\n", source="run.cfg")


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError) as info:
        parse_config_text("problem = heat\nd = 2\n")
    message = str(info.value)
    assert "missing required keys" in message
    for key in ("N", "batch_size", "iterations", "seed"):
        assert key in message


def test_bad_value_reports_file_and_line():
    text = "problem = heat\nd = 2\nN = 20\nbatch = 256\niterations = 2000\nseed = 1\nlr = banana\n"
    with pytest.raises(ConfigError, match=r"run\.cfg:7: bad value for 'lr'"):
        parse_config_text(text, source="run.cfg")


def test_line_without_equals_rejected():
    text = MINIMAL + "just some words\n"
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text(text)


def test_non_finite_float_rejected():
    text = MINIMAL + "lr = inf\n"
    with pytest.raises(ConfigError, match="non-finite"):
        parse_config_text(text)


def test_comma_lists():
    text = MINIMAL + "hidden = 32, 32, 16\nxi0 = 0.5, -0.5\n"
    cfg = parse_config_text(text)
    assert cfg.hidden == (32, 32, 16)
    assert cfg.hidden_widths() == (32, 32, 16)
    assert cfg.xi0 == (0.5, -0.5)


def test_lambda_alias():
    text = MINIMAL.replace("problem = heat", "problem = hjb") + "lambda = 2.5\n"
    cfg = parse_config_text(text)
    assert cfg.lam == pytest.approx(2.5)
    assert cfg.problem_overrides()["lambda"] == pytest.approx(2.5)


def test_lambda_only_forwarded_for_hjb():
    cfg = parse_config_text(MINIMAL)
    assert "lambda" not in cfg.problem_overrides()


def test_lr_schedule_pairing():
    text = MINIMAL + "lr_values = 0.01, 0.001\nlr_boundaries = 500\n"
    cfg = parse_config_text(text)
    assert cfg.lr_values == (0.01, 0.001) and cfg.lr_boundaries == (500,)
    assert lr_at(cfg.lr_values, cfg.lr_boundaries, 0) == 0.01
    assert lr_at(cfg.lr_values, cfg.lr_boundaries, 499) == 0.01
    assert lr_at(cfg.lr_values, cfg.lr_boundaries, 500) == 0.001


def test_lr_values_without_boundaries_rejected():
    # lr_values default to one rate and lr_boundaries to none, so each of
    # these is a length mismatch
    for extra in ("lr_values = 0.01, 0.001", "lr_boundaries = 500",
                  "lr = 0.01\nlr_boundaries = 500", "lr_values ="):
        with pytest.raises(ConfigError, match="one more entry"):
            parse_config_text(MINIMAL + extra + "\n")


def test_lr_pairing_length_mismatch():
    text = MINIMAL + "lr_values = 0.01, 0.001, 0.0001\nlr_boundaries = 500\n"
    with pytest.raises(ConfigError, match="one more entry"):
        parse_config_text(text)


def test_constant_schedule_from_lr():
    cfg = parse_config_text(MINIMAL + "lr = 0.02\n")
    assert cfg.lr_values == (0.02,) and cfg.lr_boundaries == ()
    assert lr_at(cfg.lr_values, cfg.lr_boundaries, 0) == 0.02
    assert lr_at(cfg.lr_values, cfg.lr_boundaries, 10 ** 6) == 0.02
    # lr = r is the one-entry schedule, over the default empty boundaries
    assert parse_config_text(MINIMAL + "lr_values = 0.02\n") == cfg
    assert parse_config_text(MINIMAL + "lr = 0.02\nlr_boundaries =\n") == cfg


def test_box_start_defaults_to_general_mode():
    text = MINIMAL + "xi_mode = box\nbox_low = -1, -1\nbox_high = 1, 1\n"
    cfg = parse_config_text(text)
    bank = cfg.build_bank(seed=0)
    assert bank.xi_mode == "box" and bank.y0_net is not None
    overrides = cfg.problem_overrides()
    assert overrides["box_low"] == (-1.0, -1.0)
    assert "xi0" not in overrides


def test_mode_is_not_a_config_key():
    # the bank follows from xi_mode alone
    with pytest.raises(ConfigError, match="unknown key 'mode'"):
        parse_config_text(MINIMAL + "mode = point\n")


def test_wrong_length_start_point_rejected_at_parse():
    with pytest.raises(ConfigError, match="'xi0' needs 1 or 2 entries, got 3"):
        parse_config_text(MINIMAL + "xi0 = 1, 2, 3\n")
    text = MINIMAL + "xi_mode = box\nbox_low = -1, -1, -1\n"
    with pytest.raises(ConfigError, match="'box_low' needs 1 or 2 entries, got 3"):
        parse_config_text(text)
    text = MINIMAL.replace("d = 2", "d = 1") + "xi0 = 1, 2\n"
    with pytest.raises(ConfigError, match="'xi0' needs 1 entry, got 2"):
        parse_config_text(text)


def test_unknown_enum_values_rejected():
    for extra, fragment in [
        ("optimizer = lbfgs", "unknown optimizer"),
        ("sharing = tied", "unknown sharing"),
        ("xi_mode = gaussian", "unknown xi_mode"),
    ]:
        with pytest.raises(ConfigError, match=fragment):
            parse_config_text(MINIMAL + extra + "\n")


def test_unknown_problem_rejected():
    with pytest.raises(ConfigError, match="unknown problem 'kpz'"):
        parse_config_text(MINIMAL.replace("problem = heat", "problem = kpz"))


def test_value_range_checks():
    cases = [
        ("T = -1.0", "'T' must be positive"),
        ("iterations = -1", "'iterations' must be non-negative"),
        # Adam's betas and eps keep their defaults; no config sets them
        ("beta1 = 1.0", "unknown key 'beta1'"),
        ("eps = 0.0", "unknown key 'eps'"),
        ("beta2 = 0.5", "unknown key 'beta2'"),
        ("grad_clip = -0.5", "'grad_clip' must be non-negative"),
        ("hidden = 8, 0", "layer widths must be positive"),
        ("lr = 0", "rates must be positive"),
        ("lr = -0.01", "rates must be positive"),
    ]
    for extra, fragment in cases:
        base = MINIMAL.replace("iterations = 2000\n", "") if extra.startswith("iterations") \
            else MINIMAL
        with pytest.raises(ConfigError, match=fragment):
            parse_config_text(base + extra + "\n")


def test_schedule_and_network_shape_checked_at_parse_time():
    cases = [
        ("lr_values = 0.01, -0.1\nlr_boundaries = 10", "rates must be positive"),
        ("lr_values = 0.01, 0.1, 0.2\nlr_boundaries = 10, 5", "strictly increasing"),
        ("lr_values = 0.01, 0.1\nlr_boundaries = 0", "strictly increasing"),
        ("lr_values = 0.01, 0.1, 0.2\nlr_boundaries = 10, 10", "strictly increasing"),
        ("lr_values = 0.01, 0.1\nlr_boundaries = -5", "strictly increasing"),
        ("activation = foo", "unknown activation 'foo'"),
    ]
    for extra, fragment in cases:
        with pytest.raises(ConfigError, match=fragment):
            parse_config_text(MINIMAL + extra + "\n")


@pytest.mark.parametrize("extra, key, line", [
    ("box_low = -1, -1", "box_low", 8),
    ("box_high = 1", "box_high", 8),
    ("xi_mode = box\nxi0 = 0.5", "xi0", 9),
    ("lambda = 2.0", "lambda", 8),
], ids=["box_low", "box_high", "xi0", "lambda"])
def test_key_that_would_change_nothing_rejected(extra, key, line):
    # MINIMAL (seven lines) is heat from a point start, so each key would be ignored
    with pytest.raises(ConfigError, match=rf"run\.cfg:{line}: '{key}' has no effect"):
        parse_config_text(MINIMAL + extra + "\n", source="run.cfg")


def test_nonpositive_lambda_rejected_by_the_problem():
    text = MINIMAL.replace("problem = heat", "problem = hjb") + "lambda = -1.0\n"
    with pytest.raises(ConfigError, match="'lambda' must be positive"):
        parse_config_text(text)


def test_parse_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL, encoding="utf-8")
    cfg = parse_config(path)
    assert cfg.problem == "heat"


def test_parse_config_error_names_the_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL + "lr = banana\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="run.cfg"):
        parse_config(path)


def test_parse_config_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_config(tmp_path / "nope.cfg")


def test_build_problem_applies_overrides():
    text = MINIMAL + "T = 0.5\nxi0 = 1.0, 2.0\n"
    cfg = parse_config_text(text)
    problem = cfg.build_problem()
    assert problem.T == pytest.approx(0.5)
    assert problem.d == 2


def test_build_bank_matches_config():
    cfg = parse_config_text(MINIMAL + "hidden = 6, 6\n")
    bank = cfg.build_bank(seed=3)
    assert bank.xi_mode == "point"
    assert bank.d == 2
    assert bank.num_steps == 20
    assert [(w.shape, b.shape) for w, b in bank.z_nets[1]] == [
        ((2, 6), (6,)), ((6, 6), (6,)), ((6, 2), (2,))]


def test_runconfig_direct_construction_validates():
    with pytest.raises(ConfigError, match="'d' must be at least 1"):
        RunConfig(problem="heat", d=0, N=20, batch_size=8, iterations=1, seed=0)


@pytest.mark.parametrize("hidden", [(6.5,), (8, 4.0), (True,), 6, "8"],
                         ids=["fraction", "float", "bool", "bare-int", "string"])
def test_runconfig_rejects_non_integer_widths(hidden):
    # a width of 6.5 once trained width-6 nets while the run summary said 6.5
    with pytest.raises(ConfigError, match="'hidden'"):
        RunConfig(problem="heat", d=2, N=4, batch_size=8, iterations=1, seed=0, hidden=hidden)


def test_runconfig_stores_integer_widths_as_python_ints():
    cfg = RunConfig(problem="heat", d=2, N=4, batch_size=8, iterations=1, seed=0,
                    hidden=[np.int64(6), 5])
    assert cfg.hidden == (6, 5)
    assert all(type(w) is int for w in cfg.hidden)


@pytest.mark.parametrize("field, value", [
    ("grad_clip", math.inf), ("grad_clip", math.nan), ("grad_clip", True), ("lam", math.inf),
    ("N", 2.0), ("batch_size", 8.5), ("iterations", 1.5), ("seed", 1.5), ("eval_every", True),
    ("lr_boundaries", (1.5,)), ("lr_boundaries", 2), ("lr_values", (math.inf, 0.1)), ("lr_values", 0.1),
], ids=["clip-inf", "clip-nan", "clip-bool", "lam-inf", "N-float", "batch-fraction",
        "iterations-fraction", "seed-fraction", "eval-every-bool", "boundary-fraction",
        "boundaries-bare", "rate-inf", "rates-bare"])
def test_runconfig_rejects_what_the_parser_rejects_in_text(field, value):
    # in Python these once trained, failed with TypeError, rounded a
    # boundary down or wrote Infinity and NaN into the JSON records
    fields = dict(problem="heat", d=2, N=4, batch_size=8, iterations=1, seed=0,
                  lr_values=(0.1, 0.01), lr_boundaries=(2,))
    fields[field] = value
    with pytest.raises(ConfigError, match=f"'{field}' must be (an integer|a finite number|a list)"):
        RunConfig(**fields)


def test_runconfig_stores_python_numbers():
    # T = 1 once echoed as 1 where the parsed text echoes 1.0
    cfg = RunConfig(problem="heat", d=np.int64(2), N=np.int64(4), batch_size=8, iterations=1,
                    seed=0, T=1, grad_clip=np.float32(0.5), lr_boundaries=[np.int64(2)],
                    lr_values=(0.1, np.float64(0.01)))
    assert (cfg.d, cfg.N, cfg.T, cfg.grad_clip, cfg.lr_boundaries) == (2, 4, 1.0, 0.5, (2,))
    assert type(cfg.d) is int and type(cfg.N) is int and type(cfg.T) is float
    assert type(cfg.grad_clip) is float
    assert type(cfg.lr_boundaries[0]) is int and all(type(r) is float for r in cfg.lr_values)
