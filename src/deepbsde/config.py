"""Flat `key = value` run configuration.

Files are UTF-8 text, one option per line, `#` starts a comment, list
values are comma separated. Every key is checked against the schema below;
unknown keys are rejected with the accepted list so typos fail loudly.

The problem settings, the learning-rate schedule and the network shape are
checked by building them (`get_problem`, `LrSchedule`, `MLPConfig`), so a
wrong-length xi0, a negative rate, unordered boundaries or an unknown
activation fails at parse time. So does a key that would change nothing:
a start-law key the chosen xi_mode ignores, lambda for a problem other than
hjb, or lr next to lr_values.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .net import SHARINGS, MLPConfig, SubnetBank, default_hidden
from .optim import LrSchedule
from .problems import get_problem

OPTIMIZERS = ("adam", "sgd")


@dataclass
class RunConfig:
    problem: str
    d: int
    N: int
    batch_size: int
    iterations: int
    seed: int
    T: float = 1.0
    optimizer: str = "adam"
    lr: float = 5e-3
    lr_values: tuple | None = None
    lr_boundaries: tuple | None = None
    grad_clip: float = 0.0
    hidden: tuple | None = None
    activation: str = "tanh"
    sharing: str = "independent"
    xi_mode: str = "point"
    xi0: tuple = (0.0,)
    box_low: tuple = (-1.0,)
    box_high: tuple = (1.0,)
    lam: float = 1.0
    eval_every: int = 100
    eval_samples: int = 1024
    output_dir: str = "out"

    def __post_init__(self):
        for key in ("d", "N", "batch_size", "eval_every", "eval_samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"'{key}' must be at least 1, got {getattr(self, key)}")
        if self.iterations < 0:
            raise ConfigError(f"'iterations' must be non-negative, got {self.iterations}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer '{self.optimizer}' (expected one of {OPTIMIZERS})")
        if self.lr <= 0.0:
            raise ConfigError(f"'lr' must be positive, got {self.lr}")
        if self.grad_clip < 0.0:
            raise ConfigError(f"'grad_clip' must be non-negative, got {self.grad_clip}")
        if self.sharing not in SHARINGS:
            raise ConfigError(f"unknown sharing '{self.sharing}' (expected one of {SHARINGS})")
        if (self.lr_values is None) != (self.lr_boundaries is None):
            raise ConfigError("'lr_values' and 'lr_boundaries' must be given together")
        if self.lr_values is not None:
            if len(self.lr_values) != len(self.lr_boundaries) + 1:
                raise ConfigError(
                    f"'lr_values' needs exactly one more entry than 'lr_boundaries', "
                    f"got {len(self.lr_values)} and {len(self.lr_boundaries)}"
                )
        if self.hidden is not None and any(w < 1 for w in self.hidden):
            raise ConfigError(f"'hidden' widths must be positive, got {self.hidden}")
        self.build_problem()
        self.schedule()
        MLPConfig((self.d, *self.hidden_widths(), self.d), self.activation)

    def schedule(self):
        if self.lr_values is None:
            return LrSchedule.constant(self.lr)
        entries = [(0, self.lr_values[0])]
        entries += list(zip(self.lr_boundaries, self.lr_values[1:]))
        return LrSchedule(tuple(entries))

    def hidden_widths(self):
        return self.hidden if self.hidden is not None else default_hidden(self.d)

    def problem_overrides(self):
        out = {"T": self.T, "xi_mode": self.xi_mode}
        if self.xi_mode == "point":
            out["xi0"] = self.xi0
        else:
            out["box_low"] = self.box_low
            out["box_high"] = self.box_high
        if self.problem == "hjb":
            out["lambda"] = self.lam
        return out

    def build_problem(self):
        return get_problem(self.problem, self.d, self.problem_overrides())

    def build_bank(self, seed):
        return SubnetBank.create(
            self.xi_mode, self.sharing, self.d, self.N,
            hidden=self.hidden_widths(), activation=self.activation, seed=seed,
        )


def _parse_int(text):
    return int(text, 0)


def _parse_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _parse_str(text):
    return text


def _parse_float_list(text):
    return tuple(_parse_float(part.strip()) for part in text.split(",") if part.strip())


def _parse_int_list(text):
    return tuple(_parse_int(part.strip()) for part in text.split(",") if part.strip())


# key -> (RunConfig field, parser); aliases map onto the same field
_SCHEMA = {
    "problem": ("problem", _parse_str),
    "d": ("d", _parse_int),
    "T": ("T", _parse_float),
    "N": ("N", _parse_int),
    "batch_size": ("batch_size", _parse_int),
    "batch": ("batch_size", _parse_int),
    "iterations": ("iterations", _parse_int),
    "seed": ("seed", _parse_int),
    "optimizer": ("optimizer", _parse_str),
    "lr": ("lr", _parse_float),
    "lr_values": ("lr_values", _parse_float_list),
    "lr_boundaries": ("lr_boundaries", _parse_int_list),
    "grad_clip": ("grad_clip", _parse_float),
    "hidden": ("hidden", _parse_int_list),
    "activation": ("activation", _parse_str),
    "sharing": ("sharing", _parse_str),
    "xi_mode": ("xi_mode", _parse_str),
    "xi0": ("xi0", _parse_float_list),
    "box_low": ("box_low", _parse_float_list),
    "box_high": ("box_high", _parse_float_list),
    "lambda": ("lam", _parse_float),
    "eval_every": ("eval_every", _parse_int),
    "eval_samples": ("eval_samples", _parse_int),
    "output_dir": ("output_dir", _parse_str),
}

_REQUIRED = ("problem", "d", "N", "batch_size", "iterations", "seed")


def parse_config_text(text, source="<config>"):
    """Parse config text into a validated RunConfig."""
    fields = {}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(
                f"{source}:{lineno}: unknown key '{key}' (accepted: {', '.join(sorted(_SCHEMA))})"
            )
        target, parser = _SCHEMA[key]
        if target in seen:
            raise ConfigError(f"{source}:{lineno}: key '{key}' already set on line {seen[target]}")
        seen[target] = lineno
        try:
            fields[target] = parser(value)
        except ValueError as e:
            raise ConfigError(f"{source}:{lineno}: bad value for '{key}': {e}") from e
    missing = [key for key in _REQUIRED if key not in fields]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(missing)}")
    config = RunConfig(**fields)
    # a key the file sets must reach the run: the start law and lambda reach
    # it only through problem_overrides, and lr_values replace lr
    reaching = config.problem_overrides()
    for key in ("xi0", "box_low", "box_high", "lambda"):
        target = _SCHEMA[key][0]
        if target in fields and key not in reaching:
            raise ConfigError(
                f"{source}:{seen[target]}: '{key}' has no effect with problem = "
                f"{config.problem} and xi_mode = {config.xi_mode}"
            )
    if "lr" in fields and "lr_values" in fields:
        raise ConfigError(f"{source}:{seen['lr']}: 'lr' has no effect when 'lr_values' is given")
    return config


def parse_config(path):
    """Read and parse a config file; wraps I/O problems as OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, source=str(path))
