"""Flat `key = value` run configuration.

Files are UTF-8 text, one option per line, `#` starts a comment, list
values are comma separated. RunConfig's field annotations are the one table
of settings: a field's kind (int, float or str, or a tuple of one) says how
the parser reads its text and how `__post_init__` checks its value, from a
file as from Python. A file key is a field's name, `lambda` for `lam`;
`batch` and `lr` are the same keys as `batch_size` and `lr_values`, so
setting both of a pair is a repeated key. Unknown keys are rejected with the
accepted list so typos fail loudly.

Every value is checked at parse time: its kind (an integer that is no bool,
a finite float, a non-empty string, or a tuple or list of them, so the
records are plain JSON), the counts, rates, boundaries and grad_clip here,
the problem settings and the network shape by the code that builds them
(`get_problem`, `net.layout`), so a wrong-length xi0, an unknown sharing or
a zero hidden width fails before training. So does a key that would change
nothing: a start-law key the chosen xi_mode ignores, or lambda for any
problem but hjb.
"""

import dataclasses
import math
import numbers
from typing import get_args

from .errors import ConfigError
from .net import SubnetBank, default_hidden, layout
from .problems import as_number, get_problem

OPTIMIZERS = ("adam", "sgd")


@dataclasses.dataclass
class RunConfig:
    problem: str
    d: int
    N: int
    batch_size: int
    iterations: int
    seed: int
    T: float = 1.0
    optimizer: str = "adam"
    lr_values: tuple[float, ...] = (5e-3,)
    lr_boundaries: tuple[int, ...] = ()
    grad_clip: float = 0.0
    hidden: tuple[int, ...] | None = None
    activation: str = "tanh"
    sharing: str = "independent"
    xi_mode: str = "point"
    xi0: tuple[float, ...] = (0.0,)
    box_low: tuple[float, ...] = (-1.0,)
    box_high: tuple[float, ...] = (1.0,)
    lam: float = 1.0
    eval_every: int = 100
    eval_samples: int = 1024
    output_dir: str = "out"

    def __post_init__(self):
        for field in dataclasses.fields(self):
            key, value = field.name, getattr(self, field.name)
            if value is None and type(None) in get_args(field.type):
                continue
            element, listed = _kind(field.type)
            check = _ELEMENTS[element][0]
            setattr(self, key, _each(check, value, key) if listed else check(value, key))
        for key in ("d", "N", "batch_size", "eval_every", "eval_samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"'{key}' must be at least 1, got {getattr(self, key)}")
        if self.iterations < 0:
            raise ConfigError(f"'iterations' must be non-negative, got {self.iterations}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer '{self.optimizer}' (expected one of {OPTIMIZERS})")
        if self.grad_clip < 0.0:
            raise ConfigError(f"'grad_clip' must be non-negative, got {self.grad_clip}")
        if len(self.lr_values) != len(self.lr_boundaries) + 1:
            raise ConfigError(
                f"'lr_values' needs exactly one more entry than 'lr_boundaries', "
                f"got {len(self.lr_values)} and {len(self.lr_boundaries)}"
            )
        if any(r <= 0.0 for r in self.lr_values):
            raise ConfigError(f"learning rates must be positive, got {self.lr_values}")
        if any(b <= a for a, b in zip((0,) + self.lr_boundaries, self.lr_boundaries)):
            raise ConfigError(
                f"'lr_boundaries' must be strictly increasing from above 0, got {self.lr_boundaries}"
            )
        self.build_problem()
        # one step has every check of N steps, without naming N steps' tensors
        layout(self.xi_mode, self.sharing, self.d, 1, self.hidden_widths(), self.activation)

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


def _integer(value, key):
    """int(value) for an integer, numpy's too; else a ConfigError naming key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return int(value)


def _string(value, key):
    """value for a non-empty string; else a ConfigError naming key."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"'{key}' must be a non-empty string, got {value!r}")
    return value


def _each(check, values, key):
    """tuple(check(v, key) for v in values) for a tuple or list of values."""
    if not isinstance(values, (tuple, list)):
        raise ConfigError(f"'{key}' must be a list, got {values!r}")
    return tuple(check(v, key) for v in values)


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _kind(annotation):
    """(element type, whether a list) of a RunConfig annotation: int, float
    or str, or tuple[<one of them>, ...], either of them maybe `| None`."""
    args = get_args(annotation)
    if type(None) in args:
        return _kind(args[0])
    return (args[0], True) if args else (annotation, False)


# element type -> (check of a value from Python, reader of a value's text)
_ELEMENTS = {
    int: (_integer, lambda text: int(text, 0)),
    float: (as_number, _parse_float),
    str: (_string, str),
}

# file key -> RunConfig field: each field by its own name but lam, and three aliases
_KEYS = {f.name: f.name for f in dataclasses.fields(RunConfig) if f.name != "lam"} | {
    "batch": "batch_size", "lr": "lr_values", "lambda": "lam"}
_REQUIRED = tuple(f.name for f in dataclasses.fields(RunConfig) if f.default is dataclasses.MISSING)


def _read(text, annotation):
    """The value a file's text gives a field of this annotation."""
    element, listed = _kind(annotation)
    read = _ELEMENTS[element][1]
    if listed:
        return tuple(read(part.strip()) for part in text.split(",") if part.strip())
    return read(text)


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
        if key not in _KEYS:
            raise ConfigError(
                f"{source}:{lineno}: unknown key '{key}' (accepted: {', '.join(sorted(_KEYS))})"
            )
        target = _KEYS[key]
        if target in seen:
            first, line = seen[target]
            raise ConfigError(f"{source}:{lineno}: key '{key}' already set on line {line} by '{first}'")
        seen[target] = key, lineno
        try:
            fields[target] = _read(value, RunConfig.__annotations__[target])
        except ValueError as e:
            raise ConfigError(f"{source}:{lineno}: bad value for '{key}': {e}") from e
    missing = [key for key in _REQUIRED if key not in fields]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(missing)}")
    config = RunConfig(**fields)
    # a key the file sets must reach the run: the start law and lambda reach
    # it only through problem_overrides
    reaching = config.problem_overrides()
    for key in ("xi0", "box_low", "box_high", "lambda"):
        target = _KEYS[key]
        if target in fields and key not in reaching:
            raise ConfigError(
                f"{source}:{seen[target][1]}: '{key}' has no effect with problem = "
                f"{config.problem} and xi_mode = {config.xi_mode}"
            )
    return config


def parse_config(path):
    """Read and parse a config file; I/O problems raise OSError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8 text: {e}") from e
    return parse_config_text(text, source=str(path))
