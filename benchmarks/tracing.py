"""Per-layer spans for the traced run, recorded from outside the program.

The tracer swaps public deepbsde functions for timing wrappers by replacing
module attributes in this process only; no file of the package changes.
Spans stay in memory and are summarised once the run ends. A function that
no longer exists is reported as an absent layer instead of an error.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np

import deepbsde
from deepbsde import oracle, sde, train

MIB = float(1 << 20)


@dataclass(frozen=True)
class Span:
    label: str
    phase: str
    round: int
    start: float
    end: float
    count: float

    @property
    def seconds(self):
        return self.end - self.start


def _simulated_paths(args, kwargs, out):
    return args[2]


def _block_normals(args, kwargs, out):
    stream, stage, lo, hi, n = args
    return (hi - lo) * n


def _stream_normals(args, kwargs, out):
    return args[1]


def _tape_nodes(args, kwargs, out):
    return len(args[0])


def _fd_steps(args, kwargs, out):
    return out.info["time_steps"]


# (owner, attribute, layer label, count taken from the call); the owner is
# the namespace the caller looks the name up in, so run_train's calls are
# wrapped in deepbsde.train and the benchmark's own calls in deepbsde.
TARGETS = (
    (train, "simulate_paths", "simulate", _simulated_paths),
    (train, "rollout_loss", "forward", _tape_nodes),
    (train, "backward", "backward", None),
    (train, "adam_step", "update", None),
    (train, "unflatten_params", "unflatten", None),
    (train, "estimate_u0", "eval_row_u0", None),
    (train, "write_metrics", "eval_row_write", None),
    (train, "save_params", "archive_write", None),
    (oracle, "simulate_paths", "simulate", _simulated_paths),
    (deepbsde, "simulate_paths", "simulate", _simulated_paths),
    (deepbsde, "rollout_values", "values", None),
    (deepbsde, "load_archive", "archive_read", None),
    (deepbsde, "mc_feynman_kac", "mc", None),
    (deepbsde, "cole_hopf_mc", "cole_hopf", None),
    (deepbsde, "fd_semilinear_1d", "fd", _fd_steps),
    (sde, "block_normals", "normals", _block_normals),
    (sde.RngStream, "normals", "normals", _stream_normals),
)

# the calls run_train makes directly; the rest of train_s is unattributed
TRAIN_LABELS = ("simulate", "forward", "backward", "update", "unflatten",
                "eval_row_u0", "eval_row_write", "archive_write")


def tape_bytes(tape):
    """Bytes of the values and adjoints a tape holds."""
    total = 0
    for node in tape.nodes:
        total += node.value.nbytes
        if node.adjoint is not None:
            total += node.adjoint.nbytes
    return total


class Tracer:
    """Span recorder; `phase` and `round` are set by the runner, and a
    wrapper records only while `phase` is not None."""

    def __init__(self):
        self.phase = None
        self.round = 0
        self.spans = []
        self.absent = set()
        self.tape_bytes = {}
        self._saved = []

    def install(self):
        self.absent.clear()
        for owner, attr, label, count in TARGETS:
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.add(label)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, label, count))

    def restore(self):
        """Put back every original; safe to call when nothing is installed."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, label, count):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return original(*args, **kwargs)
            start = time.perf_counter()
            out = original(*args, **kwargs)
            end = time.perf_counter()
            n = count(args, kwargs, out) if count is not None else 1
            tracer.spans.append(Span(label, tracer.phase, tracer.round, start, end, n))
            if label == "backward" and tracer.round not in tracer.tape_bytes:
                # one step's tape is the same size every step; sum it once
                tracer.tape_bytes[tracer.round] = tape_bytes(args[0])
            return out

        return wrapper

    def select(self, label, phases=None, round=None):
        return [s for s in self.spans
                if s.label == label and (phases is None or s.phase in phases)
                and (round is None or s.round == round)]


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def _rate(spans):
    seconds = sum(s.seconds for s in spans)
    return sum(s.count for s in spans) / seconds if seconds > 0 else 0.0


# metric -> (unit, labels it needs); a metric needing an absent label is
# printed with value null
LAYER_METRICS = {
    "sde.simulate_ms.p50": ("ms", ("simulate",)),
    "sde.paths_per_s": ("1/s", ("simulate",)),
    "sde.normals_per_s": ("1/s", ("normals",)),
    "bsde.forward_ms.p50": ("ms", ("forward",)),
    "bsde.values_ms": ("ms", ("values",)),
    "autodiff.backward_ms.p50": ("ms", ("backward",)),
    "autodiff.tape_nodes": ("count", ("forward",)),
    "autodiff.tape_mb": ("MB", ("backward",)),
    "net.unflatten_ms.p50": ("ms", ("unflatten",)),
    "net.params": ("count", ()),
    "optim.update_ms.p50": ("ms", ("update",)),
    "train.step_ms.p50": ("ms", ("simulate",)),
    "train.step_ms.p95": ("ms", ("simulate",)),
    "train.eval_row_ms": ("ms", ("eval_row_u0", "eval_row_write")),
    "train.archive_write_s": ("s", ("archive_write",)),
    "train.archive_read_s": ("s", ("archive_read",)),
    "train.archive_mb": ("MB", ()),
    "train.unattributed_s": ("s", ()),
    "oracle.fd_s": ("s", ("fd",)),
    "oracle.fd_steps": ("count", ("fd",)),
    "oracle.cole_hopf_s": ("s", ("cole_hopf",)),
    "oracle.mc_s": ("s", ("mc",)),
    "trace.overhead_s": ("s", ()),
}


def layer_metrics(tracer, traced, untraced_train_s, params, archive_bytes):
    """Per-layer figures from the spans of the traced rounds.

    `traced` maps round index -> that round's train_s. Per-step samples are
    pooled over the traced rounds; per-round totals report their median.
    """
    rounds = sorted(traced)

    def ms(label, phases):
        return [1e3 * s.seconds for s in tracer.select(label, phases)]

    def per_round(label, phases, field):
        return _median([sum(getattr(s, field) for s in tracer.select(label, phases, r))
                        for r in rounds])

    steps = []
    rows = []
    unattributed = []
    for r in rounds:
        starts = sorted(s.start for s in tracer.select("simulate", ("train",), r))
        steps.extend(1e3 * np.diff(starts))
        u0 = tracer.select("eval_row_u0", ("train",), r)
        write = tracer.select("eval_row_write", ("train",), r)
        rows.extend(1e3 * (a.seconds + b.seconds) for a, b in zip(u0, write))
        covered = sum(s.seconds for label in TRAIN_LABELS
                      for s in tracer.select(label, ("train",), r))
        unattributed.append(traced[r] - covered)

    values = {
        "sde.simulate_ms.p50": _median(ms("simulate", ("train",))),
        "sde.paths_per_s": _rate(tracer.select("simulate", ("reference", "eval"))),
        "sde.normals_per_s": _rate(tracer.select("normals")),
        "bsde.forward_ms.p50": _median(ms("forward", ("train",))),
        "bsde.values_ms": _median(ms("values", ("eval",))),
        "autodiff.backward_ms.p50": _median(ms("backward", ("train",))),
        "autodiff.tape_nodes": max((s.count for s in tracer.select("forward", ("train",))),
                                   default=0),
        "autodiff.tape_mb": _median(list(tracer.tape_bytes.values())) / MIB,
        "net.unflatten_ms.p50": _median(ms("unflatten", ("train",))),
        "net.params": params,
        "optim.update_ms.p50": _median(ms("update", ("train",))),
        "train.step_ms.p50": float(np.percentile(steps, 50)) if steps else 0.0,
        "train.step_ms.p95": float(np.percentile(steps, 95)) if steps else 0.0,
        "train.eval_row_ms": _median(rows),
        "train.archive_write_s": per_round("archive_write", ("train",), "seconds"),
        "train.archive_read_s": per_round("archive_read", ("eval",), "seconds"),
        "train.archive_mb": archive_bytes / MIB,
        "train.unattributed_s": _median(unattributed),
        "oracle.fd_s": per_round("fd", ("reference",), "seconds"),
        "oracle.fd_steps": per_round("fd", ("reference",), "count"),
        "oracle.cole_hopf_s": per_round("cole_hopf", ("reference",), "seconds"),
        "oracle.mc_s": per_round("mc", ("reference",), "seconds"),
        "trace.overhead_s": _median([traced[r] for r in rounds]) - untraced_train_s,
    }
    out = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        value = None if tracer.absent.intersection(needs) else values[name]
        out[name] = {"value": value, "unit": unit}
    return out
