"""The benchmark's workloads: their inputs, timed phases and checks.

A workload is one training configuration plus the oracle calls it is
checked against. The training seed is part of the configuration; `--seed`
drives every other random input (Monte Carlo streams, the held-out batch,
the gradient-check batch and direction), so the same seed gives the same
inputs. Each round runs the same four phases on the same inputs:

  reference  the oracle calls (mc_feynman_kac, cole_hopf_mc, fd_semilinear_1d)
  train      one run_train call, up to its written artifacts
  eval       load_archive, simulate_paths on a held-out batch,
             rollout_values on it, estimate_u0
  checks     untimed: every output against its independent value
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import deepbsde
import checks

# Cole-Hopf stream of the d=1 hjb comparison; fixed so that this known
# failure is the same in every run whatever the seed
FD_HJB_STREAM = 271828

# operations that fail in every run because of a fault in the program;
# they count as failed without making the run incorrect
KNOWN_FAULTS = frozenset({"fd_hjb_vs_cole_hopf"})


@dataclass(frozen=True)
class Inputs:
    config: object
    problem: object
    grid: object
    root: object
    extra: dict


@dataclass(frozen=True)
class Evaluation:
    bank: object
    values: object
    u0: float


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    heldout: int
    grad_batch: int

    def build(self, seed):
        """Set-up: parse the config, build the problem and time grid."""
        config = deepbsde.parse_config_text(self.config_text, source=self.name)
        problem = config.build_problem()
        grid = deepbsde.make_uniform_grid(config.T, config.N)
        return Inputs(config, problem, grid, deepbsde.RngStream(seed), self.build_extra())

    def build_extra(self):
        return {}

    def reference(self, inp):
        raise NotImplementedError

    def check(self, inp, refs, final, ev, out_dir):
        raise NotImplementedError

    def evaluate(self, inp, out_dir):
        bank, _ = deepbsde.load_archive(Path(out_dir) / "params.json")
        paths, incs = deepbsde.simulate_paths(inp.problem, inp.grid, self.heldout,
                                              inp.root.derive(2))
        values = deepbsde.rollout_values(inp.problem, bank, inp.grid, paths, incs)
        u0, _ = deepbsde.estimate_u0(bank, inp.problem, inp.config.eval_samples,
                                     inp.root.derive(3))
        return Evaluation(bank, values, u0)


def gradient_probe(inp, bank, batch):
    """(g.v, central difference along v, |g| / sqrt(n)) on a fresh batch,
    for a random unit direction v in n dimensions; g comes from
    rollout_loss and backward, the difference from the tape-free
    rollout_values loss. The last is the typical size of g.v."""
    stream = inp.root.derive(4)
    paths, incs = deepbsde.simulate_paths(inp.problem, inp.grid, batch, stream.derive(0))
    tape = deepbsde.Tape()
    result = deepbsde.rollout_loss(tape, inp.problem, bank, inp.grid, paths, incs)
    grads = deepbsde.backward(tape, result.loss)
    g = np.concatenate([grads[pid].ravel() for pid in tape.param_ids])
    theta = deepbsde.flatten_params(bank)
    v = stream.derive(1).normals(theta.size)
    v /= np.linalg.norm(v)

    def loss(flat):
        moved = deepbsde.unflatten_params(bank, flat)
        return deepbsde.rollout_values(inp.problem, moved, inp.grid, paths, incs).loss

    h = checks.GRAD_STEP
    central = (loss(theta + h * v) - loss(theta - h * v)) / (2.0 * h)
    return float(g @ v), float(central), float(np.linalg.norm(g) / np.sqrt(g.size))


def read_losses(out_dir):
    with open(Path(out_dir) / "metrics.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[0]["loss"]), float(rows[-1]["loss"])


@dataclass(frozen=True)
class HeatD10(Workload):
    """Criterion 3's heat problem; checked against u(0, 0) = 2dT."""

    mc_calls: int = 8
    mc_samples: int = 25_000

    def exact(self, inp):
        return 2.0 * inp.problem.d * inp.problem.T

    def reference(self, inp):
        x0 = np.zeros(inp.problem.d)
        return [deepbsde.mc_feynman_kac(inp.problem, x0, self.mc_samples, inp.grid,
                                        inp.root.derive(1, k))
                for k in range(self.mc_calls)]

    def check(self, inp, refs, final, ev, out_dir):
        exact = self.exact(inp)
        return [checks.mc_closed_form(est, exact) for est in refs] + [
            checks.y0_relative(ev.u0, exact),
            checks.martingale(ev.values.y0_values, ev.values.terminal_values),
            checks.archive_round_trip(ev.u0, final.y0),
        ]


@dataclass(frozen=True)
class HjbD100(Workload):
    """The paper's 100-d HJB; its reference is checked against 4.5901."""

    ch_calls: int = 2
    ch_samples: int = 100_000

    def reference(self, inp):
        p = inp.problem
        return [deepbsde.cole_hopf_mc(inp.config.lam, p.g, np.zeros(p.d), p.T,
                                      self.ch_samples, inp.root.derive(1, k))
                for k in range(self.ch_calls)]

    def check(self, inp, refs, final, ev, out_dir):
        first, last = read_losses(out_dir)
        return [checks.cole_hopf_published(est) for est in refs] + [
            checks.loss_decreased(first, last),
            checks.archive_round_trip(ev.u0, final.y0),
        ]


@dataclass(frozen=True)
class AllenCahnD1(Workload):
    """Criterion 5's Allen-Cahn problem with its finite-difference
    references, plus finite differences and Monte Carlo on heat d=1 and
    finite differences on hjb d=1."""

    fd_nodes: tuple = (200, 400)
    fd_heat_nodes: int = 100
    fd_hjb_nodes: tuple = (100, 200)
    ch_samples: int = 100_000
    mc_samples: int = 100_000

    def build_extra(self):
        return {
            "heat": deepbsde.get_problem("heat", 1),
            "hjb": deepbsde.get_problem("hjb", 1, {"lambda": 1.0}),
        }

    def reference(self, inp):
        fd = deepbsde.fd_semilinear_1d
        heat, hjb = inp.extra["heat"], inp.extra["hjb"]
        return {
            "ac": [fd(inp.problem, 0.0, nodes=n) for n in self.fd_nodes],
            "heat": fd(heat, 0.0, nodes=self.fd_heat_nodes),
            "hjb": [fd(hjb, 0.0, nodes=n) for n in self.fd_hjb_nodes],
            "cole_hopf": deepbsde.cole_hopf_mc(1.0, hjb.g, np.zeros(1), hjb.T,
                                               self.ch_samples,
                                               deepbsde.RngStream(FD_HJB_STREAM)),
            "mc": deepbsde.mc_feynman_kac(heat, np.zeros(1), self.mc_samples, inp.grid,
                                          inp.root.derive(1)),
        }

    def check(self, inp, refs, final, ev, out_dir):
        coarse, fine = refs["ac"]
        return [
            checks.fd_refinement(coarse, fine),
            checks.fd_closed_form(refs["heat"], 2.0 * inp.extra["heat"].T),
            checks.mc_closed_form(refs["mc"], 2.0 * inp.extra["heat"].T),
            checks.fd_cole_hopf(*refs["hjb"], refs["cole_hopf"]),
            checks.y0_fd(ev.u0, fine),
            checks.archive_round_trip(ev.u0, final.y0),
        ]


WORKLOADS = {
    "heat_d10": HeatD10(
        name="heat_d10",
        config_text="""
            problem = heat
            d = 10
            N = 20
            batch = 256
            iterations = 1200
            seed = 21
            optimizer = adam
            lr = 0.05
            sharing = shared
            activation = relu
            hidden = 32, 32
        """,
        heldout=40_000,
        grad_batch=256,
    ),
    "hjb_d100": HjbD100(
        name="hjb_d100",
        config_text="""
            problem = hjb
            d = 100
            lambda = 1.0
            N = 20
            batch = 64
            iterations = 120
            seed = 40
            optimizer = adam
            lr = 0.01
            hidden = 110, 110
            sharing = independent
            activation = tanh
        """,
        heldout=4096,
        grad_batch=64,
    ),
    "allen_cahn_d1": AllenCahnD1(
        name="allen_cahn_d1",
        config_text="""
            problem = allen_cahn
            d = 1
            N = 40
            batch = 256
            iterations = 360
            seed = 33
            optimizer = adam
            lr = 0.01
        """,
        heldout=100_000,
        grad_batch=256,
    ),
}
