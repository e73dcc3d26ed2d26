"""Command-line entry points: train, oracle, eval.

Exit codes: 0 success, 2 configuration problem (also argparse usage errors),
3 numeric failure, 4 I/O failure.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import parse_config
from .errors import ConfigError, DeepBsdeError, NumericError
from .bsde import estimate_u0
from .oracle import cole_hopf_mc, fd_semilinear_1d, mc_feynman_kac
from .problems import exact_eval, get_problem, override_keys
from .sde import RngStream, make_uniform_grid
from .train import _write_atomic, load_archive, run_train


def _parse_grid(text):
    """M,K,L (any suffix may be omitted) -> (nodes, time_steps, half_width)."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) > 3 or not parts:
        raise ConfigError(f"--grid wants M[,K[,L]], got {text!r}")
    try:
        nodes = int(parts[0])
        steps = int(parts[1]) if len(parts) > 1 and parts[1] else None
        width = float(parts[2]) if len(parts) > 2 and parts[2] else None
    except ValueError as e:
        raise ConfigError(f"--grid {text!r}: {e}") from None
    return nodes, steps, width


def cmd_train(args):
    config = parse_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["output_dir"] = args.out
    if updates:
        config = dataclasses.replace(config, **updates)
    final = run_train(config)
    print(f"wrote {config.output_dir}/metrics.csv, loss_curve.csv, params.json, run_summary.json")
    print(f"final: step={final.step} loss={final.loss:.6g} y0={final.y0:.10g} "
          f"grad_norm={final.grad_norm:.6g} elapsed_s={final.elapsed_s:.3f}")
    return 0


def cmd_oracle(args):
    lam = 1.0 if args.lam is None else args.lam
    overrides = {"T": args.T, "xi0": args.x0}
    if args.problem == "hjb":
        overrides["lambda"] = lam
    problem = get_problem(args.problem, args.d, overrides)
    x0 = problem.xi.point

    if problem.f is None:
        method, reads = "mc_feynman_kac", ("samples", "seed")
    elif args.problem == "hjb":
        method, reads = "cole_hopf_mc", ("samples", "lam", "seed")
    else:
        method, reads = "fd_semilinear_1d", ("grid",)
    # like a config key that changes nothing, a flag the route never reads is an error
    for flag, key in (("--samples", "samples"), ("--lambda", "lam"), ("--grid", "grid"),
                      ("--seed", "seed")):
        if getattr(args, key) is not None and key not in reads:
            raise ConfigError(f"{flag} has no effect on the {method} route of '{args.problem}'")
    samples = 100000 if args.samples is None else args.samples
    seed = 0 if args.seed is None and "seed" in reads else args.seed

    if method == "mc_feynman_kac":
        # one step: x0 + s sqrt(T) Z is the exact law of X_T, so nothing finer is read
        est = mc_feynman_kac(problem, x0, samples, make_uniform_grid(args.T, 1), RngStream(seed))
    elif method == "cole_hopf_mc":
        est = cole_hopf_mc(lam, problem.g, x0, args.T, samples, RngStream(seed))
    else:
        if args.d != 1:
            raise ConfigError(
                f"no oracle for '{args.problem}' beyond d=1 (finite differences only)"
            )
        nodes, steps, width = _parse_grid(args.grid) if args.grid is not None else (400, None, None)
        est = fd_semilinear_1d(problem, float(x0[0]), half_width=width,
                               nodes=nodes, time_steps=steps)

    print(f"{method}: u(0, x0) = {est.value:.10g} +/- {est.stderr:.4g}")
    record = {
        "method": method, "problem": args.problem, "d": args.d, "T": args.T,
        "x0": x0.tolist(), "seed": seed,
        "value": est.value, "stderr": est.stderr, "info": est.info,
    }
    if args.problem == "hjb":
        record["lambda"] = lam
    _write_atomic(Path(args.out), json.dumps(record, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args):
    bank, cfg = load_archive(args.params)
    if "problem" in cfg and cfg["problem"] != args.problem:
        raise ConfigError(
            f"archive was trained on '{cfg['problem']}', not '{args.problem}'"
        )
    keys = override_keys(args.problem)
    # xi_mode is part of the bank's fingerprint, so the law is the bank's own
    problem = get_problem(args.problem, bank.d, {k: cfg[k] for k in keys if k in cfg})

    mean, spread = estimate_u0(bank, problem, args.samples, RngStream(args.seed))
    print(f"u(0, xi) = {mean:.10g} (spread {spread:.4g} over {args.samples} draws)")
    if problem.exact is not None and problem.xi.kind == "point":
        exact_value, _ = exact_eval(problem, 0.0, problem.xi.point)
        print(f"exact:     {exact_value:.10g} (|error| {abs(mean - exact_value):.4g})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="deepbsde",
        description="Train terminal-matching networks for semilinear parabolic PDEs "
                    "and validate them against stochastic or finite-difference references.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training loop from a config file")
    p_train.add_argument("--config", required=True, help="key = value config file")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_train.add_argument("--out", default=None, help="override the output directory")
    p_train.set_defaults(func=cmd_train)

    p_oracle = sub.add_parser("oracle", help="compute a reference value for u(0, x0)")
    p_oracle.add_argument("--problem", required=True)
    p_oracle.add_argument("--d", type=int, required=True)
    p_oracle.add_argument("--x0", nargs="+", type=float, default=[0.0],
                          help="starting point; one value broadcasts to d")
    p_oracle.add_argument("--samples", type=int, default=None,
                          help="Monte Carlo terminal draws (default 100000)")
    p_oracle.add_argument("--lambda", dest="lam", type=float, default=None,
                          help="hjb only (default 1)")
    p_oracle.add_argument("--grid", default=None, metavar="M,K,L",
                          help="finite-difference route only: nodes, coarse time steps K "
                               "(the march runs K and 2K steps and returns 2 u_2K - u_K; "
                               "default K = M at the default half width, more where the "
                               "driver's stability bound needs it), half width")
    p_oracle.add_argument("--T", type=float, default=1.0)
    p_oracle.add_argument("--seed", type=int, default=None,
                          help="Monte Carlo routes only (default 0)")
    p_oracle.add_argument("--out", default="oracle_summary.json")
    p_oracle.set_defaults(func=cmd_oracle)

    p_eval = sub.add_parser("eval", help="estimate u(0, xi) from a parameter archive")
    p_eval.add_argument("--params", required=True, help="params.json archive")
    p_eval.add_argument("--problem", required=True)
    p_eval.add_argument("--samples", type=int, default=1024)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except DeepBsdeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
