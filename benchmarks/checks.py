"""Pass/fail checks of the benchmark, each against an independent value.

Every check compares a program output with a closed form, a published
value, a second independent estimator, or a property the method must have
for any parameters. None compares against a stored copy of earlier output.
Each returns an Outcome so the runner can count attempts and failures.
"""

from dataclasses import dataclass

import numpy as np

# Han, Jentzen & E (PNAS 2018), 100-d HJB with lambda = 1, T = 1, x0 = 0
PUBLISHED_HJB_D100 = 4.5901
# half a unit in the last published digit
PUBLISHED_ROUNDING = 5e-5

MC_SIGMAS = 4.0
Y0_REL_TOL = 0.01
Y0_FD_ABS_TOL = 5e-3
FD_REFINEMENT_TOL = 1e-4
FD_CLOSED_FORM_TOL = 1e-5
GRAD_REL_TOL = 1e-4
GRAD_STEP = 3e-8


@dataclass(frozen=True)
class Outcome:
    name: str
    ok: bool
    detail: str


def within_stderr(name, value, stderr, reference, slack=0.0, sigmas=MC_SIGMAS):
    """|value - reference| <= sigmas * stderr + slack."""
    err = abs(value - reference)
    tol = sigmas * stderr + slack
    return Outcome(name, err <= tol,
                   f"value={value:.6f} ref={reference:.6f} err={err:.2e} tol={tol:.2e}")


def relative_within(name, value, reference, rel_tol):
    """|value - reference| <= rel_tol * |reference|."""
    rel = abs(value - reference) / abs(reference)
    return Outcome(name, rel <= rel_tol,
                   f"value={value:.6f} ref={reference:.6f} rel={rel:.2e} tol={rel_tol:.0e}")


def absolute_within(name, value, reference, tol):
    """|value - reference| <= tol."""
    err = abs(value - reference)
    return Outcome(name, err <= tol,
                   f"value={value:.8f} ref={reference:.8f} err={err:.2e} tol={tol:.0e}")


def mc_closed_form(estimate, exact):
    """Monte Carlo of E g(X_T) against the closed-form u(0, x0)."""
    return within_stderr("mc_feynman_kac_vs_closed_form", estimate.value, estimate.stderr, exact)


def cole_hopf_published(estimate):
    """Cole-Hopf Monte Carlo against the published 100-d HJB value."""
    return within_stderr("cole_hopf_vs_published", estimate.value, estimate.stderr,
                         PUBLISHED_HJB_D100, slack=PUBLISHED_ROUNDING)


def fd_refinement(coarse, fine):
    """One grid refinement must no longer move the finite-difference value."""
    return absolute_within("fd_refinement_shift", fine.value, coarse.value, FD_REFINEMENT_TOL)


def fd_closed_form(estimate, exact):
    """Finite differences on heat d=1 against u(0, 0) = 2T."""
    return absolute_within("fd_heat_vs_closed_form", estimate.value, exact, FD_CLOSED_FORM_TOL)


def fd_cole_hopf(coarse, fine, mc):
    """Finite differences on hjb d=1 against Cole-Hopf Monte Carlo of the
    same equation, within the sampling noise plus the grid's own shift."""
    shift = abs(fine.value - coarse.value)
    return within_stderr("fd_hjb_vs_cole_hopf", fine.value, mc.stderr, mc.value, slack=shift)


def y0_relative(y0, exact):
    """Trained y0 within 1% of the closed form."""
    return relative_within("y0_vs_closed_form", y0, exact, Y0_REL_TOL)


def y0_fd(y0, fd):
    """Trained y0 within 5e-3 of the finer finite-difference value."""
    return absolute_within("y0_vs_fd", y0, fd.value, Y0_FD_ABS_TOL)


def martingale(y0_values, terminal_values):
    """With a zero driver Y is a discrete martingale for any network, so
    the mean of Y_N - Y_0 vanishes within its sampling noise."""
    diff = np.asarray(terminal_values) - np.asarray(y0_values)
    mean = float(np.mean(diff))
    stderr = float(np.std(diff, ddof=1) / np.sqrt(diff.size))
    return within_stderr("martingale_mean_increment", mean, stderr, 0.0)


def loss_decreased(first_loss, last_loss):
    """The final training-batch loss lies below the step-0 loss."""
    return Outcome("loss_decreased", last_loss < first_loss,
                   f"step0={first_loss:.6g} final={last_loss:.6g}")


def archive_round_trip(reloaded_y0, trained_y0):
    """y0 read back from params.json equals the value training returned;
    archives print 17 significant digits, so the round trip is exact."""
    return Outcome("archive_round_trip", reloaded_y0 == trained_y0,
                   f"reloaded={reloaded_y0!r} trained={trained_y0!r}")


def directional_gradient(g_dot_v, central_difference, typical):
    """Tape gradient along v against the central difference of the
    tape-free loss along v, within a relative tolerance of the larger of
    |difference| and `typical`, the typical size of g.v for a random v.
    Relative to the difference alone, a v nearly orthogonal to g would
    fail on rounding error."""
    err = abs(g_dot_v - central_difference)
    scale = max(abs(central_difference), typical, 1e-300)
    rel = err / scale
    return Outcome("gradient_vs_central_difference", rel <= GRAD_REL_TOL,
                   f"g.v={g_dot_v:.10g} fd={central_difference:.10g} rel={rel:.2e} "
                   f"tol={GRAD_REL_TOL:.0e}")
