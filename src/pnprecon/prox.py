"""Penalized-likelihood proximal solver for the ADMM data step.

Solves  argmin_{x >= 0}  -LL(y, x) + (rho/2) ||x - v||^2  by separable
surrogate iterations with a closed-form per-pixel quadratic root.  v may
contain negative entries; the chosen root is nonnegative regardless.
"""

from dataclasses import dataclass

import numpy as np

from . import recon

__all__ = ["ProxConfig", "surrogate_root", "prox_neg_ll",
           "subproblem_objective", "kkt_residual"]


@dataclass(frozen=True)
class ProxConfig:
    rho: float
    n_inner: int = 30

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite (rho = 0 is the "
                             "plain ML problem; use the recon module)")
        if self.n_inner < 1:
            raise ValueError("invalid inner-iteration configuration")


def surrogate_root(s, b, v, rho):
    """Nonnegative root of rho x^2 + (s - rho v) x - b = 0.

    The b-form is used when rho v - s < 0 to avoid cancellation; there, for
    b >= 0, its denominator is at least |rho v - s| > 0.  At rho = 0 and
    s > 0 it is the plain EM update b / s bit for bit, since sqrt(s*s) = s.
    """
    s = np.asarray(s, dtype=float)
    b = np.asarray(b, dtype=float)
    v = np.asarray(v, dtype=float)
    # np.where's discarded branch is 0/0 at every masked pixel, in every call
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = rho * v - s
        disc = np.sqrt(c * c + 4.0 * rho * b)
        return np.where(c < 0, 2.0 * b / (disc - c), (c + disc) / (2.0 * rho))


def prox_neg_ll(lm, v, cfg, x_init, callback=None):
    """Surrogate iterations for the penalized Poisson subproblem.

    Runs exactly cfg.n_inner iterations.  callback(it, x), when given, sees
    every iterate.
    """
    v = np.asarray(v, dtype=float).ravel()
    x = np.asarray(x_init, dtype=float).ravel().copy()
    if v.size != lm.model.n_pixels or x.size != lm.model.n_pixels:
        raise ValueError("image size does not match the system model")
    sens = lm.model.sensitivity.ravel()
    mask = sens > 0
    if not np.any(mask):
        raise ValueError("system model has all-zero sensitivity")
    # the iteration needs a strictly positive start: exact zeros are
    # absorbing for the multiplicative likelihood term
    pos = x[(x > 0) & mask]
    floor = 1e-8 * (float(pos.mean()) if pos.size else 1.0)
    x = np.maximum(x, floor)
    x[~mask] = 0.0
    # a masked pixel has s = 0 and b = 0, so with v = 0 its root is 0
    v = np.where(mask, v, 0.0)
    shape = (lm.model.grid_size, lm.model.grid_size)
    for it in range(cfg.n_inner):
        x = surrogate_root(sens, x * recon._em_ratio_backproj(lm.counted, x),
                           v, cfg.rho)
        if callback is not None:
            callback(it, x.reshape(shape))
    return x.reshape(shape)


def subproblem_objective(lm, v, rho, x):
    """-LL(x) + (rho/2) ||x - v||^2 over unmasked pixels."""
    v = np.asarray(v, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    mask = lm.model.mask.ravel()
    pen = 0.5 * rho * float(np.sum((x[mask] - v[mask]) ** 2))
    return -recon.log_likelihood(lm, x) + pen


def kkt_residual(lm, v, rho, x):
    """max_j |min(x_j, g_j)| with g the subproblem gradient; 0 at a minimizer."""
    v = np.asarray(v, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    g = (-recon.ll_gradient(lm, x).ravel() + rho * (x - v))
    mask = lm.model.mask.ravel()
    stat = np.minimum(x[mask], g[mask])
    return float(np.max(np.abs(stat))) if stat.size else 0.0
