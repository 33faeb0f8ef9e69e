"""The Plug-and-Play ADMM loop, its Douglas-Rachford residual, and rho sweeps.

Per iteration:  x <- prox of -LL at (z - u);  z <- D(x + u);  u <- u + x - z.
The recorded primal residual is ||x - z|| and the dual residual is
rho * ||z_new - z_old||, both over unmasked pixels; each must vanish for
the scheme to have converged.

In the denoiser input t_k = x_k + u_{k-1} the loop is the Douglas-Rachford
iteration t_{k+1} = T(t_k) from t_1 = x_1 on.  The recorded DR residual is
||x_k - z_{k-1}|| over all pixels, z_0 the start: for k >= 2 it equals
||t_k - t_{k-1}||, which cannot rise from k = 2 on while 2D - Id is
nonexpansive (k = 1 is not a T step).  The secant
||R_k - R_{k-1}|| / ||t_k - t_{k-1}||, R_k = 2 z_k - t_k, is the Lipschitz
ratio of 2D - Id between two points the loop visits.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import net, prox, recon
from .util import NumericalAbort, ordered_map

__all__ = ["AdmmConfig", "AdmmState", "History", "CURVE_HEADER", "SUMMARY_HEADER",
           "admm_pnp", "run_all", "rho_sweep", "curve_rows", "summary_row"]


@dataclass(frozen=True)
class AdmmConfig(prox.ProxConfig):
    """The prox settings of every data step plus the iteration count."""

    n_iterations: int = 40

    def __post_init__(self):
        super().__post_init__()
        if self.n_iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass
class AdmmState:
    """Post-update iterates handed to on_iterate observers."""

    x: np.ndarray
    z: np.ndarray
    u: np.ndarray
    k: int


@dataclass
class History:
    rho: float
    primal: list = field(default_factory=list)
    dual: list = field(default_factory=list)
    log_likelihood: list = field(default_factory=list)
    mse: list = field(default_factory=list)          # empty when no reference
    dr_residual: list = field(default_factory=list)
    secant: list = field(default_factory=list)       # None where undefined

    HEADER = ("iteration", "primal_residual_norm", "dual_residual_norm",
              "log_likelihood", "mse_vs_ref", "dr_residual", "secant")

    def __len__(self):
        return len(self.primal)

    def row(self, k):
        return [k + 1, self.primal[k], self.dual[k], self.log_likelihood[k],
                self.mse[k] if self.mse else "", self.dr_residual[k],
                "" if self.secant[k] is None else self.secant[k]]

    def as_rows(self):
        return [self.row(k) for k in range(len(self))]


def _as_denoiser(denoiser):
    if isinstance(denoiser, net.DenoiserParams):
        params = denoiser
        return lambda img: net.forward(params, img)
    if callable(denoiser):
        return denoiser
    raise TypeError("denoiser must be DenoiserParams or a callable image -> image")


def _masked_norm(arr, mask):
    return float(np.linalg.norm(arr.ravel()[mask.ravel()]))


def admm_pnp(lm, denoiser, cfg, z0, x_ref=None, on_iterate=None):
    """Run the Plug-and-Play loop from z = z0, u = 0; returns (final x, History).

    The prox is warm-started with the previous x iterate (first call: z0).
    on_iterate(state: AdmmState), when given, sees every post-update state.
    Raises NumericalAbort naming the iteration on a non-finite denoiser
    input, iterate or History row value (a blank "" is no value).
    """
    denoise = _as_denoiser(denoiser)
    mask = lm.model.mask
    z = np.asarray(z0, dtype=float).copy()
    if not np.all(np.isfinite(z)):
        raise ValueError("z0 must be finite")
    u = np.zeros_like(z)
    x_warm = np.clip(z, 0.0, None)
    t_prev = r_prev = None
    hist = History(rho=cfg.rho)
    for k in range(cfg.n_iterations):
        x = prox.prox_neg_ll(lm, z - u, cfg, x_warm)
        t = x + u
        if not np.all(np.isfinite(t)):
            raise NumericalAbort(f"non-finite denoiser input at iteration {k + 1}")
        z_new = denoise(t)
        u = u + x - z_new
        if not (np.all(np.isfinite(z_new)) and np.all(np.isfinite(u))):
            raise NumericalAbort(f"non-finite iterate at iteration {k + 1}")
        hist.primal.append(_masked_norm(x - z_new, mask))
        hist.dual.append(cfg.rho * _masked_norm(z_new - z, mask))
        hist.log_likelihood.append(recon.log_likelihood(lm, x))
        if x_ref is not None:
            hist.mse.append(recon.mse(x, x_ref))
        hist.dr_residual.append(float(np.linalg.norm(x - z)))
        r = 2.0 * z_new - t
        step = 0.0 if t_prev is None else float(np.linalg.norm(t - t_prev))
        hist.secant.append(float(np.linalg.norm(r - r_prev)) / step
                           if step > 0 else None)
        for name, value in zip(History.HEADER, hist.row(k)):
            if value != "" and not np.isfinite(value):
                raise NumericalAbort(f"non-finite {name} at iteration {k + 1}")
        t_prev, r_prev = t, r
        z = z_new
        x_warm = x
        if on_iterate is not None:
            on_iterate(AdmmState(x=x, z=z, u=u, k=k + 1))
    return x, hist


CURVE_HEADER = ("rho",) + History.HEADER
SUMMARY_HEADER = ("rho", "final_primal", "final_dual", "primal_ratio",
                  "dual_ratio", "meets_threshold", "primal_monotone",
                  "dual_monotone", "final_log_likelihood", "final_mse",
                  "dr_rises", "secant_max")


def curve_rows(histories):
    """One sweep_curves.csv row per rho and iteration."""
    return [[h.rho] + row for h in histories for row in h.as_rows()]


def summary_row(hist):
    """Final residuals, their ratios to iteration 1, whether both ratios
    are below 0.1, whether each curve is non-increasing (5% slack), how
    often the DR residual rose from k = 2 on (no slack) and the largest
    secant."""
    pr = hist.primal[-1] / hist.primal[0] if hist.primal[0] > 0 else 0.0
    dr = hist.dual[-1] / hist.dual[0] if hist.dual[0] > 0 else 0.0
    res = np.asarray(hist.dr_residual)
    secants = [s for s in hist.secant if s is not None]
    return [hist.rho, hist.primal[-1], hist.dual[-1], pr, dr,
            int(pr < 0.1 and dr < 0.1), int(_is_monotone(hist.primal)),
            int(_is_monotone(hist.dual)), hist.log_likelihood[-1],
            hist.mse[-1] if hist.mse else float("nan"),
            int(np.sum(res[2:] > res[1:-1])),
            max(secants) if secants else float("nan")]


def _is_monotone(curve, slack=0.05):
    c = np.asarray(curve)
    return bool(np.all(c[1:] <= c[:-1] * (1.0 + slack)))


def run_all(runs, denoiser):
    """(x, History) of admm_pnp for each run (name, lm, cfg, z0, x_ref),
    lazily and in input order; the runs go in parallel (util.ordered_map)
    and a NumericalAbort names the first failing run in input order."""
    runs = list(runs)
    for _, lm, _, _, _ in runs:
        lm.counted, lm.model.mask    # build the cached blocks before the fan-out

    def run(args):
        name, lm, cfg, z0, x_ref = args
        try:
            return admm_pnp(lm, denoiser, cfg, z0=z0, x_ref=x_ref)
        except NumericalAbort as exc:
            raise NumericalAbort(f"{name}: {exc}") from exc
    return ordered_map(run, runs)


def rho_sweep(lm, denoiser, rhos, cfg, z0, x_ref=None):
    """One History per rho, each from admm_pnp run with cfg at that rho,
    through run_all with each run named rho = <rho>."""
    cfgs = [replace(cfg, rho=rho) for rho in rhos]
    if not cfgs:
        raise ValueError("rhos must be nonempty")
    return [hist for _, hist in run_all(
        [(f"rho = {c.rho:g}", lm, c, z0, x_ref) for c in cfgs], denoiser)]
