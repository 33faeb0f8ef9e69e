"""Poisson log-likelihood, its gradient, and MLEM/OSEM baselines."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import sim
from .util import NumericalAbort, read_only

__all__ = [
    "LikelihoodModel",
    "default_n_subsets",
    "subset_blocks",
    "log_likelihood",
    "ll_gradient",
    "mlem_step",
    "osem_reconstruct",
    "uniform_start",
    "mse",
    "gaussian_postfilter_sweep",
]


@dataclass(frozen=True)
class LikelihoodModel:
    """A system model paired with one observed sinogram.

    Measured data are integer counts; real-valued y is accepted so that
    noise-free experiments can set y to the exact expectation.
    """

    model: sim.SystemModel
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.size != self.model.n_rows:
            raise ValueError("sinogram does not match the system model")
        if np.any(y < 0) or not np.all(np.isfinite(y)):
            raise ValueError("observed sinogram must be finite and nonnegative")
        object.__setattr__(self, "y", y.reshape(self.model.sino_shape()))

    @cached_property
    def counted(self):
        """The row block of the bins with counts, rows = flatnonzero(y > 0).
        Elsewhere y / ybar = 0, so those bins add only +0.0 terms to an EM
        back-projection."""
        return self.row_block(*_rows_of(self.model.weights, np.flatnonzero(self.y > 0)))

    def row_block(self, rows, a, a_t):
        """(rows, A[rows], A[rows]^T, mult[rows], background[rows], y[rows]),
        the argument of the EM kernel, for a = A[rows] and a_t = a^T."""
        m = self.model
        return (rows, a, a_t, m.mult_factors[rows], m.background[rows],
                self.y.ravel()[rows])


def default_n_subsets(n_angles):
    """Largest divisor of n_angles that is at most 14: OSEM's subset count."""
    return max(d for d in range(1, 15) if n_angles % d == 0)


def _rows_of(A, rows):
    """(rows, A[rows], A[rows]^T) for sorted, distinct rows, all read-only,
    with A itself when the rows are all of A's.  Both matrices keep the
    term order of A and A^T, so a block's projections add the same terms
    in the same order as full ones."""
    rows.flags.writeable = False
    a = A if rows.size == A.shape[0] else read_only(A[rows])
    return rows, a, read_only(a.T.tocsr())


def subset_blocks(model):
    """One read-only (rows, A[rows], A[rows]^T) per OSEM subset s, whose rows
    are those of angles s, s + n, ... for n = default_n_subsets(n_angles),
    the only place the subset count is chosen.  Built once per projector
    matrix and shared by every model holding it; the partition is kept on
    the matrix object, so it is freed with it."""
    A, (n_angles, n_bins) = model.weights, model.sino_shape()
    if "_pnprecon_subset_blocks" not in vars(A):
        n = default_n_subsets(n_angles)
        bins = np.arange(A.shape[0]).reshape(n_angles, n_bins)
        A._pnprecon_subset_blocks = tuple(
            _rows_of(A, bins[s::n].ravel()) for s in range(n))
    return A._pnprecon_subset_blocks


def log_likelihood(lm, x):
    """Sum of y*ln(ybar) - ybar; the constant ln(y!) is omitted.

    Bins with ybar = 0 contribute 0 when y = 0 and -inf when y > 0.
    """
    ybar = sim.forward_project(lm.model, x).ravel()
    y = lm.y.ravel()
    if np.any((ybar == 0) & (y > 0)):
        return -np.inf
    pos = ybar > 0
    return float(np.sum(y[pos] * np.log(ybar[pos])) - np.sum(ybar))


def _count_ratio(y, ybar, bins):
    """y / ybar, 0 where ybar = 0; a bin with counts but ybar = 0 is an
    error, since the likelihood is -inf there.  bins maps each entry to
    its global sinogram bin, for the message."""
    if np.all(ybar > 0):
        return y / ybar
    bad = (ybar == 0) & (y > 0)
    if np.any(bad):
        raise ZeroDivisionError(f"expected counts vanish at bin "
                                f"{int(bins[np.argmax(bad)])} with observed counts")
    return np.divide(y, ybar, out=np.zeros_like(ybar), where=ybar > 0)


def ll_gradient(lm, x):
    """Gradient A^T mult (y/ybar - 1); masked pixels get 0."""
    ratio = _count_ratio(lm.y.ravel(), sim.forward_project(lm.model, x).ravel(),
                         range(lm.model.n_rows))
    grad = sim.back_project(lm.model, ratio - 1.0)
    grad.ravel()[~lm.model.mask.ravel()] = 0.0
    return grad


def _em_ratio_backproj(block, x):
    """A[rows]^T mult (y / ybar) over one row block (see
    LikelihoodModel.row_block), flat.  On lm.counted each dropped term is
    A_ij mult_i 0.0 = +0.0 on a nonnegative partial sum, so the result is
    bitwise that of the whole sinogram."""
    rows, a, a_t, mult, background, y = block
    ybar = mult * (a @ x.ravel()) + background
    return a_t @ (mult * _count_ratio(y, ybar, rows))


def _em_update(x, num, sens):
    """x * num / sens, flat; pixels with zero sensitivity become 0."""
    return np.divide(x * num, sens, out=np.zeros_like(x), where=sens > 0)


def mlem_step(lm, x):
    """One multiplicative EM update; zero-sensitivity pixels stay 0."""
    x = np.asarray(x, dtype=float)
    num = _em_ratio_backproj(lm.counted, x)
    return _em_update(x.ravel(), num, lm.model.sensitivity.ravel()).reshape(x.shape)


def uniform_start(model):
    """All-ones image on unmasked pixels, the default EM initialization."""
    x0 = np.ones(model.n_pixels)
    x0[~model.mask.ravel()] = 0.0
    return x0.reshape((model.grid_size, model.grid_size))


def osem_reconstruct(lm, n_iterations, x0=None):
    """n_iterations of ordered-subsets EM over the angle-interleaved subsets
    of subset_blocks; each subset step projects only its own rows of the
    sinogram.

    Where n_angles has no divisor in 2..14 there is one subset, and this
    is plain MLEM bit for bit.
    """
    model = lm.model
    x = uniform_start(model) if x0 is None else np.asarray(x0, dtype=float).copy()
    blocks = [lm.row_block(*block) for block in subset_blocks(model)]
    sens = [a_t @ mult for _, _, a_t, mult, _, _ in blocks]
    xf = x.ravel()
    for _ in range(n_iterations):
        for block, sens_s in zip(blocks, sens):
            xf = _em_update(xf, _em_ratio_backproj(block, xf), sens_s)
    return xf.reshape(x.shape)


def mse(a, b):
    """Mean squared error over all pixels."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.mean((a - b) ** 2))


def gaussian_postfilter_sweep(x_osem, x_ref, sigmas):
    """Pick the separable reflective-Gaussian sigma minimizing MSE to x_ref;
    NumericalAbort when no sigma gives a finite MSE."""
    # imported here, its one use: scipy.ndimage is most of the package's
    # import time, and only reconstruct needs it
    import scipy.ndimage as ndi

    if len(sigmas) == 0 or not all(np.isfinite(s) and s >= 0 for s in sigmas):
        raise ValueError("sigmas must be nonempty, each finite and >= 0")
    best_err, best = np.inf, None
    for sigma in sigmas:
        # at sigma 0 the filter returns an exact copy
        filt = ndi.gaussian_filter(np.asarray(x_osem, dtype=float),
                                   sigma, mode="reflect")
        err = mse(filt, x_ref)
        if err < best_err:
            best_err, best = err, (sigma, filt)
    if best is None:
        raise NumericalAbort("no filter sigma gives a finite MSE")
    return best
