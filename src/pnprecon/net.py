"""Residual convolutional denoiser and its differentiation engine.

The operator is  D(x) = s * (w + cnn(w))  with  w = x / s  and s the mean
of the positive entries of x (floored at 1e-12, treated as a constant in
all derivatives).  Because s cancels in the input Jacobian, jvp and vjp
are exactly the Jacobian products of the unnormalized residual stack
evaluated at w.  The architecture is fixed but for its depth and width:
KERNEL x KERNEL convolutions and the shifted softplus between layers,
whose second derivative the hinge loss's parameter gradient reads.

Parameters live in one float64 vector in checkpoint order (per layer, the
kernel (c_out, c_in, k, k) then the bias (c_out,)); DenoiserParams.kernels
and .biases are views into it.  A parameter gradient is a DenoiserParams of
the same layout.

Implemented products.  Linearization(params, x, dtype) is the one primal
pass at x: D(x), s, each layer's padded input and pre-activation, and (on
first use) the activation derivatives.  Its passes and products run in
dtype (float32 for the sigmas that train nothing); the parameters, x, D(x)
and what jvp and vjp return stay float64.  Every product reads it:
  forward              D(x); computes no derivatives,
  Linearization.jvp/vjp  first-order input derivatives,
  spectral_norm_l      Golub-Kahan-Lanczos for sigma(2 J - I) at lin and its
                       top Ritz vector,
  param_grad_mse       d ||D(x) - target||^2 / d theta, returned with D(x),
  param_grad_penalty   d h(||2 J u - u||) / d theta for a frozen unit u at
                       lin, through the jvp graph (the mixed second-order
                       path needed by the hinge loss); no primal pass.

Convolutions are zero-padded 'same' and run as k*k shifted matmuls on one
padded buffer; each adjoint is the same convolution with the flipped,
channel-transposed kernel, the exact transpose up to rounding.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import FileFormatError
from .util import atomic_write

__all__ = [
    "KERNEL",
    "ArchConfig",
    "DenoiserParams",
    "init_params",
    "identity_params",
    "input_scale",
    "Linearization",
    "forward",
    "spectral_norm_l",
    "param_grad_mse",
    "param_grad_penalty",
    "hinge",
    "params_to_vector",
    "vector_to_params",
    "grad_to_vector",
    "save_checkpoint",
    "load_checkpoint",
]

_NET_MAGIC = b"PNPNET1\x00"
KERNEL = 3
# the fixed checkpoint-header fields after n_layers and channels
_FIXED_HEADER = (("kernel", KERNEL), ("activation code", 0),   # 0: softplus
                 ("global-skip flag", 1))
_LOG2 = math.log(2.0)
_SCALE_FLOOR = 1e-12
# spectral_norm_l stops once the top Ritz value rises by at most LANCZOS_TOL
# times itself, or once beta falls to _BREAKDOWN times it
LANCZOS_TOL = 1e-4
_BREAKDOWN = 1e-12


@dataclass(frozen=True)
class ArchConfig:
    n_layers: int = 5
    channels: int = 16

    def __post_init__(self):
        if self.n_layers < 2:
            raise ValueError("need at least 2 layers")
        if self.channels < 1:
            raise ValueError("need at least 1 channel")

    def layer_shapes(self):
        """(out_channels, in_channels) per layer: 1 -> C -> ... -> C -> 1."""
        chans = [1] + [self.channels] * (self.n_layers - 1) + [1]
        return [(chans[i + 1], chans[i]) for i in range(self.n_layers)]


@dataclass
class DenoiserParams:
    arch: ArchConfig
    vec: np.ndarray     # flat, checkpoint order; kernels/biases are views

    def __post_init__(self):
        self.vec = np.asarray(self.vec, dtype=float)
        if self.vec.shape != (n_params(self.arch),):
            raise ValueError("parameter vector length does not match architecture")
        if not np.all(np.isfinite(self.vec)):
            raise ValueError("parameters must be finite")
        self.kernels = []   # per layer (c_out, c_in, KERNEL, KERNEL)
        self.biases = []    # per layer (c_out,)
        k = KERNEL
        pos = 0
        for co, ci in self.arch.layer_shapes():
            nk = co * ci * k * k
            self.kernels.append(self.vec[pos:pos + nk].reshape(co, ci, k, k))
            self.biases.append(self.vec[pos + nk:pos + nk + co])
            pos += nk + co


def n_params(arch):
    return sum(co * ci * KERNEL * KERNEL + co for co, ci in arch.layer_shapes())


def identity_params(arch):
    """All-zero parameters: the residual branch vanishes and D = Id."""
    return DenoiserParams(arch=arch, vec=np.zeros(n_params(arch)))


def init_params(arch, seed, scale=0.1):
    """Small random hidden layers, zero last layer: D starts as identity."""
    rng = np.random.default_rng(seed)
    params = identity_params(arch)
    for ker in params.kernels[:-1]:
        fan_in = ker[0].size
        ker[...] = rng.normal(0.0, scale / math.sqrt(fan_in), size=ker.shape)
    return params


# ---------------------------------------------------------------------------
# the activation: shifted softplus; its derivative is _sigmoid, and
# param_grad_penalty forms the second from the first


def _sigmoid(t):
    # 1 / (1 + e^-t) for t >= 0 and e^t / (1 + e^t) below, never
    # overflowing: the last factor is e (<= 1) where t < 0, 1.0 elsewhere
    # and NaN where t is NaN
    e = np.exp(-np.abs(t))
    out = 1.0 / (1.0 + e)
    out *= np.maximum(e, t >= 0)
    return out


def _act(t):
    # max(t, 0) + log1p(exp(-|t|)) - log 2 in one buffer, the same bits;
    # shifted so that act(0) = 0, keeping zero parameters = identity
    out = np.abs(t)
    np.exp(np.negative(out, out=out), out=out)
    np.log1p(out, out=out)
    out += np.maximum(t, 0.0)
    out -= _LOG2
    return out


# ---------------------------------------------------------------------------
# shift-and-add convolution core
#
# An image (C, H, W) is zero-padded by p = k // 2 on every side and
# flattened row-major to (C, (H+2p)*(W+2p) + 2p).  On that grid output
# pixel (i, j) sits at i*(W+2p) + j, and kernel tap (di, dj) reads the
# input at the same index plus di*(W+2p) + dj.  A convolution is thus a
# sum of k*k matmuls on column windows of one buffer, computed over an
# (H, W+2p) grid whose last 2p columns are discarded.  The adjoint is the
# same convolution with the spatially flipped, channel-transposed kernel.


def _pad_flat(x, k):
    """(C, H, W) -> zero-padded, flattened (C, (H+2p)*(W+2p) + 2p)."""
    c, h, w = x.shape
    pad = k // 2
    hp, wp = h + 2 * pad, w + 2 * pad
    xp = np.zeros((c, hp * wp + 2 * pad), dtype=x.dtype)
    xp[:, :hp * wp].reshape(c, hp, wp)[:, pad:pad + h, pad:pad + w] = x
    return xp


def _conv(xp, kernel, bias, h, w):
    """'same' convolution of the _pad_flat buffer xp, computed in xp's dtype;
    (C_out, H, W) view."""
    co, ci, k, _ = kernel.shape
    wp = w + k - 1
    n = h * wp
    if ci == 1:
        # one (C_out, k*k) @ (k*k, n) product instead of k*k rank-one ones
        step = xp.strides[1]
        win = np.lib.stride_tricks.as_strided(
            xp, (k, k, n), (wp * step, step, step), writeable=False)
        out = kernel.reshape(co, -1).astype(xp.dtype) @ win.reshape(k * k, n)
    else:
        taps = np.ascontiguousarray(kernel.transpose(2, 3, 0, 1), dtype=xp.dtype)
        out = taps[0, 0] @ xp[:, :n]
        for di in range(k):
            for dj in range(k):
                if di or dj:
                    off = di * wp + dj
                    out += taps[di, dj] @ xp[:, off:off + n]
    if bias is not None:
        out += bias.astype(out.dtype, copy=False)[:, None]
    return out.reshape(co, h, wp)[:, :, :w]


def _conv_adjoint(gam, kernel, h, w):
    k = kernel.shape[-1]
    flipped = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return _conv(_pad_flat(gam, k), flipped, None, h, w)


def _conv_param_grad(xp, gam, kernel_shape):
    co, ci, k, _ = kernel_shape
    _, h, w = gam.shape
    wp = w + k - 1
    n = h * wp
    g = np.zeros((co, h, wp))       # gam on the output grid, junk columns zero
    g[:, :, :w] = gam
    g = g.reshape(co, n)
    dk = np.empty(kernel_shape)
    for di in range(k):
        for dj in range(k):
            off = di * wp + dj
            dk[:, :, di, dj] = g @ xp[:, off:off + n].T
    db = gam.sum(axis=(1, 2))
    return dk, db


# ---------------------------------------------------------------------------
# the linearization: one primal pass, read by every product


def input_scale(x):
    """Mean of the positive entries, floored; constant in all Jacobians."""
    x = np.asarray(x, dtype=float)
    pos = x[x > 0]
    s = float(pos.mean()) if pos.size else 0.0
    return max(s, _SCALE_FLOOR)


def _stack(params, a, biases, nonlin):
    """The conv stack on a (1, H, W): per layer, pad, convolve, add
    biases[layer] unless biases is None, and pass a = nonlin(layer, z) on.
    Returns the per-layer outputs z and padded inputs."""
    arch = params.arch
    _, h, wd = a.shape
    z_list, in_list = [], []
    for layer in range(arch.n_layers):
        xp = _pad_flat(a, KERNEL)
        z_list.append(_conv(xp, params.kernels[layer],
                            None if biases is None else biases[layer], h, wd))
        in_list.append(xp)
        if layer < arch.n_layers - 1:
            a = nonlin(layer, z_list[-1])
    return z_list, in_list


def _finite(x):
    # a Linearization takes a non-finite x: spectral_norm_l then returns NaN
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("denoiser input must be finite")
    return x


class Linearization:
    """The denoiser at x from one primal pass in dtype: out = D(x), s,
    z_list, in_list; dacts, the activation derivatives, are computed on
    first use."""

    def __init__(self, params, x, dtype=np.float64):
        self.params = params
        self.x = np.asarray(x, dtype=float)
        self.s = input_scale(self.x)
        self.dtype = dtype
        self.z_list, self.in_list = _stack(
            params, (self.x / self.s).astype(dtype, copy=False)[None],
            params.biases, lambda _, z: _act(z))
        # algebraically s * (w + z_L); written so zero residual returns x exactly
        self.out = self.x + self.s * self.z_list[-1][0]

    @cached_property
    def dacts(self):
        return [_sigmoid(z) for z in self.z_list[:-1]]

    def _shaped(self, v, what):
        v = np.asarray(v, dtype=float)
        if v.shape != self.x.shape:
            raise ValueError(f"{what} shape mismatch")
        return v

    def _tangent_chain(self, tan):
        """Tangent pre-activations and padded tangent inputs of every layer."""
        return _stack(self.params, tan.astype(self.dtype, copy=False)[None], None,
                      lambda layer, zt: self.dacts[layer] * zt)

    def jvp(self, tan):
        """Jacobian-vector product of forward at x (s held constant)."""
        tan = self._shaped(tan, "tangent")
        return tan + self._tangent_chain(tan)[0][-1][0]

    def vjp(self, cot):
        """Jacobian-transpose-vector product of forward at x."""
        cot = self._shaped(cot, "cotangent")
        h, wd = cot.shape
        g = cot.astype(self.dtype, copy=False)[None, :, :]
        for layer in range(self.params.arch.n_layers - 1, -1, -1):
            g = _conv_adjoint(g, self.params.kernels[layer], h, wd)
            if layer > 0:
                g = self.dacts[layer - 1] * g
        return cot + g[0]


def forward(params, x):
    """Apply the denoiser: scale-normalize, residual CNN, rescale."""
    return Linearization(params, _finite(x)).out


def spectral_norm_l(lin, max_iters=10, tol=LANCZOS_TOL, seed=0, u0=None):
    """sigma(J_L), L = 2 D - Id at the point of lin, by Golub-Kahan-Lanczos
    bidiagonalization with full reorthogonalization, started from u0 or a
    seeded normal draw.  Each step is one jvp and, unless it is the last,
    one vjp.  Stops once the top Ritz value rises by at most tol times
    itself, on breakdown (beta at rounding level: the Krylov space is
    invariant and the value exact) or after min(max_iters, lin.x.size) steps.

    Returns (sigma, u, steps): the top singular value of the bidiagonal, a
    lower bound on the true norm; its unit right Ritz vector, with
    ||J_L u|| = sigma; and the steps used.  Both sigma and u are NaN once
    an alpha or beta is not finite (an overflowed product).
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    shape = lin.x.shape
    v = (np.random.default_rng(seed).standard_normal(shape) if u0 is None
         else np.asarray(u0, dtype=float)).ravel()
    v = v / np.linalg.norm(v)
    max_iters = min(max_iters, v.size)
    vs, us = np.zeros((2, max_iters, v.size))
    bid = np.zeros((max_iters, max_iters))      # upper bidiagonal B = U^T J_L V
    sigma = beta = 0.0
    for k in range(max_iters):
        vs[k] = v
        p = 2.0 * lin.jvp(v.reshape(shape)).ravel() - v - beta * us[k - 1]
        p -= us[:k].T @ (us[:k] @ p)
        # over ||v||, so a start vector 1 ulp off unit norm still gives the
        # identity net exactly 1.0
        bid[k, k] = alpha = np.linalg.norm(p) / np.linalg.norm(v)
        if not math.isfinite(alpha):
            break
        lam, ritz = np.linalg.eigh(bid[:k + 1, :k + 1].T @ bid[:k + 1, :k + 1])
        prev, sigma = sigma, float(np.sqrt(lam[-1]))
        if not sigma - prev > tol * sigma or k + 1 == max_iters:
            break
        us[k] = p / np.linalg.norm(p)
        r = 2.0 * lin.vjp(us[k].reshape(shape)).ravel() - us[k] - alpha * v
        r -= vs[:k + 1].T @ (vs[:k + 1] @ r)
        bid[k, k + 1] = beta = np.linalg.norm(r)
        if not (math.isfinite(beta) and beta > _BREAKDOWN * sigma):
            break
        v = r / beta
    if not np.all(np.isfinite(bid)):
        return math.nan, np.full(shape, math.nan), k + 1
    return sigma, (ritz[:, -1] @ vs[:k + 1]).reshape(shape), k + 1


# ---------------------------------------------------------------------------
# parameter gradients


def param_grad_mse(params, x, target):
    """Gradient of ||forward(x) - target||^2 w.r.t. every parameter.

    Returns (grad, out) with out = forward(params, x), from one primal pass.
    """
    lin = Linearization(params, _finite(x))
    out = lin.out
    target = lin._shaped(target, "target")
    arch = params.arch
    h, wd = out.shape
    grad = identity_params(arch)     # zeros in the parameter layout
    g = (lin.s * 2.0 * (out - target))[None, :, :]
    for layer in range(arch.n_layers - 1, -1, -1):
        grad.kernels[layer][...], grad.biases[layer][...] = _conv_param_grad(
            lin.in_list[layer], g, params.kernels[layer].shape)
        if layer > 0:
            g = _conv_adjoint(g, params.kernels[layer], h, wd)
            g = lin.dacts[layer - 1] * g
    return grad, out


def hinge(sigma, epsilon, alpha):
    """max(sigma + epsilon - 1, 0)^(1+alpha) and its derivative in sigma."""
    slack = sigma + epsilon - 1.0
    if slack <= 0:
        return 0.0, 0.0
    return slack ** (1.0 + alpha), (1.0 + alpha) * slack ** alpha


def param_grad_penalty(lin, u_fixed, epsilon=0.05, alpha=0.1):
    """Gradient w.r.t. theta of h(||2 jvp(theta; x, u) - u||) at the point
    of lin, u frozen.

    Differentiates through the jvp computation graph, so both the tangent
    chain and the primal pre-activations contribute (the latter through
    the second derivative of the activation).  Reads the primal pass of
    lin and makes none of its own.  Returns (grad, sigma_hat).
    """
    u = lin._shaped(u_fixed, "direction")
    nu = np.linalg.norm(u)
    if abs(nu - 1.0) > 1e-8:
        raise ValueError("u_fixed must be a unit vector")
    params = lin.params
    arch = params.arch
    h, wd = u.shape
    zt_list, in_t = lin._tangent_chain(u)

    g_vec = u + 2.0 * zt_list[-1][0]
    sigma = float(np.linalg.norm(g_vec))
    _, slope = hinge(sigma, epsilon, alpha)
    grad = identity_params(arch)     # zeros in the parameter layout
    if slope == 0.0 or sigma == 0.0:
        return grad, sigma

    gbar = (g_vec / sigma)[None, :, :]
    zt_bar = 2.0 * gbar                     # d sigma / d zt_L
    z_bar = np.zeros_like(lin.z_list[-1])   # last layer has no activation
    for layer in range(arch.n_layers - 1, -1, -1):
        dk_t, _ = _conv_param_grad(in_t[layer], zt_bar,
                                   params.kernels[layer].shape)
        dk_a, db_a = _conv_param_grad(lin.in_list[layer], z_bar,
                                      params.kernels[layer].shape)
        grad.kernels[layer][...] = dk_t + dk_a
        grad.biases[layer][...] = db_a
        if layer == 0:
            break
        t_bar = _conv_adjoint(zt_bar, params.kernels[layer], h, wd)
        a_bar = _conv_adjoint(z_bar, params.kernels[layer], h, wd)
        d1 = lin.dacts[layer - 1]
        zt_bar = d1 * t_bar
        # act'' = s (1 - s) with act' = s, the sigmoid
        z_bar = d1 * (1.0 - d1) * zt_list[layer - 1] * t_bar + d1 * a_bar
    grad.vec *= slope
    return grad, sigma


# ---------------------------------------------------------------------------
# flat-vector access (Adam and checkpoints operate on one vector)


def params_to_vector(params):
    return params.vec


grad_to_vector = params_to_vector


def vector_to_params(arch, vec):
    return DenoiserParams(arch=arch, vec=vec)


# ---------------------------------------------------------------------------
# checkpoint format: magic, arch block, raw little-endian float64


def save_checkpoint(path, params):
    arch = params.arch
    head = _NET_MAGIC + np.array(
        [arch.n_layers, arch.channels] + [want for _, want in _FIXED_HEADER],
        dtype="<u4").tobytes()
    payload = params_to_vector(params).astype("<f8").tobytes()
    atomic_write(path, head + payload)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != _NET_MAGIC:
        raise FileFormatError(f"{path}: not a PNPNET1 checkpoint")
    if len(raw) < 28:
        raise FileFormatError(f"{path}: truncated header")
    fields = [int(v) for v in np.frombuffer(raw[8:28], dtype="<u4")]
    for (field, want), got in zip(_FIXED_HEADER, fields[2:]):
        if got != want:
            raise FileFormatError(f"{path}: {field} {got} is not {want}")
    try:
        arch = ArchConfig(n_layers=fields[0], channels=fields[1])
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    # each layer has a bias: checked first, as n_params loops over n_layers
    if arch.n_layers > len(raw) or len(raw) - 28 != 8 * n_params(arch):
        raise FileFormatError(f"{path}: parameter payload does not match header")
    try:
        return vector_to_params(arch, np.frombuffer(raw[28:], dtype="<f8").copy())
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
