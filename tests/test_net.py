"""Denoiser forward, JVP/VJP, Lanczos spectral norm, parameter gradients."""

import math

import numpy as np
import pytest

from pnprecon import net
from pnprecon.config import FileFormatError
from oracles import dense_jacobian_l, naive_net_forward, power_iteration_l

ARCH2 = net.ArchConfig(n_layers=2, channels=3)
ARCH3 = net.ArchConfig(n_layers=3, channels=4)
ARCH_DEMO = net.ArchConfig(n_layers=5, channels=16)


def random_params(arch, seed, scale=0.5, zero_bias=False):
    """Fully random parameters (all layers nonzero, unlike init_params)."""
    rng = np.random.default_rng(seed)
    vec = rng.normal(0.0, scale, net.n_params(arch))
    params = net.vector_to_params(arch, vec)
    if zero_bias:
        for b in params.biases:
            b[:] = 0.0
    return params


def random_image(shape, seed, positive=True):
    rng = np.random.default_rng(seed)
    img = rng.normal(1.0, 0.5, shape)
    return np.abs(img) + 0.1 if positive else img


def test_zero_params_identity():
    params = net.identity_params(ARCH3)
    x = random_image((8, 8), 0, positive=False)
    np.testing.assert_array_equal(net.forward(params, x), x)


def test_positive_homogeneity_with_zero_biases():
    params = random_params(ARCH3, 1, zero_bias=True)
    x = random_image((8, 8), 2)
    for c in (0.5, 3.0, 17.0):
        a = net.forward(params, c * x)
        b = c * net.forward(params, x)
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_forward_matches_naive_convolution_oracle():
    params = random_params(ARCH2, 3)
    x = random_image((8, 8), 4)
    got = net.forward(params, x)
    want = naive_net_forward(params, x)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_forward_rejects_nonfinite():
    params = net.identity_params(ARCH2)
    x = np.full((8, 8), np.nan)
    with pytest.raises(ValueError, match="finite"):
        net.forward(params, x)


def test_jvp_vjp_identity_at_zero_params():
    params = net.identity_params(ARCH3)
    x = random_image((8, 8), 5)
    t = random_image((8, 8), 6, positive=False)
    np.testing.assert_array_equal(net.Linearization(params, x).jvp(t), t)
    np.testing.assert_array_equal(net.Linearization(params, x).vjp(t), t)


def test_jvp_vjp_transpose_identity():
    params = random_params(ARCH3, 7)
    x = random_image((8, 8), 8)
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = rng.standard_normal((8, 8))
        c = rng.standard_normal((8, 8))
        lhs = np.sum(net.Linearization(params, x).jvp(t) * c)
        rhs = np.sum(t * net.Linearization(params, x).vjp(c))
        assert abs(lhs - rhs) / max(abs(lhs), 1e-12) < 1e-10


def test_jvp_matches_finite_differences():
    params = random_params(ARCH2, 10, scale=0.3)
    x = random_image((8, 8), 11)
    rng = np.random.default_rng(12)
    t = rng.standard_normal((8, 8))
    h = 1e-6
    # hold the scale fixed: jvp treats s as a constant
    s = net.input_scale(x)

    def residual(w):
        return net._stack(params, w[None], params.biases,
                          lambda _, z: net._act(z))[0][-1][0]
    fd = (residual((x + h * t) / s) - residual((x - h * t) / s)) * s / (2 * h)
    got = net.Linearization(params, x).jvp(t)
    want = t + fd
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-5


def test_spectral_norm_identity_is_one():
    params = net.identity_params(ARCH3)
    x = random_image((8, 8), 13)
    sigma, u, _ = net.spectral_norm_l(net.Linearization(params, x),
                                      max_iters=10, seed=0)
    assert sigma == 1.0
    assert np.linalg.norm(u) == pytest.approx(1.0)


def test_spectral_norm_reflection_is_one(monkeypatch):
    # D with zero linearization makes L = -Id: still unit spectral norm
    params = net.identity_params(ARCH3)
    monkeypatch.setattr(net.Linearization, "jvp", lambda lin, t: np.zeros_like(t))
    monkeypatch.setattr(net.Linearization, "vjp", lambda lin, t: np.zeros_like(t))
    x = random_image((8, 8), 14)
    sigma, _, _ = net.spectral_norm_l(net.Linearization(params, x),
                                      max_iters=5, seed=1)
    assert sigma == pytest.approx(1.0, abs=1e-14)


def test_spectral_norm_matches_dense_svd():
    params = random_params(ARCH2, 15, scale=0.4)
    x = random_image((8, 8), 16)
    jl = dense_jacobian_l(params, x)
    want = np.linalg.svd(jl, compute_uv=False)[0]
    sigma, _, _ = net.spectral_norm_l(net.Linearization(params, x),
                                      max_iters=50, tol=0.0, seed=2)
    assert abs(sigma - want) / want < 1e-3
    assert sigma <= want + 1e-9


@pytest.mark.parametrize("seed", [0, 4])
def test_spectral_norm_demo_arch_matches_dense_svd(seed):
    # the demo architecture at 16x16, run to the certify cap of 30 steps: a
    # clustered top of the spectrum (sigma_2 / sigma_1 above 0.999)
    params = random_params(ARCH_DEMO, seed, scale=0.1)
    x = random_image((16, 16), seed + 100)
    want = np.linalg.svd(dense_jacobian_l(params, x), compute_uv=False)[0]
    sigma, u, steps = net.spectral_norm_l(net.Linearization(params, x),
                                          max_iters=30, tol=0.0, seed=seed)
    assert abs(sigma - want) / want < 1e-4
    assert sigma <= want + 1e-9
    assert 1 <= steps <= 30
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_is_nan_once_a_product_is_not_finite():
    # float64; an overflowed product used to end the run with a finite sigma:
    # a NaN beta read as breakdown, and eigh of a bidiagonal with a NaN
    # alpha can still return a finite top eigenvalue
    params = random_params(ARCH2, 15, scale=0.4)
    x = random_image((8, 8), 16)
    for product, bad_call in (("jvp", 1), ("jvp", 2), ("vjp", 1), ("vjp", 2)):
        lin = net.Linearization(params, x)
        exact, calls = getattr(lin, product), []

        def overflowing(v, exact=exact, calls=calls, bad_call=bad_call):
            out = exact(v)
            calls.append(v)
            if len(calls) == bad_call:
                out.flat[0] = np.inf
            return out
        setattr(lin, product, overflowing)
        with np.errstate(all="ignore"):
            sigma, u, steps = net.spectral_norm_l(lin, max_iters=10, tol=0.0, seed=2)
        assert math.isnan(sigma) and np.all(np.isnan(u)), (product, bad_call)
        assert steps == bad_call


def test_lanczos_beats_power_iteration_from_same_start():
    # m power iterations reach a vector of the Krylov space that m + 1
    # Lanczos steps maximize over
    params = random_params(ARCH_DEMO, 1, scale=0.1)
    lin = net.Linearization(params, random_image((16, 16), 30))
    u0 = np.random.default_rng(31).standard_normal((16, 16))
    for m in (1, 2, 3, 5, 10, 30):
        sigma, _, _ = net.spectral_norm_l(lin, max_iters=m + 1, tol=0.0, u0=u0)
        assert sigma >= power_iteration_l(lin, m, u0)


@pytest.mark.parametrize("cap", [1, 2, 5, 30])
def test_spectral_norm_products_within_cap(monkeypatch, cap):
    # a step is one jvp and one vjp: a cap of m costs at most 2m + 1, the
    # price of m power iterations
    calls = [0]

    def counted(method):
        def wrapped(lin, t):
            calls[0] += 1
            return method(lin, t)
        return wrapped
    monkeypatch.setattr(net.Linearization, "jvp", counted(net.Linearization.jvp))
    monkeypatch.setattr(net.Linearization, "vjp", counted(net.Linearization.vjp))
    lin = net.Linearization(random_params(ARCH_DEMO, 2, scale=0.1),
                            random_image((16, 16), 32))
    _, _, steps = net.spectral_norm_l(lin, max_iters=cap, tol=0.0, seed=5)
    assert steps == cap
    assert calls[0] <= 2 * cap + 1
    calls[0] = 0
    ident = net.Linearization(net.identity_params(ARCH3), random_image((8, 8), 33))
    sigma, _, steps = net.spectral_norm_l(ident, max_iters=cap, seed=6)
    assert (sigma, steps) == (1.0, 1)
    assert calls[0] <= 2


def test_spectral_norm_deterministic():
    params = random_params(ARCH3, 17)
    x = random_image((8, 8), 18)
    a = net.spectral_norm_l(net.Linearization(params, x), max_iters=10, seed=3)
    b = net.spectral_norm_l(net.Linearization(params, x), max_iters=10, seed=3)
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])


def test_float32_linearization_stays_float32_inside():
    # an upcast anywhere in the passes would silently give up the speed
    lin = net.Linearization(random_params(ARCH_DEMO, 50, scale=0.1),
                            random_image((12, 10), 51), np.float32)
    t = random_image((12, 10), 52, positive=False)
    zt_list, in_t = lin._tangent_chain(t)
    for arr in lin.z_list + lin.in_list + lin.dacts + zt_list + in_t:
        assert arr.dtype == np.float32
    assert lin.x.dtype == lin.out.dtype == np.float64
    assert lin.jvp(t).dtype == lin.vjp(t).dtype == np.float64
    assert lin.params.vec.dtype == np.float64


def test_float32_jvp_vjp_transpose_identity():
    params = random_params(ARCH_DEMO, 53, scale=0.1)
    x = random_image((16, 16), 54)
    lin = net.Linearization(params, x, np.float32)
    rng = np.random.default_rng(55)
    for _ in range(20):
        t = rng.standard_normal((16, 16))
        c = rng.standard_normal((16, 16))
        lhs = np.sum(lin.jvp(t) * c)
        rhs = np.sum(t * lin.vjp(c))
        scale = np.linalg.norm(lin.jvp(t)) * np.linalg.norm(c)
        assert abs(lhs - rhs) <= 1e-5 * scale


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scale", [0.1, 0.2])
def test_float32_spectral_norm_pins_float64_on_demo_arch(seed, scale):
    # the certify cap of 30 steps at LANCZOS_TOL: float32 products change
    # neither the steps nor sigma beyond 1e-6 relative
    params = random_params(ARCH_DEMO, seed, scale=scale)
    for point in range(2):
        x = random_image((24, 24), 100 * seed + point)
        s64, _, steps64 = net.spectral_norm_l(net.Linearization(params, x),
                                              max_iters=30, seed=seed + point)
        s32, _, steps32 = net.spectral_norm_l(
            net.Linearization(params, x, np.float32), max_iters=30, seed=seed + point)
        assert steps32 == steps64
        assert abs(s32 - s64) <= 1e-6 * s64


def test_softplus_in_place_matches_expression():
    rng = np.random.default_rng(40)
    t = np.concatenate([rng.standard_normal(1000), 800.0 * rng.standard_normal(1000),
                        [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan]])
    want = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))) - math.log(2.0)
    got = net._act(t.reshape(2, 4, -1))
    np.testing.assert_array_equal(got.ravel(), want)
    finite = np.isfinite(want)
    assert got.ravel()[finite].tobytes() == want[finite].tobytes()


def test_param_grad_mse_zero_at_fit():
    params = net.identity_params(ARCH3)
    x = random_image((8, 8), 19)
    grad, _ = net.param_grad_mse(params, x, x)
    assert all(np.all(k == 0) for k in grad.kernels)
    assert all(np.all(b == 0) for b in grad.biases)


def test_param_grad_mse_matches_finite_differences():
    arch = ARCH2
    params = random_params(arch, 20, scale=0.3)
    x = random_image((8, 8), 21)
    target = random_image((8, 8), 22)
    grad = net.grad_to_vector(net.param_grad_mse(params, x, target)[0])
    vec = net.params_to_vector(params)

    def loss(v):
        out = net.forward(net.vector_to_params(arch, v), x)
        return float(np.sum((out - target) ** 2))

    rng = np.random.default_rng(23)
    h = 1e-6
    for j in rng.choice(vec.size, size=20, replace=False):
        e = np.zeros(vec.size)
        e[j] = h
        fd = (loss(vec + e) - loss(vec - e)) / (2 * h)
        assert abs(fd - grad[j]) / max(abs(grad[j]), 1e-8) < 1e-4


def test_param_grad_mse_unused_bias_is_zero():
    # all kernels zero: hidden biases never reach the output, last one does
    arch = ARCH3
    params = net.identity_params(arch)
    params.biases[0][:] = 0.7
    params.biases[1][:] = -0.3
    x = random_image((8, 8), 24)
    grad, _ = net.param_grad_mse(params, x, x + 1.0)
    assert np.all(grad.biases[0] == 0.0)
    assert np.all(grad.biases[1] == 0.0)
    assert np.any(grad.biases[2] != 0.0)


def test_param_grad_mse_output_is_forward_bit_for_bit():
    params = random_params(ARCH3, 38)
    x = random_image((8, 8), 39)
    _, out = net.param_grad_mse(params, x, random_image((8, 8), 40))
    np.testing.assert_array_equal(out, net.forward(params, x))


def test_param_grad_mse_rejects_nonfinite():
    params = net.identity_params(ARCH2)
    x = random_image((8, 8), 41)
    x[3, 4] = np.nan
    with pytest.raises(ValueError, match="denoiser input must be finite"):
        net.param_grad_mse(params, x, np.ones((8, 8)))


def test_penalty_dead_hinge_gives_zero_gradient():
    params = net.identity_params(ARCH3)   # sigma = 1, 1 + eps - 1 = eps > 0
    x = random_image((8, 8), 25)
    u = np.ones((8, 8)) / 8.0
    # eps = 0 makes the hinge argument exactly 0: inactive
    grad, sigma = net.param_grad_penalty(net.Linearization(params, x), u,
                                         epsilon=0.0, alpha=0.1)
    assert sigma == pytest.approx(1.0)
    assert all(np.all(k == 0) for k in grad.kernels)


def test_penalty_rejects_non_unit_direction():
    params = net.identity_params(ARCH2)
    x = random_image((8, 8), 26)
    with pytest.raises(ValueError, match="unit"):
        net.param_grad_penalty(net.Linearization(params, x), np.full((8, 8), 2.0))


def test_param_grad_penalty_matches_finite_differences():
    arch = ARCH2
    params = random_params(arch, 27, scale=0.8)   # strong enough: sigma > 1
    x = random_image((8, 8), 28)
    rng = np.random.default_rng(29)
    u = rng.standard_normal((8, 8))
    u /= np.linalg.norm(u)
    eps, alpha = 0.05, 0.1
    grad_struct, sigma = net.param_grad_penalty(net.Linearization(params, x), u,
                                                epsilon=eps, alpha=alpha)
    assert sigma + eps > 1.0, "test setup must activate the hinge"
    grad = net.grad_to_vector(grad_struct)
    vec = net.params_to_vector(params)

    def h_of(v):
        p = net.vector_to_params(arch, v)
        g = 2.0 * net.Linearization(p, x).jvp(u) - u
        value, _ = net.hinge(float(np.linalg.norm(g)), eps, alpha)
        return value

    h = 1e-6
    for j in rng.choice(vec.size, size=20, replace=False):
        e = np.zeros(vec.size)
        e[j] = h
        fd = (h_of(vec + e) - h_of(vec - e)) / (2 * h)
        assert abs(fd - grad[j]) / max(abs(grad[j]), 1e-8) < 1e-3


def test_param_grad_penalty_alpha_zero_plain_hinge():
    arch = ARCH2
    params = random_params(arch, 30, scale=0.8)
    x = random_image((8, 8), 31)
    rng = np.random.default_rng(32)
    u = rng.standard_normal((8, 8))
    u /= np.linalg.norm(u)
    lin = net.Linearization(params, x)
    g0, sigma0 = net.param_grad_penalty(lin, u, epsilon=0.05, alpha=0.0)
    g1, sigma1 = net.param_grad_penalty(lin, u, epsilon=0.05, alpha=1.0)
    assert sigma0 == sigma1
    slack = sigma0 + 0.05 - 1.0
    assert slack > 0
    # with alpha=1 the chain-rule factor is 2*slack instead of 1
    np.testing.assert_allclose(net.grad_to_vector(g1),
                               2.0 * slack * net.grad_to_vector(g0), rtol=1e-12)


def test_checkpoint_roundtrip_exact(tmp_path):
    params = random_params(ARCH3, 33)
    path = tmp_path / "net.ckpt"
    net.save_checkpoint(path, params)
    back = net.load_checkpoint(path)
    assert back.arch == params.arch
    for a, b in zip(params.kernels, back.kernels):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(params.biases, back.biases):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"WRONGMAG" + b"\0" * 40)
    with pytest.raises(ValueError, match="PNPNET1"):
        net.load_checkpoint(path)


def test_checkpoint_corruption_rejected(tmp_path):
    path = tmp_path / "net.ckpt"
    net.save_checkpoint(path, random_params(ARCH2, 3))
    raw = path.read_bytes()
    bad_kernel = raw[:16] + np.array([5], dtype="<u4").tobytes() + raw[20:]
    bad_code = raw[:20] + np.array([7], dtype="<u4").tobytes() + raw[24:]
    for payload, needle in ((raw[:20], "truncated header"),
                            (raw[:-3], "payload"),
                            (bad_kernel, "kernel 5 is not 3"),
                            (bad_code, "activation code 7")):
        path.write_bytes(payload)
        with pytest.raises(FileFormatError, match=needle):
            net.load_checkpoint(path)


def test_checkpoint_global_skip_field(tmp_path):
    # the fifth header field marks the global skip; 1 is its only value
    path = tmp_path / "net.ckpt"
    net.save_checkpoint(path, random_params(ARCH2, 3))
    raw = path.read_bytes()
    assert np.frombuffer(raw[24:28], dtype="<u4")[0] == 1
    for flag in (0, 2):
        path.write_bytes(raw[:24] + np.array([flag], dtype="<u4").tobytes() + raw[28:])
        with pytest.raises(FileFormatError, match=f"global-skip flag {flag}"):
            net.load_checkpoint(path)


def test_arch_validation():
    with pytest.raises(ValueError):
        net.ArchConfig(n_layers=1)
    with pytest.raises(ValueError, match="channel"):
        net.ArchConfig(channels=0)


def _reference_primal(params, w):
    """The primal layer loop that net._stack replaced: per-layer
    pre-activations and padded inputs at the normalized input w."""
    arch = params.arch
    h, wd = w.shape
    a = w[None, :, :]
    in_list = []
    z_list = []
    for layer in range(arch.n_layers):
        xp = net._pad_flat(a, net.KERNEL)
        z = net._conv(xp, params.kernels[layer], params.biases[layer], h, wd)
        in_list.append(xp)
        z_list.append(z)
        if layer < arch.n_layers - 1:
            a = net._act(z)
    return z_list, in_list


def _reference_tangent(params, dacts, tan):
    """The tangent layer loop that net._stack replaced: padded tangent inputs
    and tangent pre-activations, in that order."""
    h, wd = tan.shape
    t = tan[None, :, :]
    in_t = []
    zt_list = []
    for layer in range(params.arch.n_layers):
        xp = net._pad_flat(t, net.KERNEL)
        zt = net._conv(xp, params.kernels[layer], None, h, wd)
        in_t.append(xp)
        zt_list.append(zt)
        if layer < params.arch.n_layers - 1:
            t = dacts[layer] * zt
    return in_t, zt_list


def _same_bits(got, want):
    return all(g.shape == w.shape and np.array_equal(g.view(np.uint64),
                                                     w.view(np.uint64))
               for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("arch, size", [
    (ARCH_DEMO, 48),
    (ARCH3, 16),
])
def test_one_layer_loop_bitwise_equals_separate_loops(arch, size):
    params = random_params(arch, 81, scale=0.2)
    x = random_image((size, size), 82, positive=False)
    rng = np.random.default_rng(83)
    t = rng.standard_normal((size, size))
    u = rng.standard_normal((size, size))
    u /= np.linalg.norm(u)
    lin = net.Linearization(params, x)
    z_ref, in_ref = _reference_primal(params, x / net.input_scale(x))
    assert _same_bits(lin.z_list, z_ref) and _same_bits(lin.in_list, in_ref)
    assert _same_bits([lin.out], [x + lin.s * z_ref[-1][0]])
    _, zt = _reference_tangent(params, lin.dacts, t)
    assert _same_bits([lin.jvp(t)], [t + zt[-1][0]])
    got_zt, got_in_t = lin._tangent_chain(u)
    want_in_t, want_zt = _reference_tangent(params, lin.dacts, u)
    assert _same_bits(got_zt, want_zt) and _same_bits(got_in_t, want_in_t)
    # the penalty gradient reading the old loop's tangent chain (reordered to
    # the new return order); epsilon = 1 keeps the hinge active
    got = net.param_grad_penalty(lin, u, epsilon=1.0)
    old = net.Linearization(params, x)
    old._tangent_chain = lambda tan: _reference_tangent(params, old.dacts, tan)[::-1]
    want = net.param_grad_penalty(old, u, epsilon=1.0)
    assert got[1] == want[1] and _same_bits([got[0].vec], [want[0].vec])


def _old_sigmoid(t):
    """The masked-multiply form _sigmoid replaced."""
    e = np.exp(-np.abs(t))
    out = 1.0 / (1.0 + e)
    np.multiply(out, e, out=out, where=t < 0)
    return out


def test_sigmoid_bitwise_equals_masked_form():
    rng = np.random.default_rng(71)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        745.0, -745.0, 1e-320, -1e-320])
    arrays = [special, rng.standard_normal((16, 48, 48))]
    for scale in 10.0 ** np.arange(-300, 301, 25):
        arrays.append(scale * rng.standard_normal(4096))
    for t in arrays:
        got, want = net._sigmoid(t), _old_sigmoid(t)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_second_derivative_from_dacts_matches_direct_form():
    """param_grad_penalty forms act'' as d1 (1 - d1) from lin.dacts; bitwise
    that is sigmoid(z) (1 - sigmoid(z))."""
    arch = net.ArchConfig(n_layers=3, channels=3)
    lin = net.Linearization(random_params(arch, 72), random_image((10, 12), 73))
    for d1, z in zip(lin.dacts, lin.z_list[:-1]):
        s = _old_sigmoid(z)
        want = s * (1.0 - s)
        got = d1 * (1.0 - d1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_init_params_matches_per_layer_draws():
    # the construction before the flat vector: one normal draw per hidden
    # layer, in layer order, and a zero last layer; all biases zero
    arch = ARCH3
    params = net.init_params(arch, seed=42, scale=0.2)
    rng = np.random.default_rng(42)
    k = net.KERNEL
    for i, (co, ci) in enumerate(arch.layer_shapes()):
        if i == arch.n_layers - 1:
            want = np.zeros((co, ci, k, k))
        else:
            want = rng.normal(0.0, 0.2 / math.sqrt(ci * k * k),
                              size=(co, ci, k, k))
        np.testing.assert_array_equal(params.kernels[i], want)
        np.testing.assert_array_equal(params.biases[i], np.zeros(co))


def test_kernels_and_biases_alias_vec_in_checkpoint_order(tmp_path):
    params = net.identity_params(ARCH3)
    params.vec[:] = np.arange(params.vec.size)
    parts = []
    for ker, b in zip(params.kernels, params.biases):
        assert np.shares_memory(ker, params.vec)
        assert np.shares_memory(b, params.vec)
        parts += [ker.ravel(), b.ravel()]
    np.testing.assert_array_equal(np.concatenate(parts), params.vec)
    path = tmp_path / "net.ckpt"
    net.save_checkpoint(path, params)
    np.testing.assert_array_equal(
        np.frombuffer(path.read_bytes()[28:], dtype="<f8"), params.vec)


def test_params_vector_validation():
    n = net.n_params(ARCH2)
    with pytest.raises(ValueError, match="length"):
        net.vector_to_params(ARCH2, np.zeros(n + 1))
    for bad_value in (np.nan, np.inf):
        vec = np.zeros(n)
        vec[5] = bad_value
        with pytest.raises(ValueError, match="finite"):
            net.vector_to_params(ARCH2, vec)
