"""Log-likelihood values, gradient checks, EM monotonicity, postfilter."""

import collections
import dataclasses
import math
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from pnprecon import config, prox, recon, sim
from oracles import make_test_problem, masked_osem, scalar_model

DEMO_CFG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "demo.cfg"


def test_ll_unit_bin():
    # y = 1 observed, ybar = 1 expected: 1 * ln 1 - 1 = -1
    lm = scalar_model(y_value=1.0)
    assert recon.log_likelihood(lm, np.array([[1.0]])) == pytest.approx(-1.0)


def test_ll_zero_count_bin():
    lm = scalar_model(y_value=0.0)
    assert recon.log_likelihood(lm, np.array([[3.0]])) == pytest.approx(-3.0)


def test_ll_zero_expectation_with_counts_is_minus_inf():
    lm = scalar_model(y_value=2.0)
    assert recon.log_likelihood(lm, np.array([[0.0]])) == -np.inf


def test_ll_zero_expectation_zero_count_contributes_nothing():
    lm = scalar_model(y_value=0.0)
    assert recon.log_likelihood(lm, np.array([[0.0]])) == 0.0


def test_ll_matches_compensated_sum_oracle():
    activity, lm = make_test_problem(grid=16, seed=1)
    got = recon.log_likelihood(lm, activity)
    ybar = sim.forward_project(lm.model, activity).ravel()
    y = lm.y.ravel()
    terms = [y[i] * math.log(ybar[i]) - ybar[i] if ybar[i] > 0 else -0.0
             for i in range(y.size)]
    want = math.fsum(terms)
    assert abs(got - want) / abs(want) < 1e-12


def test_ll_gradient_zero_at_exact_data():
    activity, lm = make_test_problem(grid=16, seed=2)
    exact = sim.forward_project(lm.model, activity)
    lm_exact = recon.LikelihoodModel(model=lm.model, y=exact)
    grad = recon.ll_gradient(lm_exact, activity)
    assert np.max(np.abs(grad)) < 1e-10


def test_ll_gradient_zero_image_background_only():
    _, lm = make_test_problem(grid=16, seed=3)
    x0 = np.zeros((16, 16))
    lm_bg = recon.LikelihoodModel(model=lm.model,
                                  y=sim.forward_project(lm.model, x0))
    grad = recon.ll_gradient(lm_bg, x0)
    assert np.max(np.abs(grad)) < 1e-12


def test_ll_gradient_matches_finite_differences():
    activity, lm = make_test_problem(grid=16, seed=4)
    x = activity + 0.1
    grad = recon.ll_gradient(lm, x).ravel()
    rng = np.random.default_rng(0)
    h = 1e-4 * x.mean()
    for j in rng.choice(x.size, size=10, replace=False):
        e = np.zeros(x.size)
        e[j] = h
        fd = (recon.log_likelihood(lm, x.ravel() + e)
              - recon.log_likelihood(lm, x.ravel() - e)) / (2 * h)
        assert abs(fd - grad[j]) / max(abs(grad[j]), 1e-6) < 1e-5


def test_ll_gradient_names_bad_bin():
    lm = scalar_model(y_value=2.0, background=0.0)
    with pytest.raises(ZeroDivisionError, match="bin 0"):
        recon.ll_gradient(lm, np.array([[0.0]]))
    # bin 0 has counts but an empty detector row, so its expectation is 0
    # at every x, also at the positive start the prox floors x to; every
    # caller of the shared y/ybar ratio must name it
    model = sim.SystemModel(geometry=sim.GeometryConfig(n_angles=2, n_bins=1),
                            grid_size=1, weights=sp.csr_matrix([[0.0], [1.0]]),
                            mult_factors=np.ones(2), background=np.zeros(2))
    dead = recon.LikelihoodModel(model=model, y=np.array([[2.0], [1.0]]))
    x = np.array([[1.0]])
    for step in (lambda: recon.ll_gradient(dead, x),
                 lambda: recon.mlem_step(dead, x),
                 lambda: prox.prox_neg_ll(dead, x, prox.ProxConfig(rho=1.0), x),
                 lambda: recon.osem_reconstruct(dead, 1)):
        with pytest.raises(ZeroDivisionError, match="bin 0"):
            step()
    # with the second row empty, the bad bin is row 0 of the second subset;
    # OSEM must name its global index
    model = dataclasses.replace(model, weights=sp.csr_matrix([[1.0], [0.0]]))
    dead = recon.LikelihoodModel(model=model, y=np.array([[1.0], [2.0]]))
    with pytest.raises(ZeroDivisionError, match="bin 1"):
        recon.osem_reconstruct(dead, 1)
    # bin 1 is entry 0 of the bins with counts; the data step projects only
    # those and must name its global index
    dead = recon.LikelihoodModel(model=model, y=np.array([[0.0], [2.0]]))
    for step in (lambda: recon.mlem_step(dead, x),
                 lambda: prox.prox_neg_ll(dead, x, prox.ProxConfig(rho=1.0), x)):
        with pytest.raises(ZeroDivisionError, match="bin 1"):
            step()


def test_mlem_fixed_point_of_exact_data():
    activity, lm = make_test_problem(grid=16, seed=5)
    x = activity + 0.05   # strictly positive inside the support
    lm_exact = recon.LikelihoodModel(model=lm.model,
                                     y=sim.forward_project(lm.model, x))
    stepped = recon.mlem_step(lm_exact, x)
    rel = np.linalg.norm(stepped - x) / np.linalg.norm(x)
    assert rel < 1e-12


def test_mlem_monotone_loglikelihood_50_iterations():
    _, lm = make_test_problem(grid=16, seed=6)
    x = recon.uniform_start(lm.model)
    prev = recon.log_likelihood(lm, x)
    for _ in range(50):
        x = recon.mlem_step(lm, x)
        cur = recon.log_likelihood(lm, x)
        assert cur >= prev - 1e-9 * abs(prev)
        prev = cur


def test_osem_single_subset_is_mlem_bitwise():
    # 17 angles have no divisor in 2..14, so OSEM runs one subset
    _, lm = make_test_problem(grid=16, n_angles=17, seed=7)
    assert len(recon.subset_blocks(lm.model)) == 1
    via_osem = recon.osem_reconstruct(lm, 5)
    x = recon.uniform_start(lm.model)
    for _ in range(5):
        x = recon.mlem_step(lm, x)
    np.testing.assert_array_equal(via_osem, x)


def test_osem_deterministic_and_nonnegative():
    _, lm = make_test_problem(grid=16, seed=8)
    a = recon.osem_reconstruct(lm, 4)
    b = recon.osem_reconstruct(lm, 4)
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= 0)


def test_zero_sensitivity_pixel_masked_not_nan():
    _, lm = make_test_problem(grid=16, seed=9)
    w = lm.model.weights.tolil()
    w[:, 0] = 0.0
    model = sim.SystemModel(geometry=lm.model.geometry,
                            grid_size=lm.model.grid_size,
                            weights=w.tocsr(),
                            mult_factors=lm.model.mult_factors,
                            background=lm.model.background)
    lm2 = recon.LikelihoodModel(model=model, y=lm.y)
    x = recon.osem_reconstruct(lm2, 3)
    assert np.all(np.isfinite(x))
    assert x.ravel()[0] == 0.0


def _zero_column_problem(seed, n_angles):
    """make_test_problem with pixel 0 outside every ray."""
    _, lm = make_test_problem(grid=16, n_angles=n_angles, seed=seed)
    w = lm.model.weights.tolil()
    w[:, 0] = 0.0
    model = dataclasses.replace(lm.model, weights=w.tocsr())
    return recon.LikelihoodModel(model=model, y=lm.y)


# an angle count for each derived OSEM subset count (48: configs/demo.cfg)
ANGLES_FOR_SUBSETS = {1: 17, 2: 34, 4: 68, 12: 48}


@pytest.mark.parametrize("n_subsets", sorted(ANGLES_FOR_SUBSETS))
def test_osem_matches_masked_full_sinogram_path_bitwise(n_subsets):
    n_angles = ANGLES_FOR_SUBSETS[n_subsets]
    _, lm = make_test_problem(grid=16, n_angles=n_angles, seed=13)
    blocks = recon.subset_blocks(lm.model)
    assert len(blocks) == recon.default_n_subsets(n_angles) == n_subsets
    # another phantom on the same geometry: one projector, one partition
    assert recon.subset_blocks(make_test_problem(
        grid=16, n_angles=n_angles, seed=17)[1].model) is blocks
    x0 = recon.uniform_start(lm.model)
    np.testing.assert_array_equal(recon.osem_reconstruct(lm, 3),
                                  masked_osem(lm, 3, n_subsets, x0))
    lm = _zero_column_problem(seed=14, n_angles=n_angles)
    x0 = recon.uniform_start(lm.model)
    got = recon.osem_reconstruct(lm, 3)
    assert got.ravel()[0] == 0.0
    np.testing.assert_array_equal(got, masked_osem(lm, 3, n_subsets, x0))
    x0 = np.random.default_rng(15).uniform(0.2, 3.0, x0.shape)
    np.testing.assert_array_equal(recon.osem_reconstruct(lm, 3, x0=x0),
                                  masked_osem(lm, 3, n_subsets, x0))


def test_osem_subset_loop_makes_no_full_projection(monkeypatch):
    cfg = config.load_config(str(DEMO_CFG))
    geom = sim.GeometryConfig(**cfg["geometry"])
    grid = cfg["phantoms"]["grid_size"]
    activity, mu = sim.make_phantom(sim.random_phantom_spec(grid, seed=3))
    model = sim.phantom_model(geom, activity, mu, norm_seed=1,
                              background_fraction=0.2)
    lm = recon.LikelihoodModel(
        model=model, y=sim.simulate_counts(model, activity, 1.0, seed=4))
    calls = collections.Counter()
    for name in ("forward_project", "back_project"):
        def counted(*args, _original=getattr(sim, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(sim, name, counted)
    assert len(recon.subset_blocks(model)) == 12
    recon.osem_reconstruct(lm, 2)
    # the only full projection is the one sensitivity behind the start
    # image's mask, which the model caches
    assert calls == {"back_project": 1}
    recon.osem_reconstruct(lm, 3)
    assert calls == {"back_project": 1}


def _same_csr(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("all_counted", [False, True])
def test_row_blocks_match_direct_construction_bitwise(all_counted):
    # counted and every OSEM subset block against A[rows] and its transpose
    # built directly; with counts in every bin, counted is A itself
    _, lm = make_test_problem(grid=16, n_angles=12, seed=16, dose=0.1)
    A = lm.model.weights
    if all_counted:
        lm = recon.LikelihoodModel(model=lm.model, y=np.ones(A.shape[0]))
    else:
        assert np.mean(lm.y == 0) >= 0.3
    rows = np.flatnonzero(lm.y > 0)
    want, got = [(rows, A[rows], A[rows].T.tocsr())], [lm.counted[:3]]
    for n_subsets, n_angles in ANGLES_FOR_SUBSETS.items():
        model = make_test_problem(grid=16, n_angles=n_angles, seed=16)[1].model
        bins = np.arange(model.n_rows).reshape(n_angles, -1)
        for s, block in enumerate(recon.subset_blocks(model)):
            r = bins[s::n_subsets].ravel()
            a = model.weights if n_subsets == 1 else model.weights[r]
            want.append((r, a, a.T.tocsr()))
            got.append(block)
    for (g_rows, g_a, g_at), (w_rows, w_a, w_at) in zip(got, want, strict=True):
        assert g_rows.dtype == w_rows.dtype and g_rows.tobytes() == w_rows.tobytes()
        _same_csr(g_a, w_a)
        _same_csr(g_at, w_at)
    m = lm.model
    for g, w in zip(lm.counted[3:], (m.mult_factors, m.background, lm.y.ravel())):
        np.testing.assert_array_equal(g, w[rows])
    assert (lm.counted[1] is A) == all_counted


def test_default_n_subsets():
    assert recon.default_n_subsets(48) == 12
    assert recon.default_n_subsets(56) == 14
    assert recon.default_n_subsets(13) == 13
    assert recon.default_n_subsets(17) == 1


def test_postfilter_noise_free_picks_smallest_sigma():
    activity, _ = make_test_problem(grid=16, seed=10)
    best, img = recon.gaussian_postfilter_sweep(activity, activity,
                                                [2.0, 0.5, 1.0, 0.25])
    assert best == 0.25
    assert recon.mse(img, activity) < recon.mse(activity * 0 + activity.mean(), activity)


def test_postfilter_sigma_zero_returns_unfiltered():
    impulse = np.zeros((9, 9))
    impulse[4, 4] = 1.0
    best, img = recon.gaussian_postfilter_sweep(impulse, impulse, [0.0, 1.0, 2.0])
    assert best == 0.0
    np.testing.assert_array_equal(img, impulse)


def test_postfilter_matches_exhaustive_oracle():
    import scipy.ndimage as ndi
    rng = np.random.default_rng(11)
    activity, _ = make_test_problem(grid=16, seed=11)
    noisy = activity + rng.normal(0, 0.3, activity.shape)
    sigmas = [0.0, 0.5, 1.0, 1.5, 2.5]
    table = {}
    for s in sigmas:
        f = noisy.copy() if s == 0 else ndi.gaussian_filter(noisy, s, mode="reflect")
        table[s] = float(np.mean((f - activity) ** 2))
    want = min(sigmas, key=lambda s: table[s])
    best, img = recon.gaussian_postfilter_sweep(noisy, activity, sigmas)
    assert best == want
    assert float(np.mean((img - activity) ** 2)) == table[want]


def test_postfilter_empty_sigmas_rejected():
    with pytest.raises(ValueError):
        recon.gaussian_postfilter_sweep(np.zeros((4, 4)), np.zeros((4, 4)), [])


@pytest.mark.parametrize("bad", [-1.0, -1e-12, np.nan, np.inf])
def test_postfilter_negative_or_nonfinite_sigma_rejected(bad):
    img = np.ones((4, 4))
    with pytest.raises(ValueError, match="finite and >= 0"):
        recon.gaussian_postfilter_sweep(img, img, [0.0, bad])


def test_likelihood_model_validates_dimensions():
    _, lm = make_test_problem(grid=16, seed=12)
    with pytest.raises(ValueError):
        recon.LikelihoodModel(model=lm.model, y=np.zeros(7))
