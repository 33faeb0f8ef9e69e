"""Phantom painting, projector physics, adjointness, Poisson sampling, I/O."""

import numpy as np
import pytest

from pnprecon import recon, sim, train
from pnprecon.config import FileFormatError
from oracles import make_test_problem


def test_constant_phantom_fills_grid():
    spec = sim.PhantomSpec(grid_size=8, regions=(
        sim.EllipseRegion(3.5, 3.5, 5.6, 5.6, 0.0, activity=1.0, mu=0.0),))
    activity, mu = sim.make_phantom(spec)
    assert np.all(activity == 1.0)
    assert np.all(mu == 0.0)


def test_empty_region_list_gives_zero_image():
    activity, mu = sim.make_phantom(sim.PhantomSpec(grid_size=8, regions=()))
    assert np.all(activity == 0.0) and np.all(mu == 0.0)


def test_two_ellipse_phantom_matches_pointwise_oracle():
    regions = (
        sim.EllipseRegion(7.0, 8.0, 6.0, 4.0, 0.3, activity=1.0, mu=0.01),
        sim.EllipseRegion(9.0, 7.5, 3.0, 2.0, 1.1, activity=2.5, mu=0.02),
    )
    activity, mu = sim.make_phantom(sim.PhantomSpec(grid_size=16, regions=regions))
    for iy in range(16):
        for ix in range(16):
            want_a, want_m = 0.0, 0.0
            for r in regions:
                dx, dy = ix - r.cx, iy - r.cy
                c, s = np.cos(r.angle), np.sin(r.angle)
                if ((dx * c + dy * s) / r.a) ** 2 + ((-dx * s + dy * c) / r.b) ** 2 <= 1:
                    want_a, want_m = r.activity, r.mu
            assert activity[iy, ix] == want_a
            assert mu[iy, ix] == want_m


def test_ellipse_outside_grid_rejected():
    spec = sim.PhantomSpec(grid_size=8, regions=(
        sim.EllipseRegion(20.0, 3.5, 3.0, 3.0, 0.0, activity=1.0, mu=0.0),))
    with pytest.raises(ValueError, match="outside"):
        sim.make_phantom(spec)


def test_negative_activity_rejected():
    with pytest.raises(ValueError):
        sim.EllipseRegion(4, 4, 2, 2, 0.0, activity=-1.0, mu=0.0)


def test_no_attenuation_no_normalization_gives_unit_mult():
    geom = sim.GeometryConfig(n_angles=8, n_bins=16, bin_width=1.0)
    model = sim.build_system_model(geom, np.zeros((8, 8)), norm_seed=None)
    assert np.all(model.mult_factors == 1.0)


def test_disk_attenuation_matches_analytic_chord():
    # uniform mu over a centered disk: central-bin factor = exp(-mu * 2R)
    n = 64
    radius = 20.0
    mu_val = 0.02
    c = (n - 1) / 2.0
    spec = sim.PhantomSpec(grid_size=n, regions=(
        sim.EllipseRegion(c, c, radius, radius, 0.0, activity=1.0, mu=mu_val),))
    _, mu = sim.make_phantom(spec)
    geom = sim.GeometryConfig(n_angles=8, n_bins=101, bin_width=1.0)
    model = sim.build_system_model(geom, mu, norm_seed=None)
    expected = np.exp(-mu_val * 2.0 * radius)
    for angle in range(geom.n_angles):
        center_bin = angle * geom.n_bins + (geom.n_bins - 1) // 2
        got = model.mult_factors[center_bin]
        assert abs(got - expected) / expected < 0.02


def test_adjointness_100_random_pairs():
    _, lm = make_test_problem(grid=16, seed=2)
    model = lm.model
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(model.n_pixels)
        s = rng.standard_normal(model.n_rows)
        ax = model.mult_factors * (model.weights @ x)
        lhs = np.dot(ax, s)
        rhs = np.dot(x, sim.back_project(model, s).ravel())
        denom = np.linalg.norm(ax) * np.linalg.norm(s)
        assert abs(lhs - rhs) / denom < 1e-10


def test_forward_project_zero_image_returns_background():
    _, lm = make_test_problem(grid=16, seed=3)
    out = sim.forward_project(lm.model, np.zeros(lm.model.n_pixels))
    np.testing.assert_array_equal(out.ravel(), lm.model.background)


def test_forward_project_impulse_is_scaled_matrix_column():
    _, lm = make_test_problem(grid=16, seed=3)
    model = lm.model
    j = 5 * 16 + 8
    x = np.zeros(model.n_pixels)
    x[j] = 1.0
    out = sim.forward_project(model, x).ravel() - model.background
    col = model.mult_factors * model.weights[:, j].toarray().ravel()
    np.testing.assert_allclose(out, col, atol=1e-14)


def test_forward_and_back_match_dense_oracle():
    _, lm = make_test_problem(grid=16, seed=4)
    model = lm.model
    dense = model.weights.toarray()
    rng = np.random.default_rng(0)
    x = rng.random(model.n_pixels)
    s = rng.random(model.n_rows)
    fwd = sim.forward_project(model, x).ravel()
    want = model.mult_factors * (dense @ x) + model.background
    assert np.max(np.abs(fwd - want)) < 1e-12
    bck = sim.back_project(model, s).ravel()
    want = dense.T @ (model.mult_factors * s)
    assert np.max(np.abs(bck - want)) < 1e-12


def test_back_project_zero_sinogram_is_zero():
    _, lm = make_test_problem(grid=16, seed=4)
    assert np.all(sim.back_project(lm.model, np.zeros(lm.model.n_rows)) == 0.0)


def test_forward_project_dimension_mismatch():
    _, lm = make_test_problem(grid=16, seed=4)
    with pytest.raises(ValueError):
        sim.forward_project(lm.model, np.zeros(10))
    with pytest.raises(ValueError):
        sim.back_project(lm.model, np.zeros(10))


def test_nonnegativity_forward_at_least_background():
    activity, lm = make_test_problem(grid=16, seed=5)
    out = sim.forward_project(lm.model, activity).ravel()
    assert np.all(out >= lm.model.background - 1e-15)


def test_simulate_counts_zero_expectation():
    geom = sim.GeometryConfig(n_angles=8, n_bins=16, bin_width=1.0)
    model = sim.build_system_model(geom, np.zeros((8, 8)), norm_seed=None)
    counts = sim.simulate_counts(model, np.zeros((8, 8)), dose_scale=2.0, seed=1)
    assert np.all(counts == 0)


def test_simulate_counts_deterministic():
    activity, lm = make_test_problem(grid=16, seed=6)
    a = sim.simulate_counts(lm.model, activity, 1.5, seed=99)
    b = sim.simulate_counts(lm.model, activity, 1.5, seed=99)
    np.testing.assert_array_equal(a, b)
    c = sim.simulate_counts(lm.model, activity, 1.5, seed=100)
    assert np.any(a != c)


def test_simulate_counts_rejects_nonpositive_dose():
    activity, lm = make_test_problem(grid=16, seed=6)
    with pytest.raises(ValueError):
        sim.simulate_counts(lm.model, activity, 0.0, seed=1)


def test_poisson_moments_of_single_bin():
    # 1e4 independent replicates of a mean-5 bin via the counter-based RNG
    lam = np.full(10**4, 5.0)
    draws = sim._poisson_counter(lam, seed=2024)
    se_mean = np.sqrt(5.0 / lam.size)
    assert abs(draws.mean() - 5.0) < 3 * se_mean
    # Var[(X-5)^2] for Poisson(5) is lam + 2 lam^2 = 55
    se_var = np.sqrt(55.0 / lam.size)
    assert abs(draws.var() - 5.0) < 5 * se_var


def test_poisson_counter_matches_fresh_per_bin_philox():
    # lam = 0 bins draw nothing; lam < 10 and lam >= 10 take different
    # numpy Poisson samplers; one seed is above 2**32
    lam = np.array([0.0, 0.3, 4.5, 9.99, 10.0, 37.0, 0.0, 2500.0, 1e-9])
    for seed in (1, 2**40 + 7, 123456789):
        want = [0 if value == 0 else np.random.Generator(
                    np.random.Philox(key=seed, counter=[0, 0, 0, i])).poisson(value)
                for i, value in enumerate(lam)]
        np.testing.assert_array_equal(sim._poisson_counter(lam, seed), want)


def test_projector_shared_per_geometry_and_read_only():
    geom = sim.GeometryConfig(n_angles=8, n_bins=26, bin_width=1.0)
    a = sim.build_system_model(geom, np.zeros((16, 16)), norm_seed=1)
    b = sim.build_system_model(geom, np.full((16, 16), 0.01), norm_seed=2)
    assert a.weights is b.weights
    with pytest.raises(ValueError):
        a.weights.data[0] = 1.0
    # the OSEM subset blocks are built once per matrix and shared, read-only,
    # also by the copies with_background and item_model make
    models = [a, b, sim.with_background(a, np.ones((16, 16)), 0.2),
              train.item_model(b, 2.0)]
    for m in models:
        assert recon.subset_blocks(m) is recon.subset_blocks(a)
    mats = [mat for _, *pair in recon.subset_blocks(a) for mat in pair]
    assert len(mats) == 2 * 8       # 8 subsets at 8 angles
    for mat in mats:
        for arr in (mat.data, mat.indices, mat.indptr):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
    for rows, _, _ in recon.subset_blocks(a):
        with pytest.raises(ValueError):
            rows[0] = 0


def _global_coo_projector(geom, n):
    """The projector as one COO matrix of every angle's triplets, summed
    and converted at once: the reference the per-angle assembly must match."""
    import scipy.sparse as sp
    half = (n - 1) / 2.0
    t = (np.arange(geom.n_bins) - (geom.n_bins - 1) / 2.0) * geom.bin_width
    reach = n * np.sqrt(2.0) / 2.0 + 1.0
    n_samples = int(np.ceil(2.0 * reach / sim._RAY_STEP))
    s = -reach + (np.arange(n_samples) + 0.5) * sim._RAY_STEP
    rows, cols, vals = [], [], []
    for ia in range(geom.n_angles):
        phi = ia * np.pi / geom.n_angles
        px = t[:, None] * np.cos(phi) - s[None, :] * np.sin(phi) + half
        py = t[:, None] * np.sin(phi) + s[None, :] * np.cos(phi) + half
        ix, iy = np.floor(px).astype(np.int64), np.floor(py).astype(np.int64)
        fx, fy = px - ix, py - iy
        row = np.broadcast_to((ia * geom.n_bins + np.arange(geom.n_bins))[:, None],
                              px.shape)
        for dx, dy, wt in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                           (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
            jx, jy = ix + dx, iy + dy
            keep = (jx >= 0) & (jx < n) & (jy >= 0) & (jy < n) & (wt > 0)
            rows.append(row[keep])
            cols.append(jy[keep] * n + jx[keep])
            vals.append(wt[keep] * sim._RAY_STEP)
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geom.n_angles * geom.n_bins, n * n))
    A.sum_duplicates()
    return A.tocsr()


# odd and even n_bins, bin widths other than 1, and the demo geometry
GEOMETRIES = [(8, 23, 1.0, 16), (12, 30, 1.6, 16), (10, 48, 1.0, 33),
              (48, 69, 1.0, 48), (7, 80, 0.9, 48)]


@pytest.mark.parametrize("n_angles,n_bins,bin_width,grid", GEOMETRIES)
def test_per_angle_projector_matches_global_coo(n_angles, n_bins, bin_width, grid):
    # odd and even n_bins, bin widths other than 1: the same arrays, bit for
    # bit, as summing all duplicates of one global COO matrix
    geom = sim.GeometryConfig(n_angles=n_angles, n_bins=n_bins, bin_width=bin_width)
    got = sim._assemble_projector.__wrapped__(geom, grid)
    want = _global_coo_projector(geom, grid)
    assert type(got) is type(want) and got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("n_angles,n_bins,bin_width,grid", GEOMETRIES)
def test_back_project_matches_stored_transpose_bitwise(n_angles, n_bins, bin_width,
                                                       grid):
    # A's transpose view adds each pixel's terms in row order from 0, as a
    # product with the row-major transpose A.T.tocsr() does
    geom = sim.GeometryConfig(n_angles=n_angles, n_bins=n_bins, bin_width=bin_width)
    activity, mu = sim.make_phantom(sim.random_phantom_spec(grid, seed=5))
    model = sim.phantom_model(geom, activity, mu, norm_seed=6, background_fraction=0.2)
    at = model.weights.T.tocsr()
    s = np.random.default_rng(7).normal(0.0, 2.0, model.n_rows)
    for sino, got in ((s, sim.back_project(model, s)),
                      (np.ones(model.n_rows), model.sensitivity)):
        want = at @ (model.mult_factors * sino)
        assert got.shape == (grid, grid)
        assert got.ravel().tobytes() == want.tobytes()


def test_projector_assembly_peak_memory():
    # one angle's triplets at a time: the demo projector (48 angles x 69
    # bins, 48x48) peaked at about 59 MB when every triplet was held at once
    import tracemalloc
    geom = sim.GeometryConfig(n_angles=48, n_bins=69, bin_width=1.0)
    sim._assemble_projector.__wrapped__(geom, 48)   # scipy's own first-use set-up
    tracemalloc.start()
    try:
        sim._assemble_projector.__wrapped__(geom, 48)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak / 2**20


def test_image_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.standard_normal((13, 9))
    path = tmp_path / "img.img"
    sim.write_image(path, img)
    back = sim.read_image(path)
    np.testing.assert_array_equal(img, back)


def test_image_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.img"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 24)
    with pytest.raises(ValueError, match="PNPIMG1"):
        sim.read_image(path)


def test_image_truncation_rejected(tmp_path):
    path = tmp_path / "img.img"
    sim.write_image(path, np.ones((3, 4)))
    raw = path.read_bytes()
    for cut, needle in ((12, "truncated header"), (len(raw) - 8, "payload")):
        path.write_bytes(raw[:cut])
        with pytest.raises(FileFormatError, match=needle):
            sim.read_image(path)


def test_pgm_header_and_scaling(tmp_path):
    img = np.array([[0.0, 1.0], [2.0, 4.0]])
    path = tmp_path / "img.pgm"
    sim.write_pgm(path, img)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3].split() == ["0", "64"]
    assert lines[4].split() == ["128", "255"]


def test_pgm_bytes_match_per_scalar_formatting(tmp_path):
    # each row joined from Python ints writes the same bytes as formatting
    # every numpy scalar on its own
    rng = np.random.default_rng(3)
    for img in (rng.standard_normal((7, 5)), rng.gamma(2.0, size=(48, 48)),
                np.zeros((3, 4)), np.full((2, 6), -1.0)):
        path = tmp_path / "img.pgm"
        sim.write_pgm(path, img)
        top = img.max()
        scaled = (np.rint(255.0 * np.clip(img, 0.0, None) / top).astype(int) if top > 0
                  else np.zeros(img.shape, dtype=int))
        want = f"P2\n{img.shape[1]} {img.shape[0]}\n255\n" + "".join(
            " ".join(str(v) for v in row) + "\n" for row in scaled)
        assert path.read_bytes() == want.encode()


def test_geometry_must_cover_grid():
    geom = sim.GeometryConfig(n_angles=8, n_bins=8, bin_width=1.0)
    with pytest.raises(ValueError, match="cover"):
        sim.build_system_model(geom, np.zeros((16, 16)))
