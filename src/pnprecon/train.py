"""Dataset construction, the two-term training loss, Adam, and the
two-phase protocol (PRE: supervised MSE only; JAC: MSE plus the
nonexpansiveness hinge on the sampled Jacobian spectral norm)."""

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import net, recon, sim
from .util import NumericalAbort, derive_seed, ordered_map

__all__ = [
    "DatasetItem",
    "Dataset",
    "TrainConfig",
    "AdamState",
    "build_dataset",
    "sample_tilde",
    "draw_tilde",
    "sigma_at_tilde",
    "sample_sigmas",
    "loss_and_grad",
    "adam_step",
    "train_phase",
    "LOG_HEADER",
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPS",
    "ADAM_CONSTANTS",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_CONSTANTS = f"adam_beta1={ADAM_BETA1},adam_beta2={ADAM_BETA2},adam_eps={ADAM_EPS}"
# the columns of the training log, one row per epoch
LOG_HEADER = ("epoch", "loss_total", "loss_mse", "loss_pen",
              "test_mse", "test_sigma_max", "test_sigma_mean")


@dataclass(frozen=True)
class DatasetItem:
    phantom_id: int
    dose_scale: float
    seed: int
    counts: np.ndarray      # simulated Poisson counts, sinogram shape
    x_noisy: np.ndarray     # OSEM reconstruction of the counts
    x_ref: np.ndarray       # noise-free reference (dose-scaled activity)
    split: str              # "train" | "test"


@dataclass(frozen=True)
class Dataset:
    items: tuple
    phantoms: dict          # phantom id -> (activity, mu)

    def split(self, name):
        return [it for it in self.items if it.split == name]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float
    batch_size: int
    beta: float = 0.0               # hinge weight: 0 in PRE, > 0 in JAC
    alpha: float = 0.1
    epsilon: float = 0.05
    power_iters: int = 10           # Lanczos step cap of each sigma
    seed: int = 0
    sigma_eval_samples: int = 8     # test-sigma samples logged per epoch

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("need 0 < learning_rate < inf and epochs, batch_size >= 1")
        if self.power_iters < 1 or self.sigma_eval_samples < 0:
            raise ValueError("power_iters must be >= 1 and sigma_eval_samples >= 0")
        if not (0 <= self.beta < np.inf and 0 <= self.alpha < np.inf
                and 0 <= self.epsilon < 1):
            raise ValueError("hinge needs finite beta, alpha >= 0 and 0 <= epsilon < 1")


def item_model(base_model, dose_scale):
    """Acquisition model of one realization: the background estimate
    scales with the injected dose (it is derived from the data)."""
    return dataclasses.replace(base_model,
                               background=dose_scale * base_model.background)


def build_dataset(phantom_specs, geom, doses, base_seed, osem_iterations,
                  n_test_phantoms=1, background_fraction=0.2, norm_seed=0):
    """Simulate, reconstruct and pair every (phantom, dose) combination.

    doses holds one list per phantom.  Each item's noise-free reference
    is the dose-scaled activity map: the image that actually produced
    the counts.  The last n_test_phantoms phantoms form the test split,
    so train and test phantoms are disjoint by construction.
    """
    n_phantoms = len(phantom_specs)
    if n_phantoms < 2:
        raise ValueError("need at least 2 phantoms for a nontrivial split")
    if not 1 <= n_test_phantoms < n_phantoms:
        raise ValueError("test phantoms must leave at least one for training")
    phantoms = {p: sim.make_phantom(spec) for p, spec in enumerate(phantom_specs)}
    items = []
    for p, (activity, mu) in phantoms.items():
        model = sim.phantom_model(geom, activity, mu, norm_seed,
                                  background_fraction)
        split = "test" if p >= n_phantoms - n_test_phantoms else "train"
        # the item models differ only in background: one mask, one start
        x0 = recon.uniform_start(model)
        for d, dose in enumerate(doses[p]):
            seed = derive_seed(base_seed, p, d)
            # OSEM divides by zero at a count whose expected count is 0
            try:
                counts = sim.simulate_counts(model, activity, dose, seed)
                lm = recon.LikelihoodModel(model=item_model(model, dose), y=counts)
                x_noisy = recon.osem_reconstruct(lm, osem_iterations, x0=x0)
            except (NumericalAbort, ZeroDivisionError) as exc:
                raise NumericalAbort(f"phantom {p}, dose {dose:g}: {exc}") from exc
            items.append(DatasetItem(
                phantom_id=p, dose_scale=float(dose), seed=seed, counts=counts,
                x_noisy=x_noisy, x_ref=dose * activity, split=split))
    return Dataset(items=tuple(items), phantoms=phantoms)


def sample_tilde(x_ref, d_out, kappa):
    """Convex combination kappa * x_ref + (1 - kappa) * d_out."""
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    return kappa * np.asarray(x_ref, float) + (1.0 - kappa) * np.asarray(d_out, float)


def draw_tilde(rng):
    """(kappa, seed): kappa first, then the seed of the Lanczos start, from
    rng.  The seed is drawn even when the start is warm, so every
    certification point takes the same two draws."""
    return float(rng.uniform()), int(rng.integers(2 ** 62))


def sigma_at_tilde(params, x_ref, d_out, draw, power_iters, u0=None,
                   dtype=np.float64):
    """(lin, sigma, u, steps) at x_tilde = sample_tilde(x_ref, d_out, kappa)
    for draw = (kappa, seed) from draw_tilde, from net.spectral_norm_l
    capped at power_iters Lanczos steps on a linearization in dtype; the
    seed is unused when u0 is given."""
    kappa, seed = draw
    lin = net.Linearization(params, sample_tilde(x_ref, d_out, kappa), dtype)
    return (lin,) + net.spectral_norm_l(lin, max_iters=power_iters, seed=seed,
                                        u0=u0)


def sample_sigmas(params, points, draws, power_iters):
    """(sigma, steps) of sigma_at_tilde, started cold, at each (x_ref, d_out)
    point with its draw, lazily and in input order; the points run in
    parallel (util.ordered_map), and closing early cancels those not started.
    Network passes run in float32, Lanczos in float64; a sample whose float32
    sigma is not finite (an overflow) is redone in float64, not returned wrong."""
    def unit(args):
        (x_ref, d_out), draw = args
        with np.errstate(all="ignore"):     # an overflow here is redone below
            _, sigma, _, steps = sigma_at_tilde(params, x_ref, d_out, draw,
                                                power_iters, dtype=np.float32)
        if not np.isfinite(sigma):
            _, sigma, _, steps = sigma_at_tilde(params, x_ref, d_out, draw,
                                                power_iters)
        return sigma, steps
    return ordered_map(unit, zip(points, draws))


def loss_and_grad(params, batch, cfg, rng, power_warm=None):
    """Batch loss  sum_b ||D(x_b) - ref_b||^2 + beta * hinge_b  and gradient.

    The hinge is evaluated at x_tilde drawn per element (fresh kappa), with
    the spectral norm estimated by warm-started Lanczos; its top Ritz
    vector is reused, frozen, inside the gradient, and both read one
    linearization at x_tilde.
    At beta = 0 (the PRE phase) the penalty is skipped entirely.

    The items run in parallel (util.ordered_map).  The draws, the warm
    starts read from power_warm, the sums and the power_warm stores stay
    in item order in the caller, so the result does not depend on the
    worker count; two items with one key both start from the value stored
    before the batch.
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    with_penalty = cfg.beta > 0
    # every warm start is read before any is stored
    power_warm = {} if power_warm is None else power_warm
    keys = [(item.phantom_id, round(item.dose_scale, 12)) for item in batch]
    draws = [draw_tilde(rng) if with_penalty else None for _ in batch]
    warm = [power_warm.get(key) for key in keys]

    def unit(args):
        item, draw, u0 = args
        grad, out = net.param_grad_mse(params, item.x_noisy, item.x_ref)
        diff = out - item.x_ref
        mse_part = float(np.sum(diff * diff))
        if not with_penalty:
            return mse_part, grad.vec, None
        lin, _, u, _ = sigma_at_tilde(params, item.x_ref, out, draw,
                                      cfg.power_iters, u0)
        pen_grad, sigma_hat = net.param_grad_penalty(
            lin, u, epsilon=cfg.epsilon, alpha=cfg.alpha)
        value, _ = net.hinge(sigma_hat, cfg.epsilon, cfg.alpha)
        return mse_part, grad.vec, (u, value, pen_grad.vec)

    loss_mse = 0.0
    loss_pen = 0.0
    gvec = np.zeros(net.n_params(params.arch))
    for key, (mse_part, grad_vec, pen) in zip(
            keys, ordered_map(unit, zip(batch, draws, warm))):
        loss_mse += mse_part
        gvec += grad_vec
        if pen is not None:
            power_warm[key], value, pen_vec = pen
            loss_pen += value
            gvec += cfg.beta * pen_vec
    loss_total = loss_mse + cfg.beta * loss_pen
    return loss_total, loss_mse, loss_pen, gvec


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n):
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


def adam_step(params_vec, grad_vec, state, lr):
    """Bias-corrected Adam on flat vectors; train_phase aborts on inf or NaN."""
    step = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad_vec
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad_vec * grad_vec
    mhat = m / (1.0 - ADAM_BETA1 ** step)
    vhat = v / (1.0 - ADAM_BETA2 ** step)
    new_vec = params_vec - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return new_vec, AdamState(m=m, v=v, step=step)


def _test_metrics(params, test_items, cfg, rng):
    """Mean test MSE plus sampled test spectral norms for the epoch log;
    the item picks and draws come from rng in order."""
    outs = [net.forward(params, item.x_noisy) for item in test_items]
    mses = [recon.mse(out, item.x_ref) for out, item in zip(outs, test_items)]
    n = len(test_items)
    picks = [(int(rng.integers(n)), draw_tilde(rng))    # the item, then its draw
             for _ in range(min(cfg.sigma_eval_samples, n))]
    sigmas = [sigma for sigma, _ in sample_sigmas(
        params, [(test_items[i].x_ref, outs[i]) for i, _ in picks],
        [draw for _, draw in picks], cfg.power_iters)]
    return (float(np.mean(mses)),
            float(np.max(sigmas)) if sigmas else float("nan"),
            float(np.mean(sigmas)) if sigmas else float("nan"))


def train_phase(params0, dataset, cfg):
    """Epoch loop over shuffled seeded batches; returns (params, log rows)."""
    train_items = dataset.split("train")
    test_items = dataset.split("test")
    if not train_items:
        raise ValueError("dataset has no training items")
    if not test_items:
        raise ValueError("dataset has no test items")
    rng = np.random.default_rng(cfg.seed)
    vec = net.params_to_vector(params0)
    state = AdamState.zeros(vec.size)
    rows = []
    power_warm = {}
    arch = params0.arch
    n = len(train_items)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        tot = tot_mse = tot_pen = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = [train_items[i] for i in order[start:start + cfg.batch_size]]
            params = net.vector_to_params(arch, vec)
            loss, mse_part, pen_part, gvec = loss_and_grad(
                params, batch, cfg, rng, power_warm=power_warm)
            if not np.isfinite(loss):
                raise NumericalAbort(
                    f"non-finite loss at epoch {epoch}, batch start {start}")
            vec, state = adam_step(vec, gvec, state, cfg.learning_rate)
            for what, arrays in (("parameters", (vec,)),
                                 ("Adam moments", (state.m, state.v))):
                if not all(np.all(np.isfinite(x)) for x in arrays):
                    raise NumericalAbort(f"non-finite {what} after the Adam step "
                                         f"at epoch {epoch}, batch start {start}")
            tot += loss
            tot_mse += mse_part
            tot_pen += pen_part
        params = net.vector_to_params(arch, vec)
        test_mse, sig_max, sig_mean = _test_metrics(params, test_items, cfg, rng)
        rows.append([epoch, tot / n, tot_mse / n, tot_pen / n,
                     test_mse, sig_max, sig_mean])
    return params, rows
