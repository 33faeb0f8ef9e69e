"""Independent reference implementations used only to check the package.

These deliberately avoid the production code paths: the prox oracle is a
projected-gradient method with a projected-Newton polish, the convolution
oracle is a plain six-loop implementation, the spectral oracle builds
the dense Jacobian column by column, and the power-iteration reference is
the plain iteration that the Lanczos spectral norm must beat.
"""

import numpy as np

from pnprecon import net, recon, sim


def make_test_problem(grid=16, n_angles=12, seed=0, dose=1.0,
                      background_fraction=0.2, norm_seed=11):
    """Small randomized phantom + model + Poisson data."""
    spec = sim.random_phantom_spec(grid, seed=seed)
    activity, mu = sim.make_phantom(spec)
    n_bins = int(np.ceil(grid * np.sqrt(2.0))) + 3
    geom = sim.GeometryConfig(n_angles=n_angles, n_bins=n_bins, bin_width=1.0)
    model = sim.build_system_model(geom, mu, norm_seed=norm_seed)
    model = sim.with_background(model, activity, background_fraction)
    y = sim.simulate_counts(model, activity, dose, seed=seed + 1000)
    lm = recon.LikelihoodModel(model=model, y=y)
    return activity, lm


def osem_start(lm):
    """An ADMM start: 8 OSEM iterations."""
    return recon.osem_reconstruct(lm, 8)


def masked_osem(lm, n_iterations, n_subsets, x0):
    """OSEM from x0 over n_subsets angle-interleaved subsets, any count that
    divides n_angles, by the path recon.osem_reconstruct replaced: per
    subset step, a full forward projection, the ratio zeroed outside the
    subset and a full back-projection, over sensitivities back-projected
    from indicator sinograms."""
    model, geom = lm.model, lm.model.geometry
    at = model.weights.T.tocsr()
    rows = [(np.arange(s, geom.n_angles, n_subsets)[:, None] * geom.n_bins
             + np.arange(geom.n_bins)[None, :]).ravel() for s in range(n_subsets)]
    sens = []
    for r in rows:
        ones = np.zeros(model.n_rows)
        ones[r] = 1.0
        sens.append(at @ (model.mult_factors * ones))
    y = lm.y.ravel()
    x = np.asarray(x0, dtype=float).ravel().copy()
    for _ in range(n_iterations):
        for r, sen in zip(rows, sens):
            ybar = model.mult_factors * (model.weights @ x) + model.background
            ratio = np.divide(y, ybar, out=np.zeros_like(ybar), where=ybar > 0)
            keep = np.zeros_like(ratio)
            keep[r] = ratio[r]
            num = at @ (model.mult_factors * keep)
            mask = sen > 0
            out = np.zeros_like(x)
            out[mask] = x[mask] * num[mask] / sen[mask]
            x = out
    return x.reshape(np.shape(x0))


def scalar_model(y_value, mult=1.0, background=0.0):
    """1-pixel, 1-active-bin system: A = [1], second detector row zero."""
    import scipy.sparse as sp
    geom = sim.GeometryConfig(n_angles=2, n_bins=1, bin_width=1.0)
    A = sp.csr_matrix(np.array([[1.0], [0.0]]))
    model = sim.SystemModel(geometry=geom, grid_size=1, weights=A,
                            mult_factors=np.array([mult, 1.0]),
                            background=np.array([background, 0.0]))
    return recon.LikelihoodModel(model=model, y=np.array([[y_value], [0.0]]))


def _objective_and_grad(lm, v, rho, x):
    obj = -recon.log_likelihood(lm, x) + 0.5 * rho * np.sum((x - v) ** 2)
    grad = -recon.ll_gradient(lm, x).ravel() + rho * (x.ravel() - v.ravel())
    return obj, grad


def penalized_solver(lm, v, rho, x0=None, kkt_target=1e-10, max_iters=20000):
    """Solve min_{x>=0} -LL(x) + rho/2 ||x - v||^2 independently.

    Spectral projected gradient with backtracking, then projected-Newton
    polish on the free set.  Raises if the KKT target is not reached.
    """
    v = np.asarray(v, dtype=float).ravel()
    mask = lm.model.mask.ravel()
    n = v.size
    x = np.ones(n) if x0 is None else np.asarray(x0, dtype=float).ravel().copy()
    x[~mask] = 0.0

    def project(z):
        z = np.maximum(z, 0.0)
        z[~mask] = 0.0
        return z

    obj, grad = _objective_and_grad(lm, v, rho, x)
    step = 1.0 / (rho + 1.0)
    for _ in range(max_iters):
        x_new = project(x - step * grad)
        d = x_new - x
        dn = np.linalg.norm(d)
        if dn < 1e-16:
            break
        obj_new, grad_new = _objective_and_grad(lm, v, rho, x_new)
        # backtrack on sufficient decrease
        bt = 0
        while obj_new > obj + np.dot(grad, d) + 0.5 / step * dn ** 2 and bt < 60:
            step *= 0.5
            x_new = project(x - step * grad)
            d = x_new - x
            dn = np.linalg.norm(d)
            obj_new, grad_new = _objective_and_grad(lm, v, rho, x_new)
            bt += 1
        # Barzilai-Borwein step for the next iteration
        g_diff = grad_new - grad
        denom = np.dot(d, g_diff)
        if denom > 0:
            step = max(min(np.dot(d, d) / denom, 1e6), 1e-12)
        x, obj, grad = x_new, obj_new, grad_new
        if _kkt(x, grad, mask) < max(kkt_target, 1e-12) * 100:
            break

    # projected-Newton polish: exact Hessian on the free set
    for _ in range(50):
        obj, grad = _objective_and_grad(lm, v, rho, x)
        res = _kkt(x, grad, mask)
        if res <= kkt_target:
            break
        free = mask & ((x > 0) | (grad < 0))
        H = _dense_hessian(lm, rho, x)
        idx = np.flatnonzero(free)
        try:
            delta = np.linalg.solve(H[np.ix_(idx, idx)], grad[idx])
        except np.linalg.LinAlgError:
            break
        trial = x.copy()
        step = 1.0
        for _ in range(40):
            trial[idx] = np.maximum(x[idx] - step * delta, 0.0)
            t_obj, _ = _objective_and_grad(lm, v, rho, trial)
            if t_obj <= obj + 1e-14 * abs(obj):
                break
            step *= 0.5
        x = trial
    obj, grad = _objective_and_grad(lm, v, rho, x)
    res = _kkt(x, grad, mask)
    if res > kkt_target:
        raise RuntimeError(f"oracle did not reach KKT target: {res:.3e}")
    return x.reshape(lm.model.grid_size, lm.model.grid_size)


def _kkt(x, grad, mask):
    stat = np.minimum(x[mask], grad[mask])
    return float(np.max(np.abs(stat))) if stat.size else 0.0


def _dense_hessian(lm, rho, x):
    """C^T diag(y / ybar^2) C + rho I with C = diag(mult) A."""
    A = lm.model.weights.toarray()
    C = lm.model.mult_factors[:, None] * A
    ybar = C @ x + lm.model.background
    w = np.zeros_like(ybar)
    pos = ybar > 0
    w[pos] = lm.y.ravel()[pos] / ybar[pos] ** 2
    return C.T @ (w[:, None] * C) + rho * np.eye(x.size)


def naive_net_forward(params, x):
    """Loop-based reference for the denoiser forward pass."""
    arch = params.arch
    s = net.input_scale(x)
    w = x / s
    a = [w]
    k = net.KERNEL
    pad = k // 2
    for layer in range(arch.n_layers):
        ker = params.kernels[layer]
        bias = params.biases[layer]
        co, ci = ker.shape[:2]
        h, wd = w.shape
        z = np.zeros((co, h, wd))
        padded = np.zeros((ci, h + 2 * pad, wd + 2 * pad))
        for c in range(ci):
            padded[c, pad:pad + h, pad:pad + wd] = a[c]
        for o in range(co):
            for i in range(h):
                for j in range(wd):
                    acc = bias[o]
                    for c in range(ci):
                        for di in range(k):
                            for dj in range(k):
                                acc += ker[o, c, di, dj] * padded[c, i + di, j + dj]
                    z[o, i, j] = acc
        if layer < arch.n_layers - 1:
            a = [np.maximum(t, 0) + np.log1p(np.exp(-np.abs(t))) - np.log(2.0)
                 for t in z]
        else:
            a = [z[0]]
    return s * (w + a[0])


def dense_jacobian_l(params, x):
    """Columns of 2 J_D - I assembled through jvp on basis vectors."""
    n = x.size
    J = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        J[:, j] = (2.0 * net.Linearization(params, x).jvp(e.reshape(x.shape))
                   - e.reshape(x.shape)).ravel()
    return J


def power_iteration_l(lin, iters, u0):
    """Plain power iteration for sigma(2 J - I) at the point of lin: iters
    applications of J_L^T J_L to u0, then ||J_L u|| at the unit u reached."""
    def apply(u):
        return 2.0 * lin.jvp(u) - u
    u = u0 / np.linalg.norm(u0)
    for _ in range(iters):
        ju = apply(u)
        w = 2.0 * lin.vjp(ju) - ju
        u = w / np.linalg.norm(w)
    return float(np.linalg.norm(apply(u)))
