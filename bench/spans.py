"""Span recorder for the traced benchmark run.

The recorder wraps the public functions listed in ``LAYERS`` by replacing
module attributes, so calls made through the module (``sim.forward_project``
from ``recon``, ``cmd_train`` from ``cli.main``) and calls inside a module
(``simulate_counts`` -> ``forward_project``) both pass through a wrapper.
Nothing in ``src/`` is changed.  Spans are recorded only inside
``Tracer.stage``; outside it the wrappers call straight through, so the
benchmark's own output checks leave no spans.
"""

import functools
import time
from contextlib import contextmanager

# module -> public functions that get a span (and a .calls / .self_s metric)
LAYERS = {
    "sim": ("build_system_model", "simulate_counts", "forward_project",
            "back_project", "write_image", "read_image", "write_pgm"),
    "recon": ("osem_reconstruct", "log_likelihood", "gaussian_postfilter_sweep"),
    "prox": ("prox_neg_ll", "surrogate_root"),
    "net": ("forward", "param_grad_mse", "param_grad_penalty", "spectral_norm_l",
            "vector_to_params", "grad_to_vector", "load_checkpoint",
            "save_checkpoint"),
    "train": ("loss_and_grad", "adam_step", "train_phase", "build_dataset"),
    "admm": ("admm_pnp", "rho_sweep"),
    "cli": ("cmd_simulate", "cmd_train", "cmd_certify", "cmd_sweep",
            "cmd_reconstruct"),
}

# spectral_norm_l self time is split by the span that called it: the
# training step, the per-epoch test diagnostic (train_phase calls the
# private _test_metrics, which has no span) and certify.
SPECTRAL_PARENTS = ("train.loss_and_grad", "train.train_phase", "cli.cmd_certify")

PROX = "prox.prox_neg_ll"

# (metric name, unit, better) of every per-layer metric, in report order
METRICS = (
    [(f"{mod}.{fn}.{kind}", unit, "lower")
     for mod, fns in LAYERS.items() for fn in fns
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"net.spectral_norm_l.under-{p.split('.')[1]}.self_s", "s", "lower")
       for p in SPECTRAL_PARENTS]
    + [(f"{PROX}.inner_iters", "count", "lower"),
       (f"{PROX}.cap_hit_frac", "ratio", "lower"),
       ("train.loss_and_grad.net_calls_per_call", "count", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)


class Tracer:
    """Records spans (name, start, end, parent, stage) in memory.

    ``install`` patches the modules; ``uninstall`` restores them.
    ``reset`` hands over the spans of one traced round; ``summarize``
    turns them into the per-layer numbers.
    """

    def __init__(self, modules):
        self._modules = modules          # name -> imported module
        self._saved = []
        self._stack = []
        self._stage = None
        self.spans = []                  # [name, start, end, parent, stage]
        self.prox_iters = {}             # span index -> (iterations, cap)

    def install(self):
        for mod_name, fns in LAYERS.items():
            module = self._modules[mod_name]
            for fn_name in fns:
                original = getattr(module, fn_name)
                self._saved.append((module, fn_name, original))
                name = f"{mod_name}.{fn_name}"
                wrap = self._wrap_prox if name == PROX else self._wrap
                setattr(module, fn_name, wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, fn_name, original = self._saved.pop()
            setattr(module, fn_name, original)

    def reset(self):
        """Return the spans recorded so far and start an empty list."""
        spans, prox = self.spans, self.prox_iters
        self.spans, self.prox_iters = [], {}
        return spans, prox

    @contextmanager
    def stage(self, stage_id):
        self._stage = stage_id
        try:
            yield
        finally:
            self._stage = None
            self._stack.clear()

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._stage])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stage is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_prox(self, name, fn):
        """Span plus an injected iteration-counting callback, used only
        when the caller passed none (the ADMM loop never does)."""
        @functools.wraps(fn)
        def traced(lm, v, cfg, x_init, callback=None):
            if self._stage is None:
                return fn(lm, v, cfg, x_init, callback)
            count = [0]

            def counting(it, x):
                count[0] += 1

            inject = callback is None
            idx = self._open(name)
            try:
                return fn(lm, v, cfg, x_init, counting if inject else callback)
            finally:
                self._close(idx)
                if inject:
                    self.prox_iters[idx] = (count[0], cfg.n_inner)
        return traced


def summarize(spans, prox_iters):
    """Per-layer numbers of one traced round.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap (one thread).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for mod, fns in LAYERS.items():
        for fn in fns:
            out[f"{mod}.{fn}.calls"] = 0
            out[f"{mod}.{fn}.self_s"] = 0.0
    under = {p: 0.0 for p in SPECTRAL_PARENTS}
    steps = net_calls = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s = (end - start) - child[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "net.spectral_norm_l" and parent_name in under:
            under[parent_name] += self_s
        if name == "train.loss_and_grad":
            steps += 1
        if name.startswith("net.") and parent_name == "train.loss_and_grad":
            net_calls += 1
    for p, value in under.items():
        out[f"net.spectral_norm_l.under-{p.split('.')[1]}.self_s"] = value
    counted = list(prox_iters.values())
    out[f"{PROX}.inner_iters"] = sum(n for n, _ in counted)
    out[f"{PROX}.cap_hit_frac"] = (
        sum(n >= cap for n, cap in counted) / len(counted) if counted else 0.0)
    out["train.loss_and_grad.net_calls_per_call"] = net_calls / steps if steps else 0.0
    return out
