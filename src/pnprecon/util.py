"""Small shared helpers: atomic writes, CSV with pinned float format, seeds,
read-only sparse matrices, and the order-preserving map that runs
independent units on every usable core."""

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["NumericalAbort", "fmt", "atomic_write", "write_csv", "derive_seed",
           "read_only", "N_WORKERS", "ordered_map"]


class NumericalAbort(RuntimeError):
    """A run produced a non-finite quantity and was stopped."""


def fmt(value):
    """Pin floats to 17 significant digits so reruns are byte-identical."""
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def atomic_write(path, data):
    """Write data, bytes or text, to path through a temporary file, making
    path's directory first if it is missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def write_csv(path, header, rows, comment=None):
    """Comma-separated, '.' decimals, mandatory header row."""
    lines = []
    if comment:
        lines.append(f"# {comment}\n")
    lines.append(",".join(header) + "\n")
    for row in rows:
        lines.append(",".join(fmt(v) for v in row) + "\n")
    atomic_write(path, "".join(lines))


def derive_seed(*keys):
    """Deterministic 63-bit child seed from an ordered key tuple."""
    ss = np.random.SeedSequence([int(k) & 0x7FFFFFFFFFFFFFFF for k in keys])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def read_only(A):
    """A sparse matrix whose data, indices and indptr are made read-only."""
    for arr in (A.data, A.indices, A.indptr):
        arr.flags.writeable = False
    return A


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


# One worker thread per usable core (`taskset -c 0` gives one, the serial
# path).  numpy's matmul and scipy's sparse products release the GIL, so
# units on different workers overlap.
N_WORKERS = _usable_cores()
_in_worker = threading.local()
_POOL = ThreadPoolExecutor(max_workers=N_WORKERS, thread_name_prefix="pnprecon",
                           initializer=setattr, initargs=(_in_worker, "flag", True))


def ordered_map(fn, items):
    """fn over items, lazily yielding results in input order.

    Independent units are all queued on the worker pool at once.  A list
    of 0 or 1 units, a single worker and a call from inside a worker
    (which would wait on its own pool) run in the calling thread.  A
    unit's exception is raised at its position, after the results of
    every earlier unit, and closing the generator early cancels the units
    not yet started.  Units must not draw from a shared RNG: draw in the
    caller, in order, and pass the draws in, so results do not depend on
    the worker count.
    """
    items = list(items)
    if len(items) < 2 or N_WORKERS < 2 or getattr(_in_worker, "flag", False):
        return map(fn, items)
    # one copy of the caller's context per unit (a context cannot be entered
    # by two threads at once), so np.errstate applies as in a loop
    contexts = [contextvars.copy_context() for _ in items]
    return _POOL.map(lambda ctx, item: ctx.run(fn, item), contexts, items)
