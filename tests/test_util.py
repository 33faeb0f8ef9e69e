"""The order-preserving map that runs independent units on the worker pool."""

import os
import threading
import time

import numpy as np
import pytest

from pnprecon import util


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="needs os.sched_getaffinity")
def test_worker_count_is_usable_cores():
    assert util.N_WORKERS == len(os.sched_getaffinity(0))


def test_ordered_map_keeps_input_order():
    # later units finish first
    def unit(i):
        time.sleep(0.002 * (12 - i))
        return i * i
    assert list(util.ordered_map(unit, range(12))) == [i * i for i in range(12)]


def test_ordered_map_yields_results_before_the_failing_unit_then_raises():
    # unit 5 fails before unit 3 does; unit 3, first in input order, is raised
    def unit(i):
        if i == 3:
            time.sleep(0.05)
            raise ValueError("unit 3")
        if i == 5:
            raise ValueError("unit 5")
        return i
    got = []
    with pytest.raises(ValueError, match="unit 3"):
        for value in util.ordered_map(unit, range(9)):
            got.append(value)
    assert got == [0, 1, 2]


def test_ordered_map_one_unit_runs_in_calling_thread():
    assert list(util.ordered_map(lambda _: threading.get_ident(), ["a"])) == [
        threading.get_ident()]
    assert list(util.ordered_map(lambda _: 1, [])) == []


@pytest.mark.skipif(util.N_WORKERS < 2, reason="one usable core")
def test_ordered_map_runs_units_on_the_pool():
    caller = threading.get_ident()
    idents = list(util.ordered_map(lambda _: threading.get_ident(), range(4)))
    assert caller not in idents


def test_ordered_map_nested_call_runs_inline():
    # a map inside a unit would otherwise wait on its own pool's workers
    def outer(i):
        ident = threading.get_ident()
        inner = list(util.ordered_map(lambda _: threading.get_ident(), range(3)))
        return inner == [ident] * 3
    assert all(util.ordered_map(outer, range(2 * util.N_WORKERS + 1)))


def test_ordered_map_units_see_the_callers_errstate():
    def unit(x):
        return np.float64(x) / 0.0
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        list(util.ordered_map(unit, [1.0, 2.0, 3.0]))
