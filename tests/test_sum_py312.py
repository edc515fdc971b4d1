"""The pinned replays on Python 3.12's ``sum()``, proven on any interpreter.

From Python 3.12 the builtin ``sum()`` adds exact ``float`` items with
Neumaier compensation; ints and float subclasses such as ``numpy.float64``
keep the plain path.  Any float ``sum()`` that feeds a pinned number is then
a switch on the interpreter.  :func:`sum312` is that algorithm written out
from CPython 3.12's ``builtin_sum_impl``, and the tests below run the
recorded replay goldens, the plain frozen-parent equivalence, the
queue's backlog bookkeeping and a synthetic trace's mix weights with
``builtins.sum`` swapped for it, and the cost model's pinned bits beside
them, so a host on an older Python proves what CI's 3.12 leg would see.
"""

from __future__ import annotations

import builtins
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_recorded_goldens as goldens
import test_service_bookkeeping as bookkeeping
import test_service_equivalence as equivalence
from repro.service import trace as trace_module

_LONG_MIN, _LONG_MAX = -(2**63), 2**63 - 1


def sum312(iterable, /, start=0):
    """CPython 3.12's ``sum()``: three fast paths, then generic ``+``."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) is not int and type(item) is not bool:
                break  # leave the int path for good
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


@pytest.fixture
def python312_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", sum312)


def test_the_swap_compensates_exact_floats_only():
    # Python 3.12's "What's New" example.
    assert sum312([0.1] * 10) == 1.0
    assert sum([0.1] * 10) == (1.0 if sys.version_info >= (3, 12) else 0.9999999999999999)
    # numpy.float64 and ints keep the plain left-to-right path.
    assert sum312([np.float64(0.1)] * 10) == 0.9999999999999999
    assert type(sum312([np.float64(0.1)] * 10)) is np.float64
    assert sum312(range(10)) == 45 and type(sum312(range(10))) is int
    assert sum312([1, 2.5, True]) == 4.5
    assert sum312([], 0.25) == 0.25
    assert math.isinf(sum312([1e308, 1e308, -1.0]))


@pytest.mark.skipif(sys.version_info < (3, 12), reason="the builtin is the plain sum here")
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-(2**70), 2**70))))
@settings(max_examples=200, deadline=None)
def test_the_swap_is_the_builtin_on_python_312(values):
    assert float.hex(float(sum312(values))) == float.hex(float(sum(values)))


def test_model_terms_keep_their_recorded_bits_on_python_312_sum(python312_sum):
    goldens.test_model_terms_keep_their_recorded_bits()


@pytest.mark.parametrize(*goldens.test_replay_is_pinned.pytestmark[0].args)
def test_replay_is_pinned_on_python_312_sum(
    python312_sum, jobs, seed, policy, admission, counters, digest
):
    goldens.test_replay_is_pinned(jobs, seed, policy, admission, counters, digest)


def test_plain_replay_equals_the_frozen_parent_on_python_312_sum(python312_sum):
    equivalence.test_plain_replay_equals_the_frozen_parent()


def test_backlog_equals_the_generator_sum_on_python_312_sum(python312_sum):
    bookkeeping.test_backlog_equals_the_generator_sum()


def test_trace_mix_weights_fold_left_to_right_on_python_312_sum(python312_sum, monkeypatch):
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right, and 0.6 with
    # 3.12's compensation: the normalised weights differ in their last bits.
    handed = []
    default_rng = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def choice(self, a, *args, p=None, **kwargs):
            handed.append(p)
            return self._rng.choice(a, *args, p=p, **kwargs)

    monkeypatch.setattr(trace_module.np.random, "default_rng", Recording)
    mix = {"a": 0.1, "b": 0.2, "c": 0.3}
    trace_module.synthetic_trace(1, seed=0, scenario_mix=mix, tenant_mix=mix)
    total = 0.1 + 0.2 + 0.3
    expected = [0.1 / total, 0.2 / total, 0.3 / total]
    assert [p for p in handed if p is not None] == [expected, expected]
