"""The calendars and the engine against the benchmark's independent reference.

``perfbench/reference.py`` rewrites the calendars, the shipped learners and
the path-sum recursion from their definitions and imports nothing from
mixtrack.  It is loaded by path, as ``test_tracer_contract.py`` loads the
tracer.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import default_base_name
from mixtrack import make_base, make_loss, make_scheme
from mixtrack.mixture import Mixture
from mixtrack.schemes import NEVER, LogScheme, PeriodSequence, SubScheme

REFERENCE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = load_reference()

TAGS = ["lin", "log", "sub"]
HORIZONS = [1, 2, 64, 4096]


@pytest.mark.parametrize("T", HORIZONS)
@pytest.mark.parametrize("tag", TAGS)
def test_schedule_matches_reference_calendar(tag, T):
    period, start = make_scheme(tag).schedule(T)
    cal = ref.Calendar(tag, T)
    assert period.dtype == start.dtype == np.int64
    # the reference writes a never-restarting copy's period as 0
    assert np.array_equal(np.where(period == NEVER, 0, period), cal.period)
    assert np.array_equal(start, cal.start)


@pytest.mark.parametrize("T", HORIZONS)
@pytest.mark.parametrize("tag", TAGS)
def test_schedule_is_a_prefix_of_the_doubled_horizon(tag, T):
    scheme = make_scheme(tag)
    period, start = scheme.schedule(T)
    period2, start2 = scheme.schedule(2 * T)
    assert np.array_equal(period2[: period.size], period)
    assert np.array_equal(start2[: start.size], start)
    assert np.all(start2[start.size :] > T)


@pytest.mark.parametrize("T", HORIZONS)
def test_doubling_ladder_schedule_is_the_log_schedule(T):
    period, start = SubScheme(PeriodSequence.doubling()).schedule(T)
    log_period, log_start = LogScheme().schedule(T)
    assert np.array_equal(period, log_period)
    assert np.array_equal(start, log_start)


STREAMS = {"bernoulli": "piecewise-bernoulli", "square": "piecewise-gaussian-clipped"}


@pytest.mark.parametrize("loss_name", ["bernoulli", "square"])
@pytest.mark.parametrize("tag", TAGS)
def test_engine_total_against_path_sum(tag, loss_name):
    # the path sum is the mixture's total loss under mean substitution
    # (bernoulli) and an upper bound on it for any mixable loss (square)
    T = 2**12
    xs = ref.make_stream(STREAMS[loss_name], T, seed=11, count=8, params=[0.2, 0.8, 0.5])
    expect = ref.path_sum(tag, loss_name, xs)
    mix = Mixture(make_scheme(tag, horizon=T + 1), make_loss(loss_name), make_base(default_base_name(loss_name)))
    trace = mix.run(xs)
    if loss_name == "bernoulli":
        assert abs(trace.total_loss - expect["bound"]) <= 1e-12 * abs(expect["bound"])
    else:
        assert trace.total_loss <= expect["bound"] + 1e-9
    assert np.array_equal(trace.created, expect["created"])
    assert np.array_equal(trace.live, expect["live"])
    assert np.array_equal(trace.jt_periods, expect["jt_period"])


@pytest.mark.parametrize("mode", ["eager", "lazy"])
def test_lin_weights_underflow_and_the_pool_stays_exact(mode):
    # at rates 0.1 and 0.9 the early copies' weights fall below e^-745 and
    # underflow to an exact 0, while their copies stay alive
    T = 2**12
    xs = ref.make_stream("piecewise-bernoulli", T, seed=11, count=8, params=[0.1, 0.9])
    expect = ref.path_sum("lin", "bernoulli", xs)
    mix = Mixture(make_scheme("lin", horizon=T + 1), make_loss("bernoulli"), make_base("kt"), mode=mode)
    trace = mix.run(xs)
    assert sum(1 for _spec, _id, logw, _u in mix.live_table() if logw == -math.inf) > 0
    assert np.array_equal(trace.created, expect["created"])
    assert np.array_equal(trace.live, expect["live"])
    assert np.array_equal(trace.work, expect["live"] if mode == "lazy" else expect["created"])
    assert np.array_equal(trace.jt_periods, expect["jt_period"])
    assert abs(sum(mix.posterior().values()) - 1.0) <= 1e-12
    assert abs(trace.total_loss - expect["bound"]) <= 1e-12 * abs(expect["bound"])
