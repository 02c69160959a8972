import math
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ConstantBase, active_dispatch, default_base_name, dense_run, live_walk
from mixtrack.base import KTEstimator, RunningMean, make_base
from mixtrack.losses import BERNOULLI_MARGIN, ExpConcaveLoss, SquareLoss, make_loss
from mixtrack.mixture import Mixture, select_jt, transition_weight
from mixtrack.schemes import (
    ExpertSpec,
    LinScheme,
    LogScheme,
    PeriodSequence,
    SubScheme,
    _births_at,
    _resetting_at,
    make_scheme,
    specs,
)

SUBSTITUTE_HALF_HALF = 0.386331853098677135686757273012

ALL_SCHEMES = ["lin", "log", "sub"]
ALL_LOSSES = ["square", "bernoulli"]


def build(scheme_tag, loss_name, mode="eager", horizon=64):
    scheme = make_scheme(scheme_tag, horizon=horizon)
    loss = make_loss(loss_name)
    base = make_base(default_base_name(loss_name))
    return Mixture(scheme, loss, base, mode=mode)


def stream_for(loss_name, T, seed=0):
    rng = np.random.default_rng(seed)
    if loss_name == "bernoulli":
        return (rng.random(T) < 0.35).astype(float)
    return rng.uniform(-1, 1, T)


class TestTransitionWeight:
    def test_stay_share(self):
        assert transition_weight(4, 4, True, False) == pytest.approx(0.75)

    def test_inflow_share(self):
        assert transition_weight(5, 1, False, True) == pytest.approx(0.2)

    def test_restarting_non_designated_gets_nothing(self):
        assert transition_weight(1, 1, True, False) == 0.0

    def test_designated_restarter_takes_all_from_restarter(self):
        assert transition_weight(1, 1, True, True) == 1.0

    def test_unrelated_pair_gets_nothing(self):
        assert transition_weight(7, 3, False, False) == 0.0

    def test_runtime_validation(self):
        with pytest.raises(ValueError):
            transition_weight(0, 1, True, True)
        with pytest.raises(ValueError):
            transition_weight(3, 0, False, False)

    @pytest.mark.parametrize("u", [1, 2, 3, 7, 100, 12345])
    def test_outgoing_mass_conserved_exactly(self, u):
        # rationals make "sums to one" an exact statement, not a float one
        stay = Fraction(u - 1, u)
        jump = Fraction(1, u)
        assert stay + jump == 1

    def test_float_shares_within_one_ulp(self):
        for u in range(1, 2000):
            s = transition_weight(u, u, True, False) if u > 1 else 0.0
            j = transition_weight(u, 1, False, True)
            assert abs((s + j) - 1.0) <= 2.0**-52


class _StubScheme:
    tag = "stub"

    def __init__(self, resetters):
        self._resetters = resetters

    def resetting_at(self, t):
        return list(self._resetters)


class TestSelectJt:
    def test_largest_period_wins(self):
        sch = _StubScheme([ExpertSpec(2.0, 2), ExpertSpec(8.0, 8), ExpertSpec(4.0, 4)])
        assert select_jt(sch, 16) == ExpertSpec(8.0, 8)

    def test_tie_broken_by_earliest_start(self):
        sch = _StubScheme([ExpertSpec(4.0, 6), ExpertSpec(4.0, 2)])
        assert select_jt(sch, 6) == ExpertSpec(4.0, 2)

    def test_empty_calendar_rejected(self):
        with pytest.raises(RuntimeError):
            select_jt(_StubScheme([]), 5)


class TestAgainstDenseReference:
    @pytest.mark.parametrize("scheme_tag", ALL_SCHEMES + ["dead", "tied", "twin"])
    @pytest.mark.parametrize("loss_name", ALL_LOSSES)
    def test_matches_dict_reference(self, scheme_tag, loss_name):
        # both modes on every calendar, and on the dead-copy and tied-restarter fixtures
        T = 17

        xs = stream_for(loss_name, T, seed=5)
        loss, base = make_loss(loss_name), make_base(default_base_name(loss_name))
        ref_preds, ref_losses = dense_run(make_calendar(scheme_tag, T), loss, base, xs)
        for mode in ("eager", "lazy"):
            trace = Mixture(make_calendar(scheme_tag, T), loss, base, mode=mode).run(xs)
            np.testing.assert_allclose(trace.predictions, ref_preds, rtol=0, atol=1e-12)
            np.testing.assert_allclose(trace.step_losses, ref_losses, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scheme_tag", ALL_SCHEMES)
    def test_prediction_order_invariance(self, scheme_tag):
        # reversed live-set iteration is a genuine permutation of the pool
        T = 17
        xs = stream_for("square", T, seed=6)
        fwd, _ = dense_run(
            make_scheme(scheme_tag, horizon=T + 1),
            make_loss("square"),
            make_base("running-mean"),
            xs,
        )
        rev, _ = dense_run(
            make_scheme(scheme_tag, horizon=T + 1),
            make_loss("square"),
            make_base("running-mean"),
            xs,
            order="reversed",
        )
        np.testing.assert_allclose(fwd, rev, rtol=0, atol=1e-12)


@st.composite
def _sub_run(draw):
    """A random `sub` ladder (a, b, c), loss, mode and stream of T <= 64 rounds."""
    # below a = 0.5, b = 0.25 the raw periods grow so slowly that building
    # the ladder alone takes seconds
    a = draw(st.floats(0.5, 3.0))
    b = draw(st.floats(0.25, 1.5))
    c = draw(st.floats(1.0, 2.5))
    loss_name = draw(st.sampled_from(ALL_LOSSES))
    mode = draw(st.sampled_from(["eager", "lazy"]))
    T = draw(st.integers(1, 64))
    if loss_name == "bernoulli":
        xs = [float(v) for v in draw(st.lists(st.booleans(), min_size=T, max_size=T))]
    else:
        xs = draw(st.lists(st.floats(-1.0, 1.0), min_size=T, max_size=T))
    return (a, b, c), loss_name, mode, np.array(xs)


class TestRandomLaddersAgainstDenseReference:
    # Fixed inputs (derandomize, no example database).  Time bound: 100
    # examples, and an example slower than the 1 s deadline fails the test;
    # the whole test takes about 5 s on a 2-core x86 box.
    @settings(max_examples=100, deadline=1000, derandomize=True, database=None)
    @given(_sub_run())
    def test_matches_dict_reference(self, run):
        (a, b, c), loss_name, mode, xs = run
        T = xs.size

        def fresh():
            return (make_scheme("sub", sub_a=a, sub_b=b, sub_c=c, horizon=T + 1), make_loss(loss_name),
                    make_base(default_base_name(loss_name)))

        trace = Mixture(*fresh(), mode=mode).run(xs)
        ref_preds, ref_losses = dense_run(*fresh(), xs)
        np.testing.assert_allclose(trace.predictions, ref_preds, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.step_losses, ref_losses, rtol=0, atol=1e-12)
        # the live sets: run's counts and a bare step's copies, round by round, against the flag walk
        walk = live_walk(fresh()[0], T + 1)
        assert trace.live.tolist() == [len(live) for live in walk[:T]]
        mix = Mixture(*fresh(), mode=mode)
        for x, live in zip(xs, walk):
            assert live_specs(mix) == live
            mix.step(x)
        assert live_specs(mix) == walk[T]


class TestLazyEagerEquivalence:
    @pytest.mark.parametrize("scheme_tag", ALL_SCHEMES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_identical_outputs(self, scheme_tag, seed):
        T = 256
        xs = stream_for("bernoulli", T, seed=seed)
        tr_e = build(scheme_tag, "bernoulli", mode="eager", horizon=T + 1).run(xs)
        tr_l = build(scheme_tag, "bernoulli", mode="lazy", horizon=T + 1).run(xs)
        assert np.array_equal(tr_e.predictions, tr_l.predictions)
        assert np.array_equal(tr_e.step_losses, tr_l.step_losses)
        assert np.array_equal(tr_e.jt_periods, tr_l.jt_periods)
        assert np.array_equal(tr_e.live, tr_l.live)
        assert np.array_equal(tr_e.created, tr_l.created)

    @pytest.mark.parametrize("scheme_tag", ["log", "sub"])
    def test_lazy_carries_no_more_rows(self, scheme_tag):
        T = 256
        xs = stream_for("square", T, seed=3)
        tr_e = build(scheme_tag, "square", mode="eager", horizon=T + 1).run(xs)
        tr_l = build(scheme_tag, "square", mode="lazy", horizon=T + 1).run(xs)
        assert np.all(tr_l.work <= tr_e.work)
        assert tr_l.total_work < tr_e.total_work


class TestWeightInvariants:
    @pytest.mark.parametrize("scheme_tag", ALL_SCHEMES)
    def test_posterior_sums_to_one(self, scheme_tag):
        mix = build(scheme_tag, "bernoulli", horizon=130)
        xs = stream_for("bernoulli", 128, seed=9)
        for x in xs:
            mix.step(float(x))
            assert abs(sum(mix.posterior().values()) - 1.0) <= 1e-12

    def test_non_designated_resetters_are_massless(self):
        mix = build("log", "bernoulli", horizon=64)
        for x in (1.0, 0.0, 1.0):
            mix.step(x)
        # round 4: the period-1, 2, and 4 copies all restart; J is the period-4 one
        assert mix.t == 4
        assert mix.jt == ExpertSpec(4, 4)
        for spec, _eid, logw, u in mix.live_table():
            if u == 1 and spec != mix.jt:
                assert logw == -math.inf
            if spec == mix.jt:
                assert logw > -math.inf

    def test_initial_weights_uniform(self):
        mix = build("sub", "square", horizon=64)
        post = mix.posterior()
        assert set(post) == {ExpertSpec(1, 1), ExpertSpec(3, 1)}
        assert post[ExpertSpec(1, 1)] == pytest.approx(0.5, abs=1e-15)
        assert post[ExpertSpec(3, 1)] == pytest.approx(0.5, abs=1e-15)


class TestTwoRoundWalkthrough:
    def test_lin_square_by_hand(self):
        mix = build("lin", "square")
        rec1 = mix.step(1.0)
        # single newborn predicts 0, so the first loss is (0-1)^2
        assert rec1.prediction == 0.0
        assert rec1.step_loss == 1.0
        # the newborn at round 2 takes a 1/2 share from the veteran
        post = mix.posterior()
        assert post[ExpertSpec(math.inf, 1)] == pytest.approx(0.5, abs=1e-15)
        assert post[ExpertSpec(math.inf, 2)] == pytest.approx(0.5, abs=1e-15)
        # veteran now predicts the running mean 1.0, newborn predicts 0
        rec2 = mix.step(1.0)
        assert rec2.prediction == pytest.approx(SUBSTITUTE_HALF_HALF, abs=1e-12)


def dead_scheme():
    # period-2 copy starting at round 2 resets only on even rounds, where a
    # period-4 copy always outranks it: it is never designated, hence never
    # carries mass
    return SubScheme(PeriodSequence([1, 2, 4], [0, 1, 2], [0, 1, 0]))


def make_calendar(name, T):
    """A shipped calendar for T rounds, or the dead-copy, tied-restarter or twin-birth fixture."""
    if name == "dead":
        return dead_scheme()
    if name == "tied":
        # (4, 2) and (4, 6) restart together from round 6 on; the earlier start is J_t
        return _Copies((1, 1), (4, 2), (4, 6))
    if name == "twin":
        # rung 2 = 2 * 1 + 0 starts its copies at rounds 1 and 2: (1, 1) and (2, 1) are both born at round 1
        return SubScheme(PeriodSequence([1, 2], [0, 2], [0, 0]))
    return make_scheme(name, horizon=T + 1)


def live_specs(mix):
    """The copies the engine holds live at its current round."""
    return set(mix._specs_of(np.flatnonzero(mix.live_flags())))


class _ScheduleOnly:
    """Calendar view that exposes schedule and nothing else."""

    def __init__(self, scheme):
        self.tag = scheme.tag
        self.schedule = scheme.schedule


class _Copies:
    """Calendar of fixed (period, start) copies, listed in creation order."""

    tag = "copies"
    births_at = _births_at  # for dense_run
    resetting_at = _resetting_at  # for select_jt and dense_run

    def __init__(self, *copies):
        self._period, self._start = np.array(copies, dtype=np.int64).reshape(-1, 2).T

    def schedule(self, T):
        born = self._start <= T
        return self._period[born], self._start[born]


class TestRestarterFromRows:
    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    @pytest.mark.parametrize("calendar", ["lin", "log", "sub", "dead", "tied"])
    def test_jt_matches_select_jt_every_round(self, calendar, mode):
        T = 2**10
        ref = make_calendar(calendar, T)
        mix = Mixture(_ScheduleOnly(make_calendar(calendar, T)), make_loss("square"), make_base("running-mean"),
                      mode=mode)
        for t, x in enumerate(stream_for("square", T, seed=4), start=1):
            assert mix.jt == select_jt(ref, t)
            mix.step(x)
        assert mix.jt == select_jt(ref, T + 1)


class TestCalendarDefects:
    def test_no_copy_born_at_round_1(self):
        with pytest.raises(RuntimeError, match="no copy restarts at round 1$"):
            Mixture(_ScheduleOnly(_Copies((1, 2))), make_loss("square"), make_base("running-mean"))

    def test_round_without_restarter(self):
        # the one copy restarts on odd rounds only, so round 2 has no J_t
        mix = Mixture(_ScheduleOnly(_Copies((2, 1))), make_loss("square"), make_base("running-mean"))
        with pytest.raises(RuntimeError, match="no copy restarts at round 2$"):
            mix.step(0.0)


class TestDeadCopies:
    def test_never_designated_copy_stays_massless(self):
        xs = stream_for("square", 32, seed=7)
        loss, base = make_loss("square"), make_base("running-mean")
        mix = Mixture(dead_scheme(), loss, base, mode="eager")
        trace = mix.run(xs)
        assert ExpertSpec(2.0, 2) not in set(trace.map_specs())
        dead = [lw for spec, _e, lw, _u in mix.live_table() if spec == ExpertSpec(2, 2)]
        assert dead == [-math.inf]

    def test_lazy_never_materializes_dead_copy(self):
        xs = stream_for("square", 32, seed=7)
        loss, base = make_loss("square"), make_base("running-mean")
        eager = Mixture(dead_scheme(), loss, base, mode="eager")
        lazy = Mixture(dead_scheme(), loss, base, mode="lazy")
        tr_e, tr_l = eager.run(xs), lazy.run(xs)
        assert np.array_equal(tr_e.predictions, tr_l.predictions)
        lazy_specs = {spec for spec, _e, _w, _u in lazy.live_table()}
        assert ExpertSpec(2, 2) not in lazy_specs
        eager_specs = {spec for spec, _e, _w, _u in eager.live_table()}
        assert ExpertSpec(2, 2) in eager_specs


class TestOneRoundPath:
    @pytest.mark.parametrize("loss_name", ALL_LOSSES)
    @pytest.mark.parametrize("calendar", ["lin", "log", "sub", "dead", "tied"])
    def test_modes_keep_bitwise_equal_state(self, calendar, loss_name):
        # the modes differ only in the work they count: weights, alive flags
        # and every created row's statistics, dead rows included, agree
        T = 200
        loss, base = make_loss(loss_name), make_base(default_base_name(loss_name))
        eager = Mixture(make_calendar(calendar, T), loss, base, mode="eager")
        lazy = Mixture(make_calendar(calendar, T), loss, base, mode="lazy")
        for x in stream_for(loss_name, T, seed=9):
            rec_e, rec_l = eager.step(x), lazy.step(x)
            assert rec_e._replace(work=None) == rec_l._replace(work=None)
            n = eager.created
            assert lazy.created == n
            assert eager._w[:n].tobytes() == lazy._w[:n].tobytes()
            assert eager.live_flags().tobytes() == lazy.live_flags().tobytes()
            assert eager._rows[:n].tobytes() == lazy._rows[:n].tobytes()


class TestCompiledLiveRows:
    """The live rows the engine reads off its compiled calendar, against the flag walk of the definition."""

    @pytest.mark.parametrize("loss_name", ALL_LOSSES)
    @pytest.mark.parametrize("calendar", ["lin", "log", "sub", "dead", "tied", "twin"])
    def test_live_rows_follow_the_flag_walk(self, calendar, loss_name):
        T = 2**10
        walk = live_walk(make_calendar(calendar, T), T + 1)
        xs = stream_for(loss_name, T, seed=25)
        mix = Mixture(make_calendar(calendar, T), make_loss(loss_name), make_base(default_base_name(loss_name)))
        for t, x in enumerate(xs, start=1):
            assert live_specs(mix) == walk[t - 1], t
            assert mix.step(x).live == len(walk[t - 1]), t
        assert live_specs(mix) == walk[T]
        trace = Mixture(make_calendar(calendar, T), make_loss(loss_name), make_base(default_base_name(loss_name))).run(xs)
        assert trace.live.tolist() == [len(live) for live in walk[:T]]

    def test_a_wide_pool_tabulates_once_in_2_7_rounds(self):
        # 113 rows by round 2^10: 2^12 cells hold only 36 of its rounds
        T = 2**10
        wide = lambda: SubScheme(PeriodSequence.from_params(1.0, 0.3, 1.2, T + 1))
        walk = live_walk(wide(), T + 1)
        xs = stream_for("bernoulli", T, seed=26)
        mix = Mixture(wide(), make_loss("bernoulli"), make_base("kt"))
        starts, tabulate = [], mix._tabulate
        mix._tabulate = lambda t0: (starts.append(t0), tabulate(t0))
        recs = [mix.step(x) for x in xs]
        assert mix.created > 2**12 // 2**7
        assert [r.live for r in recs] == [len(live) for live in walk[:T]]
        # a set ends at 2^7 rounds or at the compiled horizon, which doubles from 1
        assert len(starts) <= T // 2**7 + 11
        ref = Mixture(wide(), make_loss("bernoulli"), make_base("kt")).run(xs)
        assert np.array_equal([r.prediction for r in recs], ref.predictions)
        assert np.array_equal([r.drift for r in recs], ref.drifts)

    def test_twin_births_both_start_live(self):
        mix = Mixture(make_calendar("twin", 4), make_loss("bernoulli"), make_base("kt"))
        assert live_specs(mix) == {ExpertSpec(1, 1), ExpertSpec(2, 1)}
        mix.step(1.0)  # round 2: (1, 1) restarts and (2, 2) is born; J_2 = (2, 2)
        assert live_specs(mix) == {ExpertSpec(2, 1), ExpertSpec(2, 2)}


class TestConstruction:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            build("lin", "square", mode="deferred")

    def test_loss_family_mismatch(self):
        with pytest.raises(ValueError):
            Mixture(LinScheme(), make_loss("square"), make_base("kt"))

    def test_scalar_only_learner_rejected(self):
        with pytest.raises(ValueError, match="init_rows"):
            Mixture(LogScheme(), make_loss("bernoulli"), ConstantBase())

    def test_loss_without_kernels_rejected(self):
        sq = SquareLoss()
        checked_only = types.SimpleNamespace(
            name="square", mixability=sq.mixability, pred_low=sq.pred_low, pred_high=sq.pred_high,
            validate_prediction=sq.validate_prediction, validate_outcome=sq.validate_outcome,
            evaluate=sq.evaluate, substitute=sq.substitute,
        )
        with pytest.raises(ValueError, match="merge, pointwise"):
            Mixture(LogScheme(), checked_only, make_base("running-mean"))

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            build("lin", "square").run([])

    def test_non_1d_run_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            build("lin", "square").run(np.zeros((2, 3)))


class _SwitchableMean(RunningMean):
    """Running mean that predicts outside [-1, 1] while ``broken`` is set."""

    broken = False

    def predict_rows(self, rows):
        p = super().predict_rows(rows)
        return p + 3.0 if self.broken else p


class _NaNMergeLoss(SquareLoss):
    """Square loss whose substitution yields NaN while ``broken`` is set."""

    broken = False

    def merge(self, th, w):
        return math.nan if self.broken else super().merge(th, w)


class _InfAtOneKT(KTEstimator):
    loss_family = "inf-at-one"


def _inf_at_one_loss():
    """Log loss on outcome 0 and an infinite loss on outcome 1, which leaves every factor 0: it declares no floor."""
    def eval_fn(th, x):
        return -np.log1p(-np.asarray(th)) if x == 0.0 else np.full(np.shape(th), math.inf)

    return ExpConcaveLoss("inf-at-one", 1.0, eval_fn, BERNOULLI_MARGIN, 1.0 - BERNOULLI_MARGIN)


class TestFailedStepChangesNothing:
    def snapshot(self, mix):
        n = mix.created
        return (mix.t, n, mix.jt, mix._w[:n].tobytes(), mix.live_flags().tobytes(), mix._rows[:n].tobytes(),
                sorted(mix.posterior().items()))

    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    @pytest.mark.parametrize("fault", ["bad outcome", "nan outcome", "learner out of domain", "nan merge"])
    def test_state_and_later_rounds_unchanged(self, fault, mode):
        T = 40
        xs = stream_for("square", T, seed=8)
        loss, base = _NaNMergeLoss(), _SwitchableMean()
        mix = Mixture(make_scheme("sub", horizon=T + 1), loss, base, mode=mode)
        recs = [mix.step(x) for x in xs[:20]]
        before = self.snapshot(mix)
        bad = {"bad outcome": 1.5, "nan outcome": math.nan}.get(fault, 0.25)
        base.broken = fault == "learner out of domain"
        loss.broken = fault == "nan merge"
        with pytest.raises(ValueError):
            mix.step(bad)
        assert self.snapshot(mix) == before
        base.broken = loss.broken = False
        recs += [mix.step(x) for x in xs[20:]]
        ref = build("sub", "square", mode=mode, horizon=T + 1).run(xs)
        assert np.array_equal([r.prediction for r in recs], ref.predictions)
        assert np.array_equal([r.step_loss for r in recs], ref.step_losses)
        assert sum(r.work for r in recs) == ref.total_work

    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    def test_a_spent_pool_raises_before_any_write(self, mode):
        # every factor of a round on 1.0 is 0, so no mass is left to route
        def fresh():
            return Mixture(LogScheme(), _inf_at_one_loss(), _InfAtOneKT(), mode=mode)

        mix = fresh()
        recs = [mix.step(0.0) for _ in range(5)]
        before = self.snapshot(mix)
        with pytest.raises(RuntimeError, match="weight pool degenerated"):
            mix.step(1.0)
        assert self.snapshot(mix) == before
        recs += [mix.step(0.0) for _ in range(10)]
        ref = fresh().run(np.zeros(15))
        assert np.array_equal([r.prediction for r in recs], ref.predictions)
        assert np.array_equal([r.step_loss for r in recs], ref.step_losses)
        assert np.array_equal([r.drift for r in recs], ref.drifts)
        # the same round inside one of run's blocks
        mix = fresh()
        with pytest.raises(RuntimeError, match="weight pool degenerated"):
            mix.run([0.0] * 5 + [1.0, 0.0])
        assert self.snapshot(mix) == before


def block_spans(mix, xs):
    """Run ``mix`` on ``xs``; return the (first, last) rounds of each block the run opened."""
    spans, opener = [], mix._open

    def spy(rest):
        opener(rest)
        if mix._block is not None:
            spans.append((mix.t, mix.t + len(mix._block.xs) - 1))

    mix._open = spy
    mix.run(xs)
    return spans


def engine_state(mix):
    n = mix.created
    return mix.t, n, mix.jt, mix._w[:n].tobytes(), mix.live_flags().tobytes(), mix._rows[:n].tobytes()


_COLUMNS = (("outcomes", "outcome", np.float64), ("predictions", "prediction", np.float64),
            ("step_losses", "step_loss", np.float64), ("live", "live", np.int64), ("drifts", "drift", np.float64),
            ("map_ids", "map_id", np.int64))
_CALENDAR_COLUMNS = (("ts", "t", np.int64), ("jt_periods", "jt_period", np.float64),
                     ("created", "created", np.int64), ("work", "work", np.int64))


class TestBlockedRun:
    """``run`` reads block tables; a loop of bare ``step`` calls builds one-round blocks: the two agree bitwise."""

    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    @pytest.mark.parametrize("loss_name", ALL_LOSSES)
    @pytest.mark.parametrize("calendar", ["lin", "log", "sub", "dead", "tied"])
    def test_run_equals_step_loop(self, calendar, loss_name, mode):
        T_max = 300
        xs = stream_for(loss_name, T_max + 1, seed=21)
        loss, base = make_loss(loss_name), make_base(default_base_name(loss_name))

        def fresh():
            return Mixture(make_calendar(calendar, T_max), loss, base, mode=mode)

        spans = block_spans(fresh(), xs[:T_max])
        assert len(spans) >= 2
        end = spans[-2][1]  # a block that ended on the cell budget or the compiled horizon, not on xs
        for T, bare in ((1, 0), (end - 1, 0), (end, 0), (end + 1, 0), (end + 1, 20)):
            ref = fresh()
            recs = [ref.step(x) for x in xs[:T]]
            mix = fresh()
            for x in xs[:bare]:
                mix.step(x)
            trace = mix.run(xs[bare:T])
            assert engine_state(mix) == engine_state(ref), (T, bare)
            for col, field, dtype in _COLUMNS + _CALENDAR_COLUMNS:
                got = getattr(trace, col)
                assert got.dtype == dtype
                assert got.tobytes() == np.array([getattr(r, field) for r in recs[bare:]], dtype=dtype).tobytes()
            assert trace.map_specs() == ref._specs_of([r.map_id for r in recs[bare:]])

    def test_step_with_another_outcome_drops_the_block(self):
        # a step fed another outcome than its block's reads no table: it runs as a bare step
        T = 120
        xs = stream_for("bernoulli", T, seed=22)
        flip = xs.copy()
        flip[50::7] = 1.0 - flip[50::7]
        ref = build("sub", "bernoulli", horizon=T + 1)
        recs = [ref.step(x) for x in flip]
        mix = build("sub", "bernoulli", horizon=T + 1)
        step = mix.step
        mix.step = lambda x: step(flip[mix.t - 1])
        trace = mix.run(xs)
        assert engine_state(mix) == engine_state(ref)
        assert trace.predictions.tobytes() == np.array([r.prediction for r in recs]).tobytes()

    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    @pytest.mark.parametrize("fault", ["bad outcome", "nan outcome", "learner out of domain", "nan merge"])
    def test_fault_inside_a_block_raises_as_the_step_loop(self, fault, mode):
        T, k = 40, 25  # the fault hits round k, which a clean run reads from a block
        loss, base = _NaNMergeAt(), _OutOfDomainMean()
        if fault in ("bad outcome", "nan outcome"):
            xs = stream_for("square", T, seed=23)
            xs[k - 1] = 1.5 if fault == "bad outcome" else math.nan
        else:  # only rows that saw round k-1's outcome predict nonzero, from round k on
            xs = np.zeros(T)
            xs[k - 2] = 0.5
        base.armed = fault == "learner out of domain"
        loss.armed = fault == "nan merge"

        def fresh(loss=loss, base=base):
            return Mixture(make_scheme("sub", horizon=T + 1), loss, base, mode=mode)

        clean = np.where(np.isfinite(xs) & (np.abs(xs) <= 1.0), xs, 0.0)
        assert any(a < k < b for a, b in block_spans(fresh(_NaNMergeAt(), _OutOfDomainMean()), clean))

        ref = fresh()
        for x in xs[: k - 1]:
            ref.step(x)
        with pytest.raises(ValueError) as want:
            ref.step(xs[k - 1])
        mix = fresh()
        with pytest.raises(ValueError) as got:
            mix.run(xs)
        assert str(got.value) == str(want.value)
        assert engine_state(mix) == engine_state(ref)
        assert mix.t == k
        assert sorted(mix.posterior().items()) == sorted(ref.posterior().items())


class TestLinAcrossCompiles:
    """``lin`` slices its shares from tables compiled with the horizon, past 2^11 copies and across compiles."""

    @pytest.mark.parametrize("loss_name", ALL_LOSSES)
    @pytest.mark.parametrize("T", [2**11 + 1, 2**12 + 3])
    def test_run_equals_step_loop_and_a_split_run(self, T, loss_name):
        xs = stream_for(loss_name, T, seed=27)
        ref = build("lin", loss_name)
        recs = [ref.step(x) for x in xs]
        trace = build("lin", loss_name).run(xs)
        for col, field, dtype in _COLUMNS:
            assert getattr(trace, col).tobytes() == np.array([getattr(r, field) for r in recs], dtype=dtype).tobytes()
        # the compile at round 2^k, to 2^(k+1), falls inside the continued part
        a = 3 * T // 4
        mix = build("lin", loss_name)
        first = mix.run(xs[:a])
        rec = mix.step(xs[a])
        horizon = mix._horizon
        rest = mix.run(xs[a + 1 :])
        assert mix._horizon == 2 * horizon
        for col, field, dtype in _COLUMNS:
            got = np.concatenate([getattr(first, col), np.array([getattr(rec, field)], dtype=dtype), getattr(rest, col)])
            assert got.tobytes() == getattr(trace, col).tobytes(), col
        assert engine_state(mix) == engine_state(ref)


def test_trace_stores_36_bytes_a_round_below_2_16_copies():
    # live counts (up to 300 here) and MAP ids take at most 2 bytes each, and read as int64
    T = 300
    trace = build("lin", "bernoulli", horizon=T + 1).run(stream_for("bernoulli", T, seed=24))
    stored = (trace.outcomes, trace.predictions, trace.step_losses, trace.drifts, trace._live, trace._map_ids)
    assert trace._live.dtype == np.uint16
    assert sum(a.nbytes for a in stored) <= 36 * T
    assert trace.live.dtype == trace.map_ids.dtype == np.int64


class _OutOfDomainMean(_SwitchableMean):
    """Running mean that, while ``armed``, predicts outside [-1, 1] on rows whose outcome sum is nonzero."""

    armed = False

    def predict_rows(self, rows):
        p = super().predict_rows(rows)
        return np.where(rows[:, 0] != 0.0, p + 3.0, p) if self.armed else p


class _NaNMergeAt(_NaNMergeLoss):
    """Square loss whose substitution, while ``armed``, yields NaN on any nonzero prediction."""

    armed = False

    def merge(self, th, w):
        self.broken = self.armed and bool(th.any())
        return super().merge(th, w)


class TestTrace:
    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    def test_run_columns_equal_step_records(self, mode):
        T = 50
        xs = stream_for("bernoulli", T, seed=11)
        mix = build("sub", "bernoulli", mode=mode, horizon=T + 1)
        recs = [mix.step(x) for x in xs]
        trace = build("sub", "bernoulli", mode=mode, horizon=T + 1).run(xs)
        for col, field, dtype in (
            ("ts", "t", np.int64), ("outcomes", "outcome", np.float64), ("predictions", "prediction", np.float64),
            ("step_losses", "step_loss", np.float64), ("jt_periods", "jt_period", np.float64),
            ("live", "live", np.int64), ("created", "created", np.int64), ("work", "work", np.int64),
            ("drifts", "drift", np.float64), ("map_ids", "map_id", np.int64),
        ):
            got = getattr(trace, col)
            assert got.dtype == dtype
            assert got.tobytes() == np.array([getattr(r, field) for r in recs], dtype=dtype).tobytes()

    @pytest.mark.parametrize("name", ["lin", "log", "dead", "tied"])
    def test_calendar_columns_equal_step_records(self, name):
        # the columns a trace computes from its calendar, on every calendar and mode
        T = 50
        xs = stream_for("square", T, seed=13)
        for mode in ("eager", "lazy"):
            mix = Mixture(make_calendar(name, T), make_loss("square"), make_base("running-mean"), mode=mode)
            recs = [mix.step(x) for x in xs]
            trace = Mixture(make_calendar(name, T), make_loss("square"), make_base("running-mean"), mode=mode).run(xs)
            for col, field in (("ts", "t"), ("jt_periods", "jt_period"), ("created", "created"), ("work", "work")):
                got = getattr(trace, col)
                assert got.tobytes() == np.array([getattr(r, field) for r in recs], dtype=got.dtype).tobytes()
            assert specs(*trace.schedule) == mix._specs_of(slice(0, mix.created))

    def test_columns_are_consistent(self):
        T = 64
        xs = stream_for("bernoulli", T, seed=2)
        trace = build("log", "bernoulli", horizon=T + 1).run(xs)
        assert trace.horizon == T
        assert np.array_equal(trace.ts, np.arange(1, T + 1))
        assert np.all(np.diff(trace.created) >= 0)
        assert np.all(trace.live <= trace.created)
        assert trace.total_loss == pytest.approx(float(np.sum(trace.step_losses)))
        assert trace.realized_segments() >= 1
        assert len(trace.map_specs()) == T

    def test_eager_lin_work_is_pool_size(self):
        T = 40
        xs = stream_for("square", T, seed=1)
        trace = build("lin", "square", mode="eager").run(xs)
        assert np.array_equal(trace.work, trace.ts)
        assert trace.total_work == T * (T + 1) // 2


# Prints the active dispatch targets, then one sha256 per calendar of a
# bernoulli run's predictions, step losses and their losses by evaluate_pairs
_DISPATCH_PROBE = """
import hashlib
import numpy as np
from helpers import active_dispatch
from mixtrack import make_base, make_loss, make_scheme
from mixtrack.mixture import Mixture
T = 2**12
rate = np.where(np.arange(T) // 512 % 2, 0.8, 0.2)
xs = (np.random.default_rng(7).random(T) < rate).astype(float)
print(" ".join(active_dispatch()))
for tag in ("lin", "log", "sub"):
    loss = make_loss("bernoulli")
    tr = Mixture(make_scheme(tag, horizon=T + 1), loss, make_base("kt")).run(xs)
    # evaluate_pairs is the path the oracle and restart-oracle columns take
    data = tr.predictions.tobytes() + tr.step_losses.tobytes() + loss.evaluate_pairs(tr.predictions, xs).tobytes()
    print(tag, hashlib.sha256(data).hexdigest())
"""


class TestCpuDispatch:
    """Bernoulli runs use no numpy transcendental, so numpy's SIMD dispatch cannot move their bytes."""

    @staticmethod
    def probe(disabled):
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
        proc = subprocess.run([sys.executable, "-c", _DISPATCH_PROBE], capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        targets, *hashes = proc.stdout.splitlines()
        return targets.split(), hashes

    @pytest.mark.parametrize("which", ["avx512", "all"])
    def test_bernoulli_bytes_independent_of_dispatch(self, which):
        active = active_dispatch()
        disabled = [t for t in active if t == "X86_V4" or t.startswith("AVX512")] if which == "avx512" else active
        if not disabled:
            pytest.skip(f"no {which} dispatch target is active on this CPU")
        default_targets, default = self.probe([])
        restricted_targets, restricted = self.probe(disabled)
        assert default_targets == active
        assert not set(disabled) & set(restricted_targets)
        assert restricted == default
