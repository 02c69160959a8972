import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ConstantBase, default_base_name, dense_run
from mixtrack.base import RunningMean, make_base
from mixtrack.losses import SquareLoss, make_loss
from mixtrack.mixture import Mixture, select_jt, transition_weight
from mixtrack.schemes import (
    ExpertSpec,
    LinScheme,
    LogScheme,
    PeriodSequence,
    SubScheme,
    make_scheme,
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
    @pytest.mark.parametrize("scheme_tag", ALL_SCHEMES)
    @pytest.mark.parametrize("loss_name", ALL_LOSSES)
    def test_matches_dict_reference(self, scheme_tag, loss_name):
        T = 17
        xs = stream_for(loss_name, T, seed=5)
        mix = build(scheme_tag, loss_name, horizon=T + 1)
        trace = mix.run(xs)
        ref_preds, ref_losses = dense_run(
            make_scheme(scheme_tag, horizon=T + 1),
            make_loss(loss_name),
            make_base(default_base_name(loss_name)),
            xs,
        )
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


class _BirthsOnly:
    """Calendar view that exposes births_at and nothing else."""

    def __init__(self, scheme):
        self.tag = scheme.tag
        self.births_at = scheme.births_at


class TestRestarterFromRows:
    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    @pytest.mark.parametrize("calendar", ["lin", "log", "sub", "dead"])
    def test_jt_matches_select_jt_every_round(self, calendar, mode):
        T = 2**10

        def scheme():
            return dead_scheme() if calendar == "dead" else make_scheme(calendar, horizon=T + 1)

        ref = scheme()
        mix = Mixture(_BirthsOnly(scheme()), make_loss("square"), make_base("running-mean"), mode=mode)
        for t, x in enumerate(stream_for("square", T, seed=4), start=1):
            assert mix.jt == select_jt(ref, t)
            mix.step(x)
        assert mix.jt == select_jt(ref, T + 1)


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


class TestFailedStepChangesNothing:
    def snapshot(self, mix):
        n = mix.created
        return (mix.t, n, mix.work_total, mix.jt, mix._logw[:n].tobytes(), mix._rows[:n].tobytes(),
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
        assert mix.work_total == ref.total_work


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
