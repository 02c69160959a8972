import math

import numpy as np
import pytest

from helpers import ConstantBase
from mixtrack.base import (
    KTEstimator,
    RunningMean,
    make_base,
    register_base,
    restart_loss,
    static_regret,
)
from mixtrack.losses import BernoulliLogLoss, SquareLoss


def stepped_row(base, xs):
    """Predictions of one ``init_rows(1)`` row stepped through ``xs``."""
    rows = base.init_rows(1)
    out = np.empty(len(xs))
    for t, x in enumerate(xs):
        out[t] = base.predict_rows(rows)[0]
        base.update_rows(rows, float(x))
    return out


class TestKTEstimator:
    def setup_method(self):
        self.kt = KTEstimator()
        self.loss = BernoulliLogLoss()

    def test_first_prediction_is_half(self):
        assert self.kt.predict_rows(self.kt.init_rows(1))[0] == 0.5

    def test_add_half_counts(self):
        rows = self.kt.init_rows(1)
        for x in (1.0, 1.0, 1.0, 0.0):
            self.kt.update_rows(rows, x)
        assert self.kt.predict_rows(rows)[0] == pytest.approx(0.7, abs=1e-15)  # (3 + 0.5) / (4 + 1)

    def test_all_ones_regret_two_rounds(self):
        # loss = log 2 + log(4/3); best constant sits at the margin edge
        reg = static_regret(self.kt, self.loss, np.ones(2))
        assert reg == pytest.approx(math.log(8.0 / 3.0), abs=1e-5)

    @pytest.mark.parametrize("T", [100, 1000])
    def test_log_regret_bound(self, T):
        bound = 0.5 * math.log(T) + 1.0
        seqs = [np.ones(T), np.zeros(T), (np.arange(T) % 2).astype(float)]
        rng = np.random.default_rng(3)
        seqs += [(rng.random(T) < p).astype(float) for p in (0.1, 0.5, 0.9)]
        for xs in seqs:
            assert static_regret(self.kt, self.loss, xs) <= bound

    def test_clips_into_the_loss_domain(self):
        # a constant run past 1/(2*margin) drives the estimate to the margin
        xs = np.zeros(600_000)
        preds = self.kt.predictions(xs)
        assert preds[-1] == self.loss.pred_low
        assert np.isfinite(self.loss.evaluate_pairs(preds, xs)).all()

    def test_vectorized_predictions_match_replay_bitwise(self):
        xs = (np.random.default_rng(11).random(1000) < 0.3).astype(float)
        assert self.kt.predictions(xs).tobytes() == stepped_row(self.kt, xs).tobytes()


class TestRunningMean:
    def setup_method(self):
        self.rm = RunningMean()
        self.loss = SquareLoss()

    def test_initial_prediction_is_zero(self):
        assert self.rm.predict_rows(self.rm.init_rows(1))[0] == 0.0

    def test_tracks_mean(self):
        rows = self.rm.init_rows(1)
        for x in (0.5, -0.5, 1.0):
            self.rm.update_rows(rows, x)
        assert self.rm.predict_rows(rows)[0] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_vectorized_predictions_match_replay_bitwise(self):
        xs = np.random.default_rng(12).uniform(-1, 1, 1000)
        assert self.rm.predictions(xs).tobytes() == stepped_row(self.rm, xs).tobytes()

    def test_static_regret_modest_on_iid(self):
        xs = np.random.default_rng(0).uniform(-1, 1, 10_000)
        reg = static_regret(self.rm, self.loss, xs)
        assert 0.0 <= reg <= 2.0 * math.log(10_000)


class TestStaticRegret:
    def test_matches_naive_recomputation(self):
        loss = BernoulliLogLoss()
        kt = KTEstimator()
        xs = (np.random.default_rng(8).random(500) < 0.4).astype(float)
        fast = static_regret(kt, loss, xs)
        preds = stepped_row(kt, xs)
        star = loss.best_fixed(xs)
        naive = math.fsum(
            loss.evaluate(float(p), float(x)) - loss.evaluate(star, float(x))
            for p, x in zip(preds, xs)
        )
        assert abs(fast - naive) <= 1e-9

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            static_regret(KTEstimator(), BernoulliLogLoss(), [])


class TestRestartLoss:
    def test_equals_sum_of_segment_regrets(self):
        loss = SquareLoss()
        rm = RunningMean()
        rng = np.random.default_rng(21)
        xs = np.concatenate([rng.uniform(-1, 0, 40), rng.uniform(0, 1, 25), rng.uniform(-0.5, 0.5, 35)])
        lengths = [40, 25, 35]
        total = restart_loss(rm, loss, xs, lengths)
        # subtracting each segment's oracle loss must leave the segment regrets
        acc, pos = 0.0, 0
        for n in lengths:
            seg = xs[pos : pos + n]
            star = loss.best_fixed(seg)
            oracle = float(np.sum(loss.evaluate_pairs(np.full(n, star), seg)))
            acc += static_regret(rm, loss, seg) + oracle
            pos += n
        assert abs(total - acc) <= 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            restart_loss(RunningMean(), SquareLoss(), np.zeros(10), [4, 4])


class TestRegistry:
    def test_builtin_lookup(self):
        assert make_base("kt").name == "kt"
        assert make_base("running-mean").name == "running-mean"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_base("perceptron")

    def test_register_and_duplicate(self):
        register_base("always-half", ConstantBase)
        assert make_base("always-half").loss_family == "bernoulli"
        with pytest.raises(ValueError):
            register_base("always-half", ConstantBase)
