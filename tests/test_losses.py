import math

import numpy as np
import pytest

from mixtrack.losses import (
    BernoulliLogLoss,
    ExpConcaveLoss,
    SquareLoss,
    make_loss,
    mixability_slack,
    register_loss,
)

# high-precision references for the two closed-form spot values
SUBSTITUTE_HALF_HALF = 0.386331853098677135686757273012
SLACK_ENDPOINTS_AT_ONE = 0.038863018094327077656799787505


class _NudgedSquare(SquareLoss):
    """Square loss whose weight factor at outcome ``side`` is scaled by 1 + eps.

    The merge of a point mass on ``side`` then lands about eps/2 past the
    domain's endpoint, which drives ``merge``'s clamp.
    """

    def __init__(self, side: float, eps: float):
        self.side, self.eps = side, eps

    def factor(self, theta, x):
        f = super().factor(theta, x)
        return f * (1.0 + self.eps) if x == self.side else f


class TestSquareLoss:
    def setup_method(self):
        self.loss = SquareLoss()

    def test_evaluate_scalar(self):
        assert self.loss.evaluate(0.5, 1.0) == 0.25
        assert self.loss.evaluate(-1.0, 1.0) == 4.0
        assert self.loss.evaluate(0.0, 0.0) == 0.0

    def test_evaluate_vector_matches_scalar(self):
        th = np.array([-1.0, -0.25, 0.0, 0.7, 1.0])
        out = self.loss.evaluate(th, 0.3)
        for i, v in enumerate(th):
            assert out[i] == self.loss.evaluate(float(v), 0.3)

    def test_mixability_constant(self):
        assert self.loss.mixability == 0.5

    def test_domain_rejection(self):
        with pytest.raises(ValueError):
            self.loss.evaluate(1.5, 0.0)
        with pytest.raises(ValueError):
            self.loss.evaluate(0.0, -2.0)
        with pytest.raises(ValueError):
            self.loss.substitute([0.0, 2.0], [0.5, 0.5])

    def test_substitute_spot_value(self):
        got = self.loss.substitute([0.0, 1.0], [0.5, 0.5])
        assert abs(got - SUBSTITUTE_HALF_HALF) < 1e-12

    def test_substitute_single_point_is_identity(self):
        for th in (-1.0, -0.3, 0.0, 0.9, 1.0):
            np.testing.assert_allclose(self.loss.substitute([th], [1.0]), th, atol=1e-14)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_merge_clamps_within_slop_and_refuses_beyond(self, side):
        mass = (np.array([side]), np.array([1.0]))
        # an overshoot of about 5e-11, inside DOMAIN_SLOP: the endpoint exactly
        got = _NudgedSquare(side, 1e-10).merge(*mass)
        assert got == side and type(got) is float
        with pytest.raises(ValueError, match="substitution overshoot"):
            _NudgedSquare(side, 1e-6).merge(*mass)  # about 5e-7 past it

    def test_substitute_endpoint_mass_stays_in_domain(self):
        assert self.loss.substitute([1.0, 1.0], [0.5, 0.5]) <= 1.0
        assert self.loss.substitute([-1.0, -1.0], [0.25, 0.75]) >= -1.0

    def test_slack_spot_value(self):
        got = mixability_slack(self.loss, [-1.0, 1.0], [0.5, 0.5], 1.0)
        assert abs(got - SLACK_ENDPOINTS_AT_ONE) < 1e-12

    def test_slack_never_negative(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            k = int(rng.integers(1, 7))
            th = rng.uniform(-1, 1, k)
            w = rng.random(k) + 1e-3
            w /= w.sum()
            x = float(rng.uniform(-1, 1))
            assert mixability_slack(self.loss, th, w, x) >= -1e-9

    def test_substitute_permutation_invariant(self):
        rng = np.random.default_rng(7)
        th = rng.uniform(-1, 1, 6)
        w = rng.random(6)
        w /= w.sum()
        perm = rng.permutation(6)
        a = self.loss.substitute(th, w)
        b = self.loss.substitute(th[perm], w[perm])
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)

    def test_substitute_duplicate_split_invariant(self):
        a = self.loss.substitute([0.4], [1.0])
        b = self.loss.substitute([0.4, 0.4], [0.25, 0.75])
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)

    def test_substitute_zero_weight_entry_changes_nothing(self):
        assert self.loss.substitute([0.3, 0.9], [1.0, 0.0]) == self.loss.substitute([0.3], [1.0])

    def test_substitute_endpoint_weights(self):
        loss = self.loss
        assert loss.substitute([1.0], [1.0]) == 1.0
        assert loss.substitute([-1.0], [1.0]) == -1.0
        assert loss.substitute([-1.0, 1.0], [0.5, 0.5]) == 0.0
        e = math.exp(-2.0)
        want = 0.5 * math.log((0.2 * e + 0.8) / (0.2 + 0.8 * e))
        got = loss.substitute([-1.0, 1.0, 1.0], [0.2, 0.3, 0.5])
        assert got == pytest.approx(want, abs=1e-15)

    def test_substitute_subnormal_weight(self):
        # both partition sums lie in [e^-2, 1], so a subnormal weight only adds nothing
        assert self.loss.substitute([0.0, 0.5], [1.0, 2.4e-309]) == 0.0


class TestBernoulliLogLoss:
    def setup_method(self):
        self.loss = BernoulliLogLoss()

    def test_evaluate(self):
        np.testing.assert_allclose(self.loss.evaluate(0.8, 1.0), -math.log(0.8), rtol=1e-15)
        np.testing.assert_allclose(self.loss.evaluate(0.8, 0.0), -math.log(0.2), rtol=1e-12)

    def test_mixability_constant(self):
        assert self.loss.mixability == 1.0

    def test_prediction_domain_is_margined(self):
        # hard rejection, no silent clamping
        for bad in (0.0, 1.0, -0.1, 1.1, 1e-9):
            with pytest.raises(ValueError):
                self.loss.evaluate(bad, 1.0)
        self.loss.evaluate(self.loss.pred_low, 0.0)
        self.loss.evaluate(self.loss.pred_high, 1.0)

    def test_outcomes_must_be_bits(self):
        for bad in (0.5, -1.0, 2.0, 0.9999):
            with pytest.raises(ValueError):
                self.loss.evaluate(0.5, bad)

    def test_substitute_is_weighted_mean(self):
        assert self.loss.substitute([0.2, 0.6], [0.5, 0.5]) == pytest.approx(0.4, abs=1e-15)

    def test_evaluate_pairs_rejects_a_non_binary_outcome(self):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            self.loss.evaluate_pairs([0.5, 0.5], [1.0, 0.5])

    def test_mixable_with_equality(self):
        rng = np.random.default_rng(55)
        for _ in range(300):
            k = int(rng.integers(1, 7))
            th = rng.uniform(self.loss.pred_low, self.loss.pred_high, k)
            w = rng.random(k) + 1e-3
            w /= w.sum()
            x = float(rng.integers(0, 2))
            assert abs(mixability_slack(self.loss, th, w, x)) <= 1e-12


class TestExpConcaveLoss:
    def _scaled_square(self):
        # square loss on [-1, 1] is exp-concave at 1/8
        return ExpConcaveLoss(
            name="scaled-square",
            mixability=0.125,
            eval_fn=lambda th, x: (th - x) ** 2,
            pred_low=-1.0,
            pred_high=1.0,
            best_fixed_fn=lambda xs: float(np.clip(np.mean(xs), -1, 1)),
        )

    def test_mean_substitution(self):
        loss = self._scaled_square()
        assert loss.substitute([-0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_slack_nonnegative_under_declared_constant(self):
        loss = self._scaled_square()
        rng = np.random.default_rng(9)
        for _ in range(300):
            k = int(rng.integers(1, 6))
            th = rng.uniform(-1, 1, k)
            w = rng.random(k) + 1e-3
            w /= w.sum()
            x = float(rng.uniform(-1, 1))
            assert mixability_slack(loss, th, w, x) >= -1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            ExpConcaveLoss("bad", -1.0, lambda t, x: t, 0.0, 1.0)
        with pytest.raises(ValueError):
            ExpConcaveLoss("bad", 1.0, lambda t, x: t, 1.0, 0.0)
        loss = self._scaled_square()
        with pytest.raises(ValueError):
            loss.evaluate(1.5, 0.0)

    def test_outcome_hook(self):
        loss = ExpConcaveLoss(
            "gated", 1.0, lambda th, x: (th - x) ** 2, 0.0, 1.0,
            outcome_check=lambda x: 0.0 <= x <= 1.0,
        )
        loss.evaluate(0.5, 0.3)
        with pytest.raises(ValueError):
            loss.evaluate(0.5, 2.0)

    def test_evaluate_pairs_is_elementwise_evaluate(self):
        loss = ExpConcaveLoss(
            "gated", 1.0, lambda th, x: (th - x) ** 2, 0.0, 1.0,
            outcome_check=lambda x: 0.0 <= x <= 1.0,
        )
        rng = np.random.default_rng(10)
        th, xs = rng.random(7), rng.random(7)
        got = loss.evaluate_pairs(th, xs)
        assert got.tolist() == [loss.evaluate(t, x) for t, x in zip(th.tolist(), xs.tolist())]
        with pytest.raises(ValueError, match="rejected by the loss family"):
            loss.evaluate_pairs([0.5, 0.5], [0.3, 2.0])


class TestWeightValidation:
    def test_rejects_bad_mixes(self):
        loss = SquareLoss()
        with pytest.raises(ValueError):
            loss.substitute([], [])
        with pytest.raises(ValueError):
            loss.substitute([0.1, 0.2], [1.0])
        with pytest.raises(ValueError):
            loss.substitute([0.1, 0.2], [0.7, 0.2])
        with pytest.raises(ValueError):
            loss.substitute([0.1, 0.2], [1.2, -0.2])


class TestNaNRejected:
    """NaN compares false both ways, so every range check must fail on it."""

    NAN = float("nan")

    def test_square_prediction(self):
        with pytest.raises(ValueError):
            SquareLoss().substitute([self.NAN, 0.3], [0.5, 0.5])
        with pytest.raises(ValueError):
            SquareLoss().evaluate(self.NAN, 0.0)

    def test_bernoulli_prediction(self):
        with pytest.raises(ValueError):
            BernoulliLogLoss().substitute([self.NAN, 0.3], [0.5, 0.5])
        with pytest.raises(ValueError):
            BernoulliLogLoss().evaluate(self.NAN, 1.0)

    def test_exp_concave_prediction(self):
        loss = ExpConcaveLoss("plain", 1.0, lambda th, x: (th - x) ** 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            loss.substitute([self.NAN, 0.3], [0.5, 0.5])

    def test_square_outcome_pairs(self):
        with pytest.raises(ValueError):
            SquareLoss().evaluate_pairs([0.1, 0.2], [0.5, self.NAN])

    def test_mixture_weights(self):
        with pytest.raises(ValueError):
            SquareLoss().substitute([0.1, 0.3], [self.NAN, 0.5])


class TestRegistry:
    def test_builtin_lookup(self):
        assert make_loss("square").name == "square"
        assert make_loss("bernoulli").name == "bernoulli"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_loss("hinge")

    def test_register_and_duplicate(self):
        register_loss("test-only-loss", SquareLoss)
        assert isinstance(make_loss("test-only-loss"), SquareLoss)
        with pytest.raises(ValueError):
            register_loss("test-only-loss", SquareLoss)
