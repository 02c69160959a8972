import math

import numpy as np
import pytest

from mixtrack.losses import (
    BernoulliLogLoss,
    ExpConcaveLoss,
    SquareLoss,
    _logsumexp,
    make_loss,
    mixability_slack,
    register_loss,
)

# high-precision references for the two closed-form spot values
SUBSTITUTE_HALF_HALF = 0.386331853098677135686757273012
SLACK_ENDPOINTS_AT_ONE = 0.038863018094327077656799787505


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


class TestLogSumExp:
    def test_zero_weight_entry_changes_nothing(self):
        loss = SquareLoss()
        assert loss.substitute([0.3, 0.9], [1.0, 0.0]) == loss.substitute([0.3], [1.0])
        a, b = np.array([-0.2, 5.0, -1.0]), np.array([0.5, 0.0, 0.5])
        assert _logsumexp(a, b) == _logsumexp(a[[0, 2]], b[[0, 2]])

    def test_ties_at_the_maximum(self):
        got = _logsumexp(np.array([0.0, -1.0, 0.0]), np.array([0.25, 0.5, 0.25]))
        assert got == pytest.approx(math.log(0.5 + 0.5 * math.exp(-1.0)), rel=1e-15)
        # tied maxima are split off together, so splitting a copy is exact
        loss = SquareLoss()
        assert loss.substitute([1.0, -1.0, 1.0], [0.25, 0.5, 0.25]) == loss.substitute(
            [1.0, -1.0], [0.5, 0.5]
        )

    def test_endpoint_weight(self):
        loss = SquareLoss()
        assert loss.substitute([1.0], [1.0]) == 1.0
        assert loss.substitute([-1.0], [1.0]) == -1.0
        assert loss.substitute([-1.0, 1.0], [0.5, 0.5]) == 0.0
        e = math.exp(-2.0)
        want = 0.5 * math.log((0.2 * e + 0.8) / (0.2 + 0.8 * e))
        got = loss.substitute([-1.0, 1.0, 1.0], [0.2, 0.3, 0.5])
        assert got == pytest.approx(want, abs=1e-15)

    def test_subnormal_weight_on_the_maximum(self):
        # s / m overflows when the maximal entry's weight is subnormal; the
        # direct sum takes over
        assert SquareLoss().substitute([0.0, 0.5], [1.0, 2.4e-309]) == 0.0
        a, b = np.array([-0.5, -0.125]), np.array([1.0, 2.4e-309])
        assert _logsumexp(a, b) == np.log((b * np.exp(a)).sum())

    def test_bitwise_equal_to_scipy_with_subnormal_weights(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(5309)
        for i in range(3000):
            k = int(rng.integers(1, 9))
            a = -0.5 * (rng.uniform(-1, 1, k) + (1.0 if i % 2 else -1.0)) ** 2
            if i % 3 == 0:
                a[rng.random(k) < 0.5] = a.max()
            b = rng.dirichlet(np.ones(k))
            tiny = rng.random(k) < 0.5
            b[tiny] = 10.0 ** -rng.uniform(308.0, 323.0, int(tiny.sum()))
            if i % 5 == 0:
                b[rng.integers(0, k)] = 0.0
            with np.errstate(over="ignore"):  # the library warns where it falls back
                got, ref = _logsumexp(a, b), special.logsumexp(a, b=b)
            assert np.float64(got).tobytes() == np.float64(ref).tobytes(), (a, b)

    def test_agrees_with_scipy_within_one_ulp(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(2024)
        for i in range(2000):
            k = int(rng.integers(1, 9))
            if i % 2:
                a = rng.uniform(-50.0, 5.0, k)
            else:
                a = -0.5 * (rng.uniform(-1, 1, k) - 1.0) ** 2
            if i % 3 == 0:
                a[rng.random(k) < 0.5] = a.max()
            b = rng.dirichlet(np.ones(k))
            if i % 5 == 0 and k > 1:
                b[rng.integers(0, k)] = 0.0
            got, ref = _logsumexp(a, b), special.logsumexp(a, b=b)
            assert abs(got - ref) <= np.spacing(abs(ref))


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
