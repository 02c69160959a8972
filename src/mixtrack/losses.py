"""Mixable loss families and their substitution (merging) rules.

A loss family here bundles four things: a prediction domain, an outcome
domain, a mixability constant alpha, and a substitution function that
collapses a weighted set of predictions into a single prediction whose
loss is at most the alpha-mixture of the individual losses.  The
guarantee is

    exp(-alpha * l(theta_hat, x)) >= sum_i w_i * exp(-alpha * l(theta_i, x))

for every outcome x, where theta_hat = substitute(thetas, weights).
``mixability_slack`` measures the left side minus the right side; it
must never be negative beyond rounding noise.

Each family also exposes its arithmetic as unchecked kernels: ``merge``
is the substitution rule, ``pointwise`` the loss and ``factor`` the
weight factor exp(-alpha * loss).  The public ``substitute`` and
``evaluate`` validate their inputs and then call the kernels, so there
is one arithmetic path; the mixture engine validates each round's
inputs once itself and calls the kernels directly.  A family whose
factors are bounded below on its domains declares that bound as
``factor_floor``: the engine then updates the weights in place, while
for a family without one (``ExpConcaveLoss``, whose loss may be
infinite) it checks the round's mass before writing any weight.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# Probability predictions are kept a hair inside (0, 1) so log loss stays
# finite; outcomes are still exact 0/1.
BERNOULLI_MARGIN = 1e-6

# A substitution result may poke past the prediction domain by at most
# this much before we treat it as a hard failure rather than rounding.
DOMAIN_SLOP = 1e-9


def _as_mix(thetas, weights):
    """Validate a weighted prediction set and return it as float arrays."""
    th = np.asarray(thetas, dtype=float)
    w = np.asarray(weights, dtype=float)
    if th.ndim != 1 or w.ndim != 1 or th.shape != w.shape or th.size == 0:
        raise ValueError("weighted prediction set must be two equal-length 1-d arrays")
    if (w < 0.0).any():
        raise ValueError("mixture weights must be nonnegative")
    s = float(w.sum())
    if not (abs(s - 1.0) <= 1e-12):  # written so that a NaN sum fails
        raise ValueError(f"mixture weights must sum to 1 (got {s!r})")
    return th, w


# Written once and bound by name in each loss class body (``evaluate =
# _evaluate``), so every class holds them in its own namespace, where
# per-class patching such as perfbench/tracer.py finds them


def _validate_prediction(self, theta) -> None:
    """Reject a prediction or array of them outside [pred_low, pred_high]."""
    t = np.asarray(theta, dtype=float)
    if not ((t >= self.pred_low).all() and (t <= self.pred_high).all()):  # written so that NaN fails
        raise ValueError(f"{self.name} prediction outside [{self.pred_low}, {self.pred_high}]")


def _clipped_mean(self, xs) -> float:
    """Hindsight-optimal constant prediction: the mean, clipped into the prediction domain."""
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("empty outcome sequence")
    return float(np.clip(np.mean(xs), self.pred_low, self.pred_high))


def _evaluate(self, theta, x: float):
    """Loss of prediction(s) ``theta`` on outcome ``x``, both validated.

    ``theta`` may be a scalar or an array; the return type matches.
    """
    self.validate_prediction(theta)
    self.validate_outcome(x)
    t = np.asarray(theta, dtype=float)
    out = self.pointwise(t, x)
    return float(out) if np.isscalar(theta) or t.ndim == 0 else out


def _substitute(self, thetas, weights) -> float:
    """Validate a weighted prediction set, then merge it."""
    th, w = _as_mix(thetas, weights)
    self.validate_prediction(th)
    return self.merge(th, w)


def _mean_merge(self, th: np.ndarray, w: np.ndarray) -> float:
    """Unchecked substitution: the weighted mean."""
    # Convex combination of in-domain points cannot leave the domain.
    return float(np.add.reduce(w * th))  # as ndarray.sum, without its Python wrapper


def _exp_factor(self, theta, x: float):
    """Unchecked weight factor exp(-alpha * loss) of float array ``theta`` on outcome ``x``."""
    return np.exp(-self.mixability * self.pointwise(theta, x))


class SquareLoss:
    """Square loss (theta - x)^2 on predictions and outcomes in [-1, 1].

    Mixable with constant 1/2.  The substitution function is the
    two-sided log-partition formula

        theta_hat = 0.5 * (log Z(+1) - log Z(-1)),
        Z(x) = sum_i w_i * exp(-(theta_i - x)^2 / 2).

    Under weights summing to 1 both sums lie in [e^-2, 1], so they are
    taken directly.  For weight on the endpoints the raw value can
    overshoot [-1, 1] by a few ulps; overshoot beyond ``DOMAIN_SLOP`` is
    refused instead of clamped.
    """

    name = "square"
    mixability = 0.5
    pred_low = -1.0
    pred_high = 1.0
    factor_floor = math.exp(-2.0)  # the least exp(-(theta - x)^2 / 2) on [-1, 1]^2

    validate_prediction = _validate_prediction

    def validate_outcome(self, x: float) -> None:
        if not (-1.0 <= x <= 1.0):
            raise ValueError("square-loss outcome outside [-1, 1]")

    def pointwise(self, theta, x: float):
        """Unchecked loss of a float or float array ``theta`` on outcome ``x``."""
        return (theta - x) ** 2

    factor = _exp_factor

    evaluate = _evaluate

    def evaluate_pairs(self, thetas, xs) -> np.ndarray:
        """Elementwise losses for aligned prediction/outcome arrays."""
        th = np.asarray(thetas, dtype=float)
        xs = np.asarray(xs, dtype=float)
        self.validate_prediction(th)
        if not ((xs >= -1.0).all() and (xs <= 1.0).all()):
            raise ValueError("square-loss outcome outside [-1, 1]")
        return self.pointwise(th, xs)

    def merge(self, th: np.ndarray, w: np.ndarray) -> float:
        """Unchecked substitution of in-domain ``th`` under weights ``w`` summing to 1."""
        hi = float(np.add.reduce(w * self.factor(th, 1.0)))  # as ndarray.sum, without its Python wrapper
        lo = float(np.add.reduce(w * self.factor(th, -1.0)))
        val = 0.5 * (math.log(hi) - math.log(lo))
        clamped = min(max(val, self.pred_low), self.pred_high)  # a NaN val passes through both
        if abs(val - clamped) > DOMAIN_SLOP:
            raise ValueError(f"substitution overshoot {val!r} exceeds tolerance")
        return clamped

    substitute = _substitute

    best_fixed = _clipped_mean


class BernoulliLogLoss:
    """Log loss for binary outcomes: -log(theta) if x=1 else -log(1-theta).

    Mixable with constant 1, and the weighted mean of the predictions
    achieves the mixability inequality with equality, which makes the
    substitution step a weighted sum and a copy's weight factor its own
    probability of the outcome.  Predictions live in
    [BERNOULLI_MARGIN, 1 - BERNOULLI_MARGIN] so the loss stays finite.
    """

    name = "bernoulli"
    mixability = 1.0
    pred_low = BERNOULLI_MARGIN
    pred_high = 1.0 - BERNOULLI_MARGIN
    factor_floor = BERNOULLI_MARGIN  # a factor is an in-domain probability of the outcome, up to rounding

    validate_prediction = _validate_prediction

    def validate_outcome(self, x: float) -> None:
        if x != 0.0 and x != 1.0:
            raise ValueError("binary outcome must be exactly 0 or 1")

    def pointwise(self, theta, x: float):
        """Unchecked loss of a float or float array ``theta`` on outcome ``x``."""
        # x is a scalar, so only one branch of the loss is ever needed
        if isinstance(theta, float):  # C library log: no SIMD dispatch moves its bits
            return -math.log(theta) if x == 1.0 else -math.log1p(-theta)
        return -np.log(theta) if x == 1.0 else -np.log1p(-theta)

    def factor(self, theta, x: float):
        """Unchecked weight factor exp(-loss): the probability ``theta`` gave outcome ``x``."""
        return theta if x == 1.0 else 1.0 - theta

    evaluate = _evaluate

    def evaluate_pairs(self, thetas, xs) -> np.ndarray:
        th = np.asarray(thetas, dtype=float)
        xs = np.asarray(xs, dtype=float)
        self.validate_prediction(th)
        if np.any((xs != 0.0) & (xs != 1.0)):
            raise ValueError("binary outcome must be exactly 0 or 1")
        return np.array([self.pointwise(t, x) for t, x in zip(th.tolist(), xs.tolist())], dtype=float)

    merge = _mean_merge

    substitute = _substitute

    best_fixed = _clipped_mean


class ExpConcaveLoss:
    """User-supplied loss, mixable via exp-concavity of exp(-lam * l).

    For an exp-concave family the plain weighted mean of the predictions
    satisfies the mixability inequality with constant ``lam``, so no
    custom substitution function is needed.  The prediction domain must
    be an interval (the mean of in-domain points then stays in-domain).

    Parameters
    ----------
    name : str
        Registry key.
    mixability : float
        The exp-concavity constant lam > 0.
    eval_fn : callable
        ``eval_fn(theta, x)`` returning the loss; must broadcast over a
        1-d array of thetas.
    pred_low, pred_high : float
        Endpoints of the prediction interval.
    outcome_check : callable, optional
        ``outcome_check(x)`` returning True for admissible outcomes.
    best_fixed_fn : callable, optional
        Hindsight minimizer over constant predictions; required only by
        regret reports.
    """

    def __init__(
        self,
        name: str,
        mixability: float,
        eval_fn: Callable,
        pred_low: float,
        pred_high: float,
        outcome_check: Callable | None = None,
        best_fixed_fn: Callable | None = None,
    ):
        if mixability <= 0.0:
            raise ValueError("mixability constant must be positive")
        if not pred_low < pred_high:
            raise ValueError("prediction interval is empty")
        self.name = name
        self.mixability = float(mixability)
        self.pred_low = float(pred_low)
        self.pred_high = float(pred_high)
        self._eval_fn = eval_fn
        self._outcome_check = outcome_check

        if best_fixed_fn is not None:
            self.best_fixed = best_fixed_fn

    validate_prediction = _validate_prediction

    def validate_outcome(self, x: float) -> None:
        if self._outcome_check is not None and not self._outcome_check(x):
            raise ValueError("outcome rejected by the loss family")

    def pointwise(self, theta, x: float):
        """Unchecked loss of a float or float array ``theta`` on outcome ``x``."""
        return np.asarray(self._eval_fn(theta, x), dtype=float)

    factor = _exp_factor

    evaluate = _evaluate

    def evaluate_pairs(self, thetas, xs) -> np.ndarray:
        th = np.asarray(thetas, dtype=float)
        xs = np.asarray(xs, dtype=float)
        out = np.empty(th.shape)
        for i in range(th.size):  # user eval_fn need not broadcast over xs
            out[i] = self.evaluate(float(th[i]), float(xs[i]))
        return out

    merge = _mean_merge

    substitute = _substitute


def mixability_slack(loss, thetas, weights, x: float) -> float:
    """exp(-alpha*l(merged)) minus the weighted mixture of exp(-alpha*l_i).

    Nonnegative (up to rounding) exactly when the substitution rule is
    sound for this loss family at outcome ``x``.
    """
    th, w = _as_mix(thetas, weights)
    merged = loss.substitute(th, w)
    a = loss.mixability
    lhs = math.exp(-a * loss.evaluate(merged, x))
    rhs = float(np.dot(w, np.exp(-a * loss.evaluate(th, x))))
    return lhs - rhs


_LOSSES: dict[str, Callable] = {
    "square": SquareLoss,
    "bernoulli": BernoulliLogLoss,
}


def register_loss(name: str, factory: Callable) -> None:
    """Register a loss factory under ``name`` for lookup by the harness.

    ``factory()`` must return an object with the loss interface above:
    name, mixability, pred_low/pred_high, the two validators, the
    checked ``evaluate`` and ``substitute``, the unchecked kernels they call,
    ``pointwise(theta, x)`` and ``merge(thetas, weights)``, and ``factor``;
    optionally ``factor_floor``, a positive lower bound on every factor up
    to rounding; the engine reads only that it is positive.
    The mixture engine calls only the validators and the kernels, and
    rejects a loss without kernels.  ``ExpConcaveLoss`` supplies all of
    this for an exp-concave family.
    """
    if name in _LOSSES:
        raise ValueError(f"loss {name!r} already registered")
    _LOSSES[name] = factory


def make_loss(name: str):
    try:
        factory = _LOSSES[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; registered: {sorted(_LOSSES)}") from None
    return factory()
