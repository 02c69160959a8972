"""Constant-predictor base learners with logarithmic static regret.

Each learner predicts a single value per round from running statistics
of the outcomes seen so far.  Two are shipped: the Krichevsky-Trofimov
add-half estimator for binary outcomes under log loss, and the running
mean (follow-the-leader) for bounded outcomes under square loss.  Both
admit a columnar form where many independent copies are stored as rows
of one array and updated in lockstep; the mixture engine requires it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class BaseState:
    """One learner copy: its current prediction plus running statistics."""

    prediction: float
    stats: np.ndarray
    count: int = 0


class KTEstimator:
    """Add-half (Krichevsky-Trofimov) probability estimator.

    Predicts (k + 1/2) / (n + 1) after seeing k ones in n outcomes, so
    the first prediction is 1/2.  Against log loss its regret to the
    best constant probability is at most 0.5*log(n) + 1.  Predictions
    are clipped into the loss margin, which only matters for run
    lengths beyond ~1/(2*margin).
    """

    name = "kt"
    loss_family = "bernoulli"
    state_width = 2  # columns: ones seen, outcomes seen

    def __init__(self, margin: float = 1e-6):
        self.pred_low = margin
        self.pred_high = 1.0 - margin

    # -- scalar interface ------------------------------------------------

    def init_state(self) -> BaseState:
        return BaseState(0.5, np.zeros(2), 0)

    def predict(self, state: BaseState) -> float:
        return state.prediction

    def update(self, state: BaseState, x: float) -> BaseState:
        if x != 0.0 and x != 1.0:
            raise ValueError("binary outcome must be exactly 0 or 1")
        stats = state.stats + np.array([x, 1.0])
        pred = (stats[0] + 0.5) / (stats[1] + 1.0)
        pred = min(max(pred, self.pred_low), self.pred_high)
        return BaseState(float(pred), stats, state.count + 1)

    # -- columnar interface ----------------------------------------------

    def init_rows(self, n: int) -> np.ndarray:
        return np.zeros((n, 2))

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        p = (rows[:, 0] + 0.5) / (rows[:, 1] + 1.0)
        return np.clip(p, self.pred_low, self.pred_high)

    def update_rows(self, rows: np.ndarray, x: float) -> None:
        rows[:, 0] += x
        rows[:, 1] += 1.0

    def predictions(self, xs: np.ndarray) -> np.ndarray:
        """Non-anticipating prediction sequence for a whole outcome array."""
        xs = np.asarray(xs, dtype=float)
        ones = np.concatenate(([0.0], np.cumsum(xs)))[: xs.size]
        tot = np.arange(xs.size, dtype=float)
        return np.clip((ones + 0.5) / (tot + 1.0), self.pred_low, self.pred_high)


class RunningMean:
    """Mean of past outcomes, clipped to [-1, 1]; predicts 0 at the start."""

    name = "running-mean"
    loss_family = "square"
    state_width = 2  # columns: outcome sum, outcome count

    pred_low = -1.0
    pred_high = 1.0

    def init_state(self) -> BaseState:
        return BaseState(0.0, np.zeros(2), 0)

    def predict(self, state: BaseState) -> float:
        return state.prediction

    def update(self, state: BaseState, x: float) -> BaseState:
        if not (-1.0 <= x <= 1.0):
            raise ValueError("outcome outside [-1, 1]")
        stats = state.stats + np.array([x, 1.0])
        pred = min(max(stats[0] / stats[1], self.pred_low), self.pred_high)
        return BaseState(float(pred), stats, state.count + 1)

    def init_rows(self, n: int) -> np.ndarray:
        return np.zeros((n, 2))

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        # Fresh copies (count 0) predict 0; avoid the 0/0.
        cnt = np.maximum(rows[:, 1], 1.0)
        return np.clip(rows[:, 0] / cnt, self.pred_low, self.pred_high)

    def update_rows(self, rows: np.ndarray, x: float) -> None:
        rows[:, 0] += x
        rows[:, 1] += 1.0

    def predictions(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        sums = np.concatenate(([0.0], np.cumsum(xs)))[: xs.size]
        cnt = np.maximum(np.arange(xs.size, dtype=float), 1.0)
        return np.clip(sums / cnt, self.pred_low, self.pred_high)


def replay_predictions(base, xs) -> np.ndarray:
    """Prediction sequence via the scalar interface, one round at a time.

    Slow but definitionally direct; used to cross-check the vectorized
    ``predictions`` methods.
    """
    state = base.init_state()
    out = np.empty(len(xs))
    for t, x in enumerate(xs):
        out[t] = base.predict(state)
        state = base.update(state, float(x))
    return out


def _predictions(base, xs) -> np.ndarray:
    if hasattr(base, "predictions"):
        return base.predictions(xs)
    return replay_predictions(base, xs)


def static_regret(base, loss, xs) -> float:
    """Cumulative loss of the learner minus the best constant prediction.

    The comparator is ``loss.best_fixed(xs)`` chosen in hindsight.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("empty outcome sequence")
    preds = _predictions(base, xs)
    star = loss.best_fixed(xs)
    own = loss.evaluate_pairs(preds, xs)
    ref = loss.evaluate_pairs(np.full(xs.size, star), xs)
    return float(np.sum(own) - np.sum(ref))


def restart_loss(base, loss, xs, lengths) -> float:
    """Total loss when the learner restarts fresh at known segment starts."""
    xs = np.asarray(xs, dtype=float)
    if sum(lengths) != xs.size:
        raise ValueError("segment lengths must sum to the sequence length")
    total = 0.0
    pos = 0
    for n in lengths:
        seg = xs[pos : pos + n]
        preds = _predictions(base, seg)
        total += float(np.sum(loss.evaluate_pairs(preds, seg)))
        pos += n
    return total


_BASES: dict[str, Callable] = {
    "kt": KTEstimator,
    "running-mean": RunningMean,
}


def register_base(name: str, factory: Callable) -> None:
    """Register a base-learner factory for lookup by name.

    The learner must expose ``loss_family``, the scalar interface
    (``init_state``, ``update``, ``predict``), which the reference
    replays and oracles use, and the columnar interface
    (``state_width``, ``init_rows``, ``predict_rows``, ``update_rows``),
    which the mixture engine requires.
    """
    if name in _BASES:
        raise ValueError(f"base learner {name!r} already registered")
    _BASES[name] = factory


def make_base(name: str):
    try:
        factory = _BASES[name]
    except KeyError:
        raise ValueError(f"unknown base learner {name!r}; registered: {sorted(_BASES)}") from None
    return factory()
