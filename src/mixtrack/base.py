"""Constant-predictor base learners with logarithmic static regret.

Each learner predicts a single value per round from running statistics
of the outcomes seen so far.  Two are shipped: the Krichevsky-Trofimov
add-half estimator for binary outcomes under log loss, and the running
mean (follow-the-leader) for bounded outcomes under square loss.

A learner is used only in its row form: many independent copies are
rows of one array, updated in lockstep.  The contract is ``state_width``
plus four methods: ``init_rows(n)`` returns n fresh rows,
``predict_rows(rows)`` each row's prediction, ``update_rows(rows, x)``
feeds outcome ``x`` to every row in place, and ``predictions(xs)`` is
the non-anticipating prediction sequence of one fresh copy over a whole
outcome array.  Learners do not validate outcomes; the loss and the
mixture engine do.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .losses import BERNOULLI_MARGIN

# Both shipped learners keep the same row: column 0 is the sum of the
# outcomes seen, column 1 their count.  The row code below is written
# once and bound by name in each class body (``update_rows =
# _update_rows``), so every class holds it in its own namespace, where
# per-class patching such as perfbench/tracer.py finds it.  Each learner
# writes its formula once, in ``predict_rows``.

_STATE_WIDTH = 2


def _init_rows(self, n: int) -> np.ndarray:
    return np.zeros((n, _STATE_WIDTH))


def _update_rows(self, rows: np.ndarray, x: float) -> None:
    rows[:, 0] += x
    rows[:, 1] += 1.0


def _prediction_sequence(self, xs) -> np.ndarray:
    """Non-anticipating prediction sequence for a whole outcome array.

    Row t holds the statistics after the first t outcomes: their prefix
    sum and the count t.  Sequential prefix sums add in the order that
    ``update_rows`` does, so the result equals one row stepped through
    the outcomes, bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    sums = np.concatenate(([0.0], np.cumsum(xs)))[: xs.size]
    return self.predict_rows(np.column_stack((sums, np.arange(xs.size, dtype=float))))


class KTEstimator:
    """Add-half (Krichevsky-Trofimov) probability estimator.

    Predicts (k + 1/2) / (n + 1) after seeing k ones in n outcomes, so
    the first prediction is 1/2.  Against log loss its regret to the
    best constant probability is at most 0.5*log(n) + 1.  Predictions
    are clipped into [BERNOULLI_MARGIN, 1 - BERNOULLI_MARGIN], the
    log-loss domain, which only matters for run lengths beyond
    ~1/(2*BERNOULLI_MARGIN).
    """

    name = "kt"
    loss_family = "bernoulli"
    pred_low = BERNOULLI_MARGIN
    pred_high = 1.0 - BERNOULLI_MARGIN

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        p = (rows[:, 0] + 0.5) / (rows[:, 1] + 1.0)
        return np.clip(p, self.pred_low, self.pred_high)

    state_width = _STATE_WIDTH
    init_rows = _init_rows
    update_rows = _update_rows
    predictions = _prediction_sequence


class RunningMean:
    """Mean of past outcomes, clipped to [-1, 1]; predicts 0 at the start."""

    name = "running-mean"
    loss_family = "square"
    pred_low = -1.0
    pred_high = 1.0

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        # Fresh copies (count 0) predict 0; avoid the 0/0.
        cnt = np.maximum(rows[:, 1], 1.0)
        return np.clip(rows[:, 0] / cnt, self.pred_low, self.pred_high)

    state_width = _STATE_WIDTH
    init_rows = _init_rows
    update_rows = _update_rows
    predictions = _prediction_sequence


def static_regret(base, loss, xs) -> float:
    """Cumulative loss of the learner minus the best constant prediction.

    The comparator is ``loss.best_fixed(xs)`` chosen in hindsight.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("empty outcome sequence")
    preds = base.predictions(xs)
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
        preds = base.predictions(seg)
        total += float(np.sum(loss.evaluate_pairs(preds, seg)))
        pos += n
    return total


_BASES: dict[str, Callable] = {
    "kt": KTEstimator,
    "running-mean": RunningMean,
}


def register_base(name: str, factory: Callable) -> None:
    """Register a base-learner factory for lookup by name.

    The learner must expose ``loss_family`` and the row contract in the
    module docstring: the mixture engine calls ``state_width`` and the
    three row methods, the path oracle and the regret reports call
    ``predictions``.
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
