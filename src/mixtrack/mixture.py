"""Aggregation engine over a pool of restarting base-learner copies.

Round t works in three phases.  Predict: the live copies' predictions
are merged with the loss's substitution rule under the current
normalized weights.  Ingest: every copy's log-weight absorbs its own
exponentiated loss on the revealed outcome.  Advance: weights are
rerouted toward round t+1 by a sparse kernel in which a copy about to
restart sends its whole mass to the single designated restarter J_{t+1}
(the restarting copy of largest period), while a copy with runtime u at
t+1 keeps a (u-1)/u share of its mass and cedes the 1/u remainder to
J_{t+1}.  Outgoing shares therefore sum to one for every copy, and a
copy that restarts without being J_{t+1} is left with zero mass until
it is next designated.

Every copy the calendar creates gets one row, appended in creation
order, so a row's index is the copy's id.  The engine asks the calendar
only for each round's births; J_{t+1} is read off the rows as the row of
largest period among those whose runtime at t+1 is 1.

A round checks its inputs once, before it changes any state: the
outcome, the copies' predictions, and the merged prediction against the
loss's domain.  It then calls the loss's unchecked kernels (``merge``,
``pointwise``), so a step that raises leaves the mixture as it was.

``step`` returns the round as a ``StepRecord`` whose fields follow the
``Trace`` columns; ``run`` calls ``step`` once per outcome and writes
each record into the columns.

``mode`` only picks the rows a round's base-learner work touches.
Eager predicts and updates every row, zero-mass rows included.  Lazy
touches only the rows carrying mass; a zero-mass row keeps stale
statistics until it is next designated, which wipes them.  Weight
reductions run over the massful rows in row order in both modes, so the
numbers agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .schemes import ExpertSpec, runtime

NEG_INF = -math.inf

# stored period of a never-restarting copy: it outranks every finite
# period, and age % NEVER == age for every reachable round
NEVER = np.iinfo(np.int64).max

COLUMNAR_METHODS = ("state_width", "init_rows", "predict_rows", "update_rows")
LOSS_KERNELS = ("merge", "pointwise")


def transition_weight(src_runtime: int, tgt_runtime: int, same_expert: bool, tgt_is_jt: bool) -> float:
    """Share of a source copy's mass routed to a target copy.

    Runtimes are taken at the destination round.  The designated
    restarter (runtime 1) receives 1/src_runtime from every live copy;
    a copy not restarting keeps (u-1)/u of its own mass; every other
    pairing gets zero.  For fixed source the shares sum to one: a
    non-restarting copy splits (u-1)/u + 1/u, a restarting one sends
    everything to the designated restarter.
    """
    if src_runtime < 1 or tgt_runtime < 1:
        raise ValueError("runtimes are 1-based")
    if tgt_is_jt and tgt_runtime == 1:
        return 1.0 / src_runtime
    if same_expert and src_runtime != 1:
        # staying put; src and tgt runtime coincide for the same copy
        return (src_runtime - 1.0) / src_runtime
    return 0.0


def select_jt(scheme, t: int) -> ExpertSpec:
    """The designated restarter at round t: largest period, then earliest start.

    Reference form of the rule, straight from the calendar; the engine
    reads the same copy off its rows.
    """
    resetters = scheme.resetting_at(t)
    if not resetters:
        raise RuntimeError(f"calendar defect: no copy restarts at round {t}")
    return max(resetters, key=lambda e: (e.period, -e.start))


class StepRecord(NamedTuple):
    """Log line for one round; the fields follow the ``Trace`` columns."""

    t: int
    outcome: float
    prediction: float
    step_loss: float
    jt_period: float
    live: int
    created: int
    work: int
    drift: float
    map_id: int


# dtype of each Trace column, in StepRecord field order
_DTYPES = (np.int64, float, float, float, float, np.int64, np.int64, np.int64, float, np.int64)


@dataclass
class Trace:
    """Full run history: one column per StepRecord field, in field order."""

    scheme_tag: str
    loss_name: str
    mode: str
    ts: np.ndarray
    outcomes: np.ndarray
    predictions: np.ndarray
    step_losses: np.ndarray
    jt_periods: np.ndarray
    live: np.ndarray
    created: np.ndarray
    work: np.ndarray
    drifts: np.ndarray
    map_ids: np.ndarray
    id_to_spec: dict

    @property
    def horizon(self) -> int:
        return int(self.ts.size)

    @property
    def total_loss(self) -> float:
        return float(np.sum(self.step_losses))

    @property
    def total_work(self) -> int:
        return int(np.sum(self.work))

    def map_specs(self) -> list:
        """Highest-weight copy at each round."""
        return [self.id_to_spec[int(i)] for i in self.map_ids]

    def realized_segments(self) -> int:
        """Segments of the per-round highest-weight copy path."""
        if self.map_ids.size == 0:
            return 0
        return 1 + int(np.count_nonzero(np.diff(self.map_ids)))


class Mixture:
    """Weighted pool of restarting copies of one base learner.

    Parameters
    ----------
    scheme : calendar object
        Provides births_at, the only calendar call the engine makes.
    loss : loss family
        Provides mixability, pred_low/pred_high, the validators
        ``validate_outcome`` and ``validate_prediction``, and the
        unchecked kernels ``merge`` and ``pointwise``; the engine calls
        each validator once per round and then only the kernels.  A loss
        without the kernels is rejected.
    base : base learner
        Must declare ``loss_family`` matching ``loss.name`` and expose the
        columnar interface (``state_width``, ``init_rows``,
        ``predict_rows``, ``update_rows``): the copies' statistics are
        rows of one array.
    mode : {"eager", "lazy"}
        Which rows a round's base-learner work touches; the computed
        numbers are identical.
    """

    def __init__(self, scheme, loss, base, mode: str = "eager"):
        if mode not in ("eager", "lazy"):
            raise ValueError("mode must be 'eager' or 'lazy'")
        fam = getattr(base, "loss_family", None)
        if fam != loss.name:
            raise ValueError(f"base learner feeds {fam!r} but the loss is {loss.name!r}")
        missing = [m for m in COLUMNAR_METHODS if not hasattr(base, m)]
        if missing:
            raise ValueError(f"base learner lacks the columnar methods {', '.join(missing)}")
        missing = [m for m in LOSS_KERNELS if not hasattr(loss, m)]
        if missing:
            raise ValueError(f"loss lacks the unchecked kernels {', '.join(missing)}")
        self.scheme = scheme
        self.loss = loss
        self.base = base
        self.mode = mode

        births = sorted(scheme.births_at(1))
        if not births:
            raise RuntimeError("calendar defect: no copy is born at round 1")

        # one row per created copy, in creation order: row index = copy id
        self._specs: list[ExpertSpec] = []
        self._period = np.empty(0, dtype=np.int64)
        self._start = np.empty(0, dtype=np.int64)
        self._logw = np.empty(0)
        self._rows = np.empty((0, base.state_width))
        self.created = 0
        self._finite_periods = False

        self.t = 1
        self.work_total = 0
        self._log_tab = np.empty(0)
        self._stay_tab = np.empty(0)

        self._append(births, math.log(1.0 / len(births)))
        # every copy born at round 1 is at runtime 1
        self._jt = self._restarter(np.arange(self.created), 1)

    # -- row storage -------------------------------------------------------

    def _append(self, specs: list, logw: float) -> None:
        """Add a row for each new copy, base statistics fresh."""
        n = self.created
        m = n + len(specs)
        if m > self._logw.size:
            cap = max(2 * self._logw.size, m, 8)
            for name in ("_period", "_start", "_logw", "_rows"):
                old = getattr(self, name)
                grown = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                grown[:n] = old[:n]
                setattr(self, name, grown)
        for i, spec in enumerate(specs, n):
            finite = not math.isinf(spec.period)
            self._finite_periods |= finite
            self._period[i] = int(spec.period) if finite else NEVER
            self._start[i] = spec.start
        self._specs.extend(specs)
        self._logw[n:m] = logw
        self._rows[n:m] = self.base.init_rows(m - n)
        self.created = m

    def _restarter(self, restarting: np.ndarray, t: int) -> int:
        """Row of J_t: largest period among the rows at runtime 1 at round t.

        Rows of equal period were born in start order, so the first one
        has the earliest start, as in ``select_jt``.
        """
        if restarting.size == 0:
            raise RuntimeError(f"calendar defect: no copy restarts at round {t}")
        return int(restarting[self._period[restarting].argmax()])

    def _log_of(self, values: np.ndarray) -> np.ndarray:
        """log(values) by table lookup; grows the stay-share table alongside."""
        hi = int(values.max())
        if hi >= self._log_tab.size:
            with np.errstate(divide="ignore"):
                self._log_tab = np.log(np.arange(max(2 * self._log_tab.size, hi + 1, 64)))
                # stay share log((u-1)/u); -inf at u=1 kills restarting rows
                self._stay_tab = self._log_tab - np.concatenate(([math.inf], self._log_tab[:-1]))
                self._stay_tab *= -1.0
        return self._log_tab[values]

    # -- introspection -----------------------------------------------------

    @property
    def jt(self) -> ExpertSpec:
        """Designated restarter of the current round."""
        return self._specs[self._jt]

    def live_table(self):
        """Pool as (spec, id, log-weight, runtime) tuples.

        Eager lists every created copy, lazy only the copies carrying mass.
        """
        logw = self._logw[: self.created]
        ids = range(self.created) if self.mode == "eager" else np.flatnonzero(logw > NEG_INF)
        return [
            (self._specs[i], int(i), float(logw[i]), runtime(self.t, self._specs[i])) for i in ids
        ]

    def posterior(self) -> dict:
        """Normalized weights over massful copies at the current round."""
        logw = self._logw[: self.created]
        live = np.flatnonzero(logw > NEG_INF)
        lw = logw[live]
        mx = lw.max()
        z = mx + math.log(float(np.exp(lw - mx).sum()))
        return {self._specs[i]: math.exp(float(logw[i]) - z) for i in live}

    # -- the round ---------------------------------------------------------

    def step(self, x: float) -> StepRecord:
        """Predict on round t, ingest outcome ``x``, advance to round t+1."""
        t, n = self.t, self.created
        x = float(x)
        loss = self.loss
        loss.validate_outcome(x)
        logw = self._logw[:n]
        fin = logw > NEG_INF
        live = slice(0, n) if fin.all() else fin.nonzero()[0]
        work = live if self.mode == "lazy" else slice(0, n)
        rows = self._rows[work]

        preds = self.base.predict_rows(rows)
        loss.validate_prediction(preds)
        lw = logw[live]
        post = np.exp(lw - lw.max())
        post /= post.sum()
        prediction = loss.merge(preds if self.mode == "lazy" else preds[live], post)
        if not (loss.pred_low <= prediction <= loss.pred_high):  # written so that NaN fails
            raise ValueError(f"merged prediction {prediction!r} outside [{loss.pred_low}, {loss.pred_high}]")
        step_loss = loss.pointwise(prediction, x)
        map_id = int(logw.argmax())
        jt_period = float(self._specs[self._jt].period)

        # ingest: each copy absorbs its own loss, its statistics the outcome
        losses = loss.pointwise(preds, x)
        alpha = loss.mixability
        logw[work] -= losses if alpha == 1.0 else alpha * losses
        self.base.update_rows(rows, x)
        if not isinstance(work, slice):
            self._rows[work] = rows
        self.work_total += len(rows)

        drift = self._advance(live)
        return StepRecord(t, x, float(prediction), float(step_loss), jt_period, lw.size, n, len(rows), drift, map_id)

    def _advance(self, live) -> float:
        """Route weights from round t to round t+1 and wipe the restarters."""
        n = self.created
        t1 = self.t + 1
        births = self.scheme.births_at(t1)
        if births:
            self._append(sorted(births), NEG_INF)

        # runtimes at the destination round; newborns come out at 1
        age = t1 - self._start[: self.created]
        if self._finite_periods:
            u1 = age % self._period[: self.created] + 1
            restarting = (u1 == 1).nonzero()[0]
        else:
            u1 = age + 1
            restarting = np.arange(n, self.created)
        jt = self._restarter(restarting, t1)

        logw = self._logw[: self.created]
        u = u1[live]
        contrib = logw[live] - self._log_of(u)
        cm = contrib.max()
        if not math.isfinite(cm):
            raise RuntimeError("weight pool degenerated: no mass to route")
        inflow = cm + math.log(float(np.exp(contrib - cm).sum()))

        # stayers keep (u-1)/u; a restarting copy (u=1) drops to zero mass
        logw[live] += self._stay_tab[u]
        logw[jt] = inflow
        self._rows[restarting] = self.base.init_rows(restarting.size)

        shift = float(logw.max())
        logw -= shift
        self._jt = jt
        self.t = t1
        return shift

    def run(self, xs) -> Trace:
        """Feed a 1-d outcome sequence through ``step`` and collect the trace.

        Each round's StepRecord is written into preallocated columns, one
        per field, so the trace holds the same numbers ``step`` returns.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1:
            raise ValueError(f"outcome sequence must be 1-d, got shape {xs.shape}")
        if xs.size == 0:
            raise ValueError("empty outcome sequence")
        cols = [np.empty(xs.size, dtype=dt) for dt in _DTYPES]
        for i, x in enumerate(xs.tolist()):
            for col, value in zip(cols, self.step(x)):
                col[i] = value
        return Trace(self.scheme.tag, self.loss.name, self.mode, *cols, id_to_spec=dict(enumerate(self._specs)))
