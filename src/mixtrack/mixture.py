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
order, so a row's index is the copy's id.  The engine compiles the
calendar's ``schedule`` for a horizon that doubles whenever a round
passes it; the rows born by t+1 are the schedule rows with start <= t+1.
J_t depends on the calendar alone, so each compile tabulates J_t's row
for every round through the horizon; a round no copy restarts on is a
calendar defect, raised when its horizon is compiled.  A round wipes
only J_{t+1}'s row.

A round checks its inputs once, before it changes any state: the
outcome, the copies' predictions, and the merged prediction against the
loss's domain.  It then calls the loss's unchecked kernels (``merge``,
``pointwise``), so a step that raises leaves the mixture as it was.

``step`` returns the round as a ``StepRecord`` whose fields follow the
``Trace`` columns; ``run`` calls ``step`` once per outcome and writes
each record into the columns.

``mode`` only picks the rows a round's base-learner work touches.
Eager predicts and updates every row, zero-mass rows included.  Lazy
touches only the rows carrying mass.  In both modes a zero-mass row
keeps stale statistics until it is next designated, which wipes them.
Weight reductions run over the massful rows in row order in both modes,
so the numbers agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .schemes import NEVER, ExpertSpec, runtime, specs

NEG_INF = -math.inf

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
    reads the same copy off the table it compiles from the schedule.
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
        Provides ``schedule(T)``, the (period, start) arrays of the copies
        born by round T in creation order; the engine calls nothing else
        and compiles J_t's row per round from it.
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
        numbers are identical.  In both modes a dead restarter keeps
        stale statistics until it is designated.
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

        # one row per schedule row born so far: row index = copy id
        self._logw = np.empty(0)
        self._rows = np.empty((0, base.state_width))
        self.created = 0
        self.t = 1
        self.work_total = 0

        self._compile(1)
        born = int(self._start.searchsorted(1, "right"))
        self._append(born, math.log(1.0 / born))
        self._jt = int(self._jt_row[1])

    # -- schedule and row storage -----------------------------------------

    def _compile(self, horizon: int) -> None:
        """Compile the schedule through ``horizon``: J_t's row per round, rows and log tables."""
        period, start = self.scheme.schedule(horizon)
        # copies write their row on their restart rounds by period, then by
        # start descending: the last write is J_t, as in ``select_jt``
        jt_row = np.full(horizon + 1, -1, dtype=np.int64)
        order = np.lexsort((-start, period))
        for i in order:
            jt_row[start[i] :: period[i]] = i
        empty = (jt_row[1:] < 0).nonzero()[0]
        if empty.size:
            raise RuntimeError(f"calendar defect: no copy restarts at round {empty[0] + 1}")
        self._jt_row = jt_row
        self._period, self._start = period, start
        self._finite_periods = bool((period != NEVER).any())
        n, cap = self.created, self._period.size
        logw, rows = np.empty(cap), np.empty((cap, self._rows.shape[1]))
        logw[:n], rows[:n] = self._logw[:n], self._rows[:n]
        self._logw, self._rows = logw, rows
        # runtimes never exceed the horizon; the tables are built in place
        self._log_tab = log_tab = np.arange(horizon + 1, dtype=float)
        with np.errstate(divide="ignore"):
            np.log(log_tab, out=log_tab)
        # stay share log((u-1)/u); -inf at u=1 kills restarting rows
        self._stay_tab = stay = np.full(horizon + 1, math.inf)
        np.subtract(log_tab[:-1], log_tab[1:], out=stay[1:])
        self._horizon = horizon

    def _append(self, m: int, logw: float) -> None:
        """Open rows up to schedule row ``m``, base statistics fresh."""
        n = self.created
        self._logw[n:m] = logw
        self._rows[n:m] = self.base.init_rows(m - n)
        self.created = m

    def _specs_of(self, ids) -> list:
        return specs(self._period[ids], self._start[ids])

    # -- introspection -----------------------------------------------------

    @property
    def jt(self) -> ExpertSpec:
        """Designated restarter of the current round."""
        return self._specs_of([self._jt])[0]

    def live_table(self):
        """Pool as (spec, id, log-weight, runtime) tuples.

        Eager lists every created copy, lazy only the copies carrying mass.
        """
        logw = self._logw[: self.created]
        ids = np.arange(self.created) if self.mode == "eager" else np.flatnonzero(logw > NEG_INF)
        return [
            (spec, i, float(logw[i]), runtime(self.t, spec)) for spec, i in zip(self._specs_of(ids), ids.tolist())
        ]

    def posterior(self) -> dict:
        """Normalized weights over massful copies at the current round."""
        logw = self._logw[: self.created]
        live = np.flatnonzero(logw > NEG_INF)
        lw = logw[live]
        mx = lw.max()
        z = mx + math.log(float(np.exp(lw - mx).sum()))
        return {spec: math.exp(float(logw[i]) - z) for spec, i in zip(self._specs_of(live), live.tolist())}

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
        p = self._period[self._jt]
        jt_period = math.inf if p == NEVER else float(p)

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
        """Route weights from round t to round t+1 and wipe J_{t+1}."""
        t1 = self.t + 1
        if t1 > self._horizon:
            self._compile(2 * self._horizon)
        born = int(self._start.searchsorted(t1, "right"))
        if born > self.created:
            self._append(born, NEG_INF)
        jt = int(self._jt_row[t1])

        # runtimes at the destination round of the rows carrying mass
        age = t1 - self._start[live]
        u = (age % self._period[live] if self._finite_periods else age) + 1

        logw = self._logw[: self.created]
        contrib = logw[live] - self._log_tab[u]
        cm = contrib.max()
        if not math.isfinite(cm):
            raise RuntimeError("weight pool degenerated: no mass to route")
        inflow = cm + math.log(float(np.exp(contrib - cm).sum()))

        # stayers keep (u-1)/u; a restarting copy (u=1) drops to zero mass
        logw[live] += self._stay_tab[u]
        logw[jt] = inflow
        self._rows[jt] = self.base.init_rows(1)

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
        id_to_spec = dict(enumerate(self._specs_of(slice(0, self.created))))
        return Trace(self.scheme.tag, self.loss.name, self.mode, *cols, id_to_spec=id_to_spec)
