"""Aggregation engine over a pool of restarting base-learner copies.

Weights live in the probability domain, normalized to sum 1, beside an
alive flag per row.  Round t works in three phases.  Predict: the live
copies' predictions are merged with the loss's substitution rule under
their weights.  Ingest: each live weight is multiplied by the copy's
factor exp(-alpha * loss) on the revealed outcome; under log loss that
is the copy's own probability of it, so a bernoulli round takes no
``exp`` or ``log`` over the rows.  Advance: a copy with runtime u at t+1 keeps (u-1)/u of its
mass and cedes 1/u to the single designated restarter J_{t+1} (the
restarting copy of largest period); a copy about to restart (u = 1)
thus sends all of its mass there and, unless it is J_{t+1}, dies until
it is next designated.  The weights are then divided by their sum, whose
log the round reports as ``drift``.  A live weight may underflow to an
exact 0 (about e^-745 below the leader): the live set is read off the
alive flags, never off the weights.

Every copy the calendar creates gets one row, appended in creation
order, so a row's index is the copy's id.  The engine compiles the
calendar's ``schedule`` for a horizon that doubles whenever a round
passes it, with J_t's row for every round and the shares 1/u and
(u-1)/u for every runtime; a round no copy restarts on is a calendar
defect, raised when its horizon is compiled.  A round wipes only
J_{t+1}'s row.

A round checks its inputs once, before it changes any state: the
outcome, the copies' predictions, and the merged prediction against the
loss's domain.  It then calls the loss's unchecked kernels (``merge``,
``pointwise``, ``factor``), so a step that raises leaves the mixture as
it was.  ``step`` returns the round as a ``StepRecord`` whose fields
follow the ``Trace`` columns; ``run`` calls ``step`` once per outcome.

Both modes run one round path: every created row, dead or live, is
predicted and updated; the weight arithmetic gathers the live rows, as
summing dead rows' zeros would regroup numpy's pairwise sums.  ``mode``
only picks the rows ``work`` counts and ``live_table`` lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .schemes import NEVER, ExpertSpec, runtime, specs

COLUMNAR_METHODS = ("state_width", "init_rows", "predict_rows", "update_rows")
LOSS_KERNELS = ("merge", "pointwise", "factor")


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


# the StepRecord fields a Trace stores, and their dtypes; the calendar fixes the others
_STORED = tuple(StepRecord._fields.index(f) for f in ("outcome", "prediction", "step_loss", "live", "drift", "map_id"))
_DTYPES = (float, float, float, np.int64, float, np.int64)


def _jt_rows(period: np.ndarray, start: np.ndarray, horizon: int) -> np.ndarray:
    """J_t's schedule row for every round t <= horizon (entry 0 unused), -1 where no copy restarts."""
    # copies write their row on their restart rounds by period, then by
    # start descending: the last write is J_t, as in ``select_jt``
    jt_row = np.full(horizon + 1, -1, dtype=np.int64)
    for i in np.lexsort((-start, period)):
        jt_row[start[i] :: period[i]] = i
    return jt_row


@dataclass
class Trace:
    """Run history: one column per StepRecord field.

    It stores the columns the run produced and computes from ``scheme`` on
    access the ones the calendar fixes, and the created copies' schedule.
    """

    scheme: object
    loss_name: str
    mode: str
    outcomes: np.ndarray
    predictions: np.ndarray
    step_losses: np.ndarray
    live: np.ndarray
    drifts: np.ndarray
    map_ids: np.ndarray

    @property
    def horizon(self) -> int:
        return int(self.outcomes.size)

    @property
    def schedule(self) -> tuple:
        """(period, start) arrays of the copies created, by id: those born by round T + 1."""
        return self.scheme.schedule(self.horizon + 1)

    @property
    def ts(self) -> np.ndarray:
        return np.arange(1, self.horizon + 1)

    @property
    def created(self) -> np.ndarray:
        return self.schedule[1].searchsorted(self.ts, "right")

    @property
    def work(self) -> np.ndarray:
        return self.live.copy() if self.mode == "lazy" else self.created

    @property
    def jt_periods(self) -> np.ndarray:
        period, start = self.schedule
        p = period[_jt_rows(period, start, self.horizon)[1:]]
        return np.where(p == NEVER, math.inf, p)

    @property
    def total_loss(self) -> float:
        return float(np.sum(self.step_losses))

    @property
    def total_work(self) -> int:
        return int(np.sum(self.work))

    @property
    def id_to_spec(self) -> dict:
        """Every created copy's ExpertSpec by id."""
        return dict(enumerate(specs(*self.schedule)))

    def map_specs(self) -> list:
        """Highest-weight copy at each round."""
        period, start = self.schedule
        return specs(period[self.map_ids], start[self.map_ids])

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
        unchecked kernels ``merge``, ``pointwise`` and ``factor``; the engine calls
        each validator once per round and then only the kernels.  A loss
        without the kernels is rejected.
    base : base learner
        Must declare ``loss_family`` matching ``loss.name`` and expose the
        columnar interface (``state_width``, ``init_rows``,
        ``predict_rows``, ``update_rows``): the copies' statistics are
        rows of one array.
    mode : {"eager", "lazy"}
        Which rows a round counts as its ``work`` and ``live_table``
        lists: every created row, or the live ones; the rounds are equal.
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
        self._w = np.empty(0)
        self._alive = np.empty(0, dtype=bool)
        self._rows = np.empty((0, base.state_width))
        self.created = 0
        self.t = 1
        self.work_total = 0

        self._compile(1)
        born = int(self._start.searchsorted(1, "right"))
        self._append(born, 1.0 / born, True)
        self._jt = int(self._jt_row[1])

    # -- schedule and row storage -----------------------------------------

    def _compile(self, horizon: int) -> None:
        """Compile the schedule through ``horizon``: J_t's row per round, rows and share tables."""
        period, start = self.scheme.schedule(horizon)
        jt_row = _jt_rows(period, start, horizon)
        empty = (jt_row[1:] < 0).nonzero()[0]
        if empty.size:
            raise RuntimeError(f"calendar defect: no copy restarts at round {empty[0] + 1}")
        self._jt_row = jt_row
        self._period, self._start = period, start
        self._finite_periods = bool((period != NEVER).any())
        n, cap = self.created, self._period.size
        w, alive, rows = np.empty(cap), np.empty(cap, dtype=bool), np.empty((cap, self._rows.shape[1]))
        w[:n], alive[:n], rows[:n] = self._w[:n], self._alive[:n], self._rows[:n]
        self._w, self._alive, self._rows = w, alive, rows
        # shares by runtime u <= horizon: 1/u goes to J_t, (u-1)/u stays (0 at u=1)
        self._inv_tab = u = np.arange(horizon + 1, dtype=float)
        self._keep_tab = keep = u - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            keep /= u
            np.divide(1.0, u, out=u)
        self._horizon = horizon

    def _append(self, m: int, w: float, alive: bool) -> None:
        """Open rows up to schedule row ``m``, base statistics fresh."""
        n = self.created
        self._w[n:m] = w
        self._alive[n:m] = alive
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
        """Pool as (spec, id, log-weight, runtime) tuples: eager lists every created copy, lazy the live ones.

        A dead copy's log-weight is -inf, as is a live one's whose weight underflowed to 0.
        """
        alive = self._alive[: self.created]
        ids = np.arange(alive.size) if self.mode == "eager" else np.flatnonzero(alive)
        with np.errstate(divide="ignore"):
            logw = np.log(self._w[: alive.size], where=alive, out=np.full(alive.size, -math.inf))
        return [
            (spec, i, float(logw[i]), runtime(self.t, spec)) for spec, i in zip(self._specs_of(ids), ids.tolist())
        ]

    def posterior(self) -> dict:
        """Normalized weights of the live copies at the current round."""
        live = np.flatnonzero(self._alive[: self.created])
        return dict(zip(self._specs_of(live), self._w[live].tolist()))

    # -- the round ---------------------------------------------------------

    def step(self, x: float) -> StepRecord:
        """Predict on round t, ingest outcome ``x``, advance to round t+1."""
        t, n = self.t, self.created
        x = float(x)
        loss = self.loss
        loss.validate_outcome(x)
        if t + 1 > self._horizon:  # before any view of the rows is taken
            self._compile(2 * self._horizon)
        w = self._w[:n]
        alive = self._alive[:n]
        live = slice(0, n) if alive.all() else alive.nonzero()[0]
        rows = self._rows[:n]

        preds = self.base.predict_rows(rows)
        loss.validate_prediction(preds)
        th = preds[live]
        wl = w[live]
        prediction = loss.merge(th, wl)
        if not (loss.pred_low <= prediction <= loss.pred_high):  # written so that NaN fails
            raise ValueError(f"merged prediction {prediction!r} outside [{loss.pred_low}, {loss.pred_high}]")
        step_loss = loss.pointwise(prediction, x)
        map_id = int(w.argmax())
        p = self._period[self._jt]
        jt_period = math.inf if p == NEVER else float(p)

        # ingest: each live copy's weight takes its factor, every copy's statistics the outcome
        wl *= loss.factor(th, x)
        self.base.update_rows(rows, x)
        work = wl.size if self.mode == "lazy" else n
        self.work_total += work

        drift = self._advance(live, wl)
        return StepRecord(t, x, float(prediction), float(step_loss), jt_period, wl.size, n, work, drift, map_id)

    def _advance(self, live, wl: np.ndarray) -> float:
        """Route the live weights ``wl`` from round t to round t+1, wipe J_{t+1}, normalize."""
        t1 = self.t + 1
        born = int(self._start.searchsorted(t1, "right"))
        if born > self.created:
            self._append(born, 0.0, False)
        jt = int(self._jt_row[t1])

        # runtimes at the destination round of the live rows
        age = t1 - self._start[live]
        u = (age % self._period[live] if self._finite_periods else age) + 1

        # stayers keep (u-1)/u; a restarting copy (u=1) dies unless it is J
        inflow = float((wl * self._inv_tab[u]).sum())
        wl *= self._keep_tab[u]
        w = self._w[: self.created]
        if not isinstance(live, slice):
            w[live] = wl
        w[jt] = inflow
        if self._finite_periods:  # else no live row restarts
            self._alive[live] = u > 1
        self._alive[jt] = True
        self._rows[jt] = self.base.init_rows(1)

        z = float(w.sum())
        if not z > 0.0:  # written so that NaN fails
            raise RuntimeError("weight pool degenerated: no mass to route")
        w /= z
        self._jt = jt
        self.t = t1
        return math.log(z)

    def run(self, xs) -> Trace:
        """Feed a 1-d outcome sequence through ``step`` and collect the trace.

        The stored fields of each round's StepRecord are written into
        preallocated columns, so the trace holds the numbers ``step`` returns.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1:
            raise ValueError(f"outcome sequence must be 1-d, got shape {xs.shape}")
        if xs.size == 0:
            raise ValueError("empty outcome sequence")
        cols = [np.empty(xs.size, dtype=dt) for dt in _DTYPES]
        for i in range(xs.size):  # not xs.tolist(), which holds a float object per round
            rec = self.step(xs[i])
            for col, j in zip(cols, _STORED):
                col[i] = rec[j]
        return Trace(self.scheme, self.loss.name, self.mode, *cols)
