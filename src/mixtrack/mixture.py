"""Aggregation engine over a pool of restarting base-learner copies.

Weights live in the probability domain, normalized to sum 1.  Round t
works in three phases.  Predict: the live copies' predictions are merged
with the loss's substitution rule under their weights.  Ingest: each
live weight is multiplied by the copy's factor exp(-alpha * loss) on the
revealed outcome; under log loss that is the copy's own probability of
it, so a bernoulli round takes no ``exp`` or ``log`` over the rows.
Advance: a copy with runtime u at t+1 keeps (u-1)/u of its mass and
cedes 1/u to the single designated restarter J_{t+1} (the restarting
copy of largest period); a copy about to restart (u = 1) thus sends all
of its mass there and, unless it is J_{t+1}, dies until it is next
designated.  The weights are then divided by their sum, whose log the
round reports as ``drift``.

So the live set follows from the calendar alone: a copy is live at round
t when it was J_s at the round s it last restarted or was born, or when
s is round 1 (every copy born at round 1 starts live).  A live weight
may underflow to an exact 0, so the live set is never read off the
weights.

Every copy the calendar creates gets one row, appended in creation
order, so a row's index is the copy's id.  The engine compiles the
calendar's ``schedule`` for a horizon that doubles whenever a round
passes it, with J_t's row for every round; a round no copy restarts on
is a calendar defect, raised when its horizon is compiled.  From that,
for a block of rounds at a time, it tabulates what each round reads off
the calendar: its live rows, as a slice when every open row is live and
as an index view otherwise, with their shares 1/u and (u-1)/u of runtime
u at the destination round already gathered; the rows open after it;
and J_{t+1}'s row.  A block holds as many rounds as fit ``_BLOCK_CELLS``
rounds x rows, within the compiled horizon, but a set of tables at least
``_TABLE_ROUNDS``: the round that tabulates pays for every round of the
set, so on a pool of any size at most one round in ``_TABLE_ROUNDS``
does.  A calendar that opens one copy a round and never restarts one
(``lin``) has every row live from birth on and a newborn J_{t+1} every
round, and gets no such tables: its rows' runtimes at round t+1 run t+1
down to 2, so the compile also divides the shares 1/u and (u-1)/u for
u = horizon+1 down to 1 once, and each round slices them.

The schedule and the outcomes fix everything else a round needs but the
weights.  So ``run`` builds the statistics and predictions of a block of
rounds in a few array calls: the rows' statistics by the learner's own
``update_rows``, one call per round, and their predictions by one
``predict_rows`` call.  Any other round (a bare ``step``, for online
use, a round of a pool too large for two rounds per block, as ``lin``
past 2^11 copies, a round that compiles, and a round whose outcome or
predictions fail their checks) predicts from the rows and updates them
in place.  Either way ``step`` reads its calendar tables and does only
the weight arithmetic, and a round wipes only J_{t+1}'s row.

A round checks its inputs before it changes any state: the outcome with
``validate_outcome``, and the copies' predictions and the merged
prediction against the loss's domain [pred_low, pred_high]; predictions
outside it raise through ``validate_prediction``, with the loss's
message.  A block checks its outcomes and predictions once, and ends
before the first round that fails; that round raises as a bare step.
The round then calls the loss's unchecked kernels (``merge``,
``pointwise``, ``factor``), so a step that raises leaves the mixture as
it was.  That holds for a round whose factors leave no mass, which
raises ``weight pool degenerated``: a loss that declares a positive
``factor_floor`` cannot reach it and updates the weights in place, any
other routes them into a copy and checks the mass before it writes, and
the rows take the outcome only after the check.  ``step`` returns the
round as a ``StepRecord`` whose fields follow the ``Trace`` columns;
``run`` calls ``step`` once per outcome.

Both modes run one round path: every created row, dead or live, is
predicted and updated; the weight arithmetic gathers the live rows, as
summing dead rows' zeros would regroup numpy's pairwise sums.  ``mode``
only picks the rows ``work`` counts and ``live_table`` lists.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .schemes import NEVER, ExpertSpec, runtime, specs

COLUMNAR_METHODS = ("init_rows", "predict_rows", "update_rows")
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


class _Block(NamedTuple):
    """The outcome-fixed tables of a run of rounds, one row per round.

    ``preds`` holds the predictions of every row the block opens, and
    ``stats`` the rows' statistics at the start of each round and after
    the last.
    """

    xs: list
    preds: np.ndarray
    stats: np.ndarray


_BLOCK_CELLS = 2**12  # rounds x rows that one block's tables hold
_TABLE_ROUNDS = 2**7  # the least rounds one set of calendar tables holds


def _block_rounds(rows: int) -> int:
    """Rounds of ``rows`` open rows that one block holds."""
    return _BLOCK_CELLS // rows


def _live_rows(ts, period: np.ndarray, start: np.ndarray, jt_row: np.ndarray) -> np.ndarray:
    """Live flags of the copies (``period``, ``start``) at rounds ``ts``; a column of rounds gives one row each.

    A born copy is live when it is J_s at the round s it last restarted or
    was born, or when s is round 1.
    """
    born = start <= ts
    s = ts - (ts - start) % period  # the last round at runtime 1, for a born copy
    return born & ((s == 1) | (jt_row[np.maximum(s, 0)] == np.arange(start.size)))


def _narrow(col) -> np.ndarray:
    """A column of counts or ids in the narrowest unsigned dtype that holds its largest entry."""
    col = np.asarray(col)
    return col.astype(np.min_scalar_type(col.max(initial=0)))


def _jt_rows(period: np.ndarray, start: np.ndarray, horizon: int) -> np.ndarray:
    """J_t's schedule row for every round t <= horizon (entry 0 unused), -1 where no copy restarts."""
    # copies write their row on their restart rounds by period, then by
    # start descending: the last write is J_t, as in ``select_jt``
    jt_row = np.full(horizon + 1, -1, dtype=np.int64)
    for i in np.lexsort((-start, period)):
        jt_row[start[i] :: period[i]] = i
    return jt_row


class Trace:
    """Run history: one column per StepRecord field.

    It stores the columns the run produced and the round ``t0`` it began
    on, and computes from ``scheme`` on access the ones the calendar
    fixes, and the created copies' schedule.
    The live counts and MAP ids are stored in the narrowest unsigned dtype
    that holds them, at most 2 bytes each below 2^16 copies, and read as
    int64.
    """

    def __init__(self, scheme, mode: str, outcomes: np.ndarray, predictions: np.ndarray, step_losses: np.ndarray,
                 live: np.ndarray, drifts: np.ndarray, map_ids: np.ndarray, t0: int = 1):
        self.scheme, self.mode, self.t0 = scheme, mode, t0
        self.outcomes, self.predictions, self.step_losses, self.drifts = outcomes, predictions, step_losses, drifts
        self._live, self._map_ids = _narrow(live), _narrow(map_ids)

    @property
    def live(self) -> np.ndarray:
        return self._live.astype(np.int64)

    @property
    def map_ids(self) -> np.ndarray:
        return self._map_ids.astype(np.int64)

    @property
    def horizon(self) -> int:
        return int(self.outcomes.size)

    @property
    def schedule(self) -> tuple:
        """(period, start) arrays of the copies created, by id: those born by the round after the last."""
        return self.scheme.schedule(self.t0 + self.horizon)

    @property
    def ts(self) -> np.ndarray:
        return np.arange(self.t0, self.t0 + self.horizon)

    @property
    def created(self) -> np.ndarray:
        return self.schedule[1].searchsorted(self.ts, "right")

    @property
    def work(self) -> np.ndarray:
        return self.live if self.mode == "lazy" else self.created

    @property
    def jt_periods(self) -> np.ndarray:
        period, start = self.schedule
        p = period[_jt_rows(period, start, self.t0 + self.horizon - 1)[self.t0 :]]
        return np.where(p == NEVER, math.inf, p)

    @property
    def total_loss(self) -> float:
        return float(np.sum(self.step_losses))

    @property
    def total_work(self) -> int:
        return int(np.sum(self.work))

    def map_specs(self) -> list:
        """Highest-weight copy at each round."""
        period, start = self.schedule
        return specs(period[self._map_ids], start[self._map_ids])

    def realized_segments(self) -> int:
        """Segments of the per-round highest-weight copy path."""
        ids = self._map_ids
        return 1 + int(np.count_nonzero(ids[1:] != ids[:-1])) if ids.size else 0


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
        unchecked kernels ``merge``, ``pointwise`` and ``factor``.  The
        engine calls ``validate_outcome`` once per round, checks the
        predictions against [pred_low, pred_high] and calls
        ``validate_prediction`` on a round that fails, for its message;
        then only the kernels.  A loss without the kernels is rejected.
        A loss may declare ``factor_floor`` > 0, a lower bound on its
        factors, so that its rounds update the weights in place.
    base : base learner
        Must declare ``loss_family`` matching ``loss.name`` and expose the
        columnar interface (``init_rows``, ``predict_rows``,
        ``update_rows``): the copies' statistics are rows of one array, as
        wide as ``init_rows(1)``.
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
        # a positive floor on every factor keeps mass in the pool, so a round may route in place
        self._in_place = getattr(loss, "factor_floor", 0.0) > 0.0

        # one row per schedule row born so far: row index = copy id
        self._fresh = base.init_rows(1)
        self._w = np.empty(0)
        self._rows = np.empty((0, self._fresh.shape[1]))
        self.created = 0
        self.t = 1
        self._block, self._j = None, 0
        self._tab, self._tab_t0 = [], 1

        self._compile(1)
        born = int(self._start.searchsorted(1, "right"))
        self._w[:born] = 1.0 / born
        self._append(born)
        self._jt = int(self._jt_row[1])

    # -- schedule, calendar tables and row storage -------------------------

    def _compile(self, horizon: int) -> None:
        """Compile the schedule through ``horizon``: J_t's row per round, and row storage."""
        period, start = self.scheme.schedule(horizon)
        jt_row = _jt_rows(period, start, horizon)
        empty = (jt_row[1:] < 0).nonzero()[0]
        if empty.size:
            raise RuntimeError(f"calendar defect: no copy restarts at round {empty[0] + 1}")
        self._jt_row = jt_row
        self._period, self._start = period, start
        # the static live set: one copy born a round and none restarting, so
        # each is J at its birth and every row is live from its birth on
        self._static = bool((period == NEVER).all() and (start == np.arange(1, start.size + 1)).all())
        if self._static:  # the shares 1/u and (u-1)/u for u = horizon+1 down to 1
            u = np.arange(horizon + 1, 0, -1, dtype=float)
            self._inv, self._keep = 1.0 / u, (u - 1.0) / u
        n, cap = self.created, self._period.size
        w, rows = np.empty(cap), np.empty((cap, self._rows.shape[1]))
        w[:n], rows[:n] = self._w[:n], self._rows[:n]
        self._w, self._rows = w, rows
        self._horizon = horizon

    def _span(self, t0: int, rounds: int, least: int = 0) -> tuple:
        """The rounds from ``t0`` that one block holds, at most ``rounds``, and the rows open after its last.

        A block holds at most ``_BLOCK_CELLS`` rounds x rows, but at least
        ``least`` rounds, and ends within the compiled horizon; the count
        is 0 where no round fits.
        """
        start = self._start
        size = min(rounds, self._horizon - t0, max(_block_rounds(self.created), least))
        m = int(start.searchsorted(t0 + size, "right"))
        most = max(_block_rounds(m), least)  # the rows born within the block count too
        if size > most:
            size = most
            m = int(start.searchsorted(t0 + size, "right"))
        return size, m

    def _births(self, ts: np.ndarray) -> tuple:
        """For each round of ``ts``: the rows open after it, and J_{t+1}'s row, as lists."""
        return self._start.searchsorted(ts + 1, "right").tolist(), self._jt_row[ts + 1].tolist()

    def _tabulate(self, t0: int) -> None:
        """Tabulate the calendar for the rounds from ``t0`` that one block holds, at least ``_TABLE_ROUNDS``.

        Round t's entry is its live rows, their shares 1/u and (u-1)/u of
        runtime u at t+1, the rows open after it and J_{t+1}'s row.
        """
        size, m = self._span(t0, self._horizon - t0, _TABLE_ROUNDS)
        ts = np.arange(t0, t0 + size)
        period, start = self._period[:m], self._start[:m]
        live = _live_rows(ts[:, None], period, start, self._jt_row)
        u = ((ts[:, None] + 1 - start) % period + 1.0)[live]  # runtimes at the destination round, as floats
        inv, keep = 1.0 / u, (u - 1.0) / u
        cols = live.nonzero()[1]
        ends = np.count_nonzero(live, axis=1).cumsum().tolist()
        opened = start.searchsorted(ts, "right").tolist()
        tab, a = [], 0
        for b, n, born, jt in zip(ends, opened, *self._births(ts)):
            tab.append((slice(0, n) if b - a == n else cols[a:b], inv[a:b], keep[a:b], born, jt))
            a = b
        self._tab, self._tab_t0 = tab, t0

    def _append(self, m: int) -> None:
        """Open rows up to schedule row ``m``, base statistics fresh; the caller sets their weights."""
        n = self.created
        self._rows[n:m] = self.base.init_rows(m - n)
        self.created = m

    def _specs_of(self, ids) -> list:
        return specs(self._period[ids], self._start[ids])

    # -- introspection -----------------------------------------------------

    @property
    def jt(self) -> ExpertSpec:
        """Designated restarter of the current round."""
        return self._specs_of([self._jt])[0]

    def live_flags(self) -> np.ndarray:
        """The created rows' live flags at the current round, read off the compiled calendar."""
        n = self.created
        return _live_rows(self.t, self._period[:n], self._start[:n], self._jt_row)

    def live_table(self):
        """Pool as (spec, id, log-weight, runtime) tuples: eager lists every created copy, lazy the live ones.

        A dead copy's log-weight is -inf, as is a live one's whose weight underflowed to 0.
        """
        alive = self.live_flags()
        ids = np.arange(alive.size) if self.mode == "eager" else np.flatnonzero(alive)
        with np.errstate(divide="ignore"):
            logw = np.log(self._w[: alive.size], where=alive, out=np.full(alive.size, -math.inf))
        return [
            (spec, i, float(logw[i]), runtime(self.t, spec)) for spec, i in zip(self._specs_of(ids), ids.tolist())
        ]

    def posterior(self) -> dict:
        """Normalized weights of the live copies at the current round."""
        live = np.flatnonzero(self.live_flags())
        return dict(zip(self._specs_of(live), self._w[live].tolist()))

    # -- the round ---------------------------------------------------------

    def step(self, x: float) -> StepRecord:
        """Predict on round t, ingest outcome ``x``, advance to round t+1.

        The round reads its live rows, shares, births and J_{t+1} off the
        calendar tables, and its predictions off the open block if ``run``
        built one with this outcome; otherwise the rows' statistics
        predict, are checked and take the outcome in place.
        """
        t, n = self.t, self.created
        x = float(x)
        loss = self.loss
        blk = self._block
        if blk is not None and x != blk.xs[self._j]:  # not the outcome the block was built with
            self._settle()
            blk = None
        if blk is None:
            loss.validate_outcome(x)
            if t + 1 > self._horizon:  # before any view of the rows is taken
                self._compile(2 * self._horizon)
        if self._static:
            # every open row is live, and n = t: one row opens a round, so row n
            # opens at t+1 and is J_{t+1}; the rows' runtimes at t+1 run t+1 down to 2
            live, born, jt = slice(0, n), n + 1, n
            a = self._horizon - t
            inv, keep = self._inv[a : a + n], self._keep[a : a + n]
        else:
            j = t - self._tab_t0
            if j >= len(self._tab):
                self._tabulate(t)
                j = 0
            live, inv, keep, born, jt = self._tab[j]
        w = self._w[:n]
        if blk is None:
            rows = self._rows[:n]
            preds = self.base.predict_rows(rows)
            # written so that NaN fails: a NaN prediction is the minimum and the maximum
            if not (np.minimum.reduce(preds) >= loss.pred_low and np.maximum.reduce(preds) <= loss.pred_high):
                loss.validate_prediction(preds)  # raises with the loss's message
        else:
            preds = blk.preds[self._j]
        th = preds[live]
        wl = w[live]
        prediction = loss.merge(th, wl)
        if not (loss.pred_low <= prediction <= loss.pred_high):  # written so that NaN fails
            raise ValueError(f"merged prediction {prediction!r} outside [{loss.pred_low}, {loss.pred_high}]")
        step_loss = loss.pointwise(prediction, x)
        map_id = int(w.argmax())
        p = self._period[self._jt]
        jt_period = math.inf if p == NEVER else float(p)

        # ingest: each live copy's weight takes its factor; a loss whose factors
        # have no positive floor may leave no mass, so it routes into a copy
        in_place = self._in_place
        if in_place:
            wl *= loss.factor(th, x)
        else:
            wl = wl * loss.factor(th, x)
        work = wl.size if self.mode == "lazy" else n

        # advance: rows born at t+1 open with no mass; stayers keep (u-1)/u,
        # J_{t+1} takes the 1/u shares, and a restarting copy (u=1) keeps nothing
        inflow = float(np.add.reduce(wl * inv))
        wl *= keep
        w = self._w[:born] if in_place else self._w[:born].copy()
        if born > n:
            w[n:] = 0.0
        if not (in_place and isinstance(live, slice)):
            w[live] = wl
        w[jt] = inflow
        z = float(np.add.reduce(w))
        if not z > 0.0:  # written so that NaN fails
            raise RuntimeError("weight pool degenerated: no mass to route")
        w /= z
        if not in_place:
            self._w[:born] = w

        # every copy's statistics take the outcome, and J_{t+1}'s start fresh
        if born > n:
            self._append(born)
        if blk is None:
            self.base.update_rows(rows, x)
            self._rows[jt] = self._fresh
        else:
            self._j += 1
            if self._j == len(blk.xs):
                self._settle()
        self._jt = jt
        self.t = t + 1
        return StepRecord(t, x, float(prediction), float(step_loss), jt_period, wl.size, n, work, math.log(z), map_id)

    def _open(self, xs: np.ndarray) -> None:
        """Open a block for the next rounds, with outcomes ``xs``, if one holds at least two.

        A block holds the rounds ``_span`` gives, and ends before its first
        invalid outcome or prediction outside [pred_low, pred_high]: that
        round predicts from the rows, and raises.
        """
        t0, n0 = self.t, self.created
        size, m = self._span(t0, xs.size)
        if size < 2:
            return
        base, loss = self.base, self.loss
        xl = xs[:size].tolist()
        born, jt = self._births(np.arange(t0, t0 + size))

        # the rows' statistics at the start of each round, and after the last;
        # a row not open yet stays fresh, so it predicts as it will when born
        stats = np.empty((size + 1, m, self._rows.shape[1]))
        stats[0, :n0] = self._rows[:n0]
        stats[0, n0:] = base.init_rows(m - n0)
        fresh, b = self._fresh, n0
        for i, x in enumerate(xl):
            try:
                loss.validate_outcome(x)
            except ValueError:
                size = i
                break
            row = stats[i + 1]
            row[...] = stats[i]
            base.update_rows(row[:b], x)
            row[jt[i]] = fresh
            b = born[i]
        if size < 2:
            return
        preds = base.predict_rows(stats[:size].reshape(size * m, -1)).reshape(size, m)
        ok = ((preds >= loss.pred_low) & (preds <= loss.pred_high)).all(axis=1)  # written so that NaN fails
        if not ok.all():
            size = int(ok.argmin())
        if size < 2:
            return
        self._block = _Block(xl[:size], preds, stats)
        self._j = 0

    def _settle(self) -> None:
        """Close the open block: the rows take its statistics of the current round."""
        blk = self._block
        if blk is not None:
            n = self.created
            self._rows[:n] = blk.stats[self._j, :n]
            self._block = None

    def run(self, xs) -> Trace:
        """Feed a 1-d outcome sequence through ``step`` and collect the trace.

        Before a round that no block holds, ``run`` opens one for the
        rounds ahead, so ``step`` reads its predictions and shares.  The
        stored fields of each round's StepRecord are written into
        preallocated columns, so the trace holds the numbers ``step`` returns.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1:
            raise ValueError(f"outcome sequence must be 1-d, got shape {xs.shape}")
        if xs.size == 0:
            raise ValueError("empty outcome sequence")
        cols = [np.empty(xs.size, dtype=dt) for dt in _DTYPES]
        try:
            for i in range(xs.size):  # not xs.tolist(), which holds a float object per round
                if self._block is None and _block_rounds(self.created) >= 2:  # else no two rounds fit a block
                    self._open(xs[i:])
                rec = self.step(xs[i])
                for col, j in zip(cols, _STORED):
                    col[i] = rec[j]
        finally:
            self._settle()
        return Trace(self.scheme, self.mode, *cols, t0=self.t - xs.size)
