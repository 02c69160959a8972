"""Reset calendars: which learner copies exist and when they restart.

A copy is identified by its restart period and its start round.  A copy
with period p and start s is born at round s and restarts (wipes its
base-learner state) every p rounds after that; an infinite period means
it never restarts after birth.  A calendar states its copies once, in
``schedule(T)``: (period, start) int64 arrays of the copies born by round
T in creation order (start, then period), ``NEVER`` standing for an
infinite period.  ``births_at``, ``resetting_at`` and ``experts_through``
are written once over it.  Three calendars are provided:

``lin``
    One never-restarting copy born every round.  Largest pool, tightest
    tracking regret.
``log``
    One copy per power-of-two period p = 2^k, born at round p, restarting
    whenever p divides the round index.  Pool of size log2(T)+1.
``sub``
    A ladder of periods growing sub-exponentially.  Each ladder rung f_n
    is decomposed over the previous rung as f_n = q_n*f_{n-1} + r_n, and
    rung n contributes q_n copies with starts r_n + j*f_{n-1}, j=1..q_n,
    all of period f_n, cycling perpetually.  Pool size grows slower than
    any power of T while the per-segment overhead stays polylogarithmic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

INF = math.inf

# stored period of a never-restarting copy: it outranks every finite
# period, and age % NEVER == age for every reachable round
NEVER = np.iinfo(np.int64).max

# default (a, b, c) of the ``sub`` ladder f_n = floor(exp(a*exp(b*(log n)^c)))
SUB_PARAMS = (1.0, 0.5, 1.5)


class ExpertSpec(NamedTuple):
    """Identity of one learner copy: (restart period, start round)."""

    period: float  # positive integer, or math.inf for never-restarting
    start: int


def runtime(t: int, spec: ExpertSpec) -> int:
    """Rounds since the copy's most recent restart, counting this one.

    Equals 1 on birth and on every restart round.  Undefined before the
    copy is born.
    """
    if t < spec.start:
        raise ValueError(f"copy {spec} is not born at round {t}")
    if spec.period is INF or math.isinf(spec.period):
        return t - spec.start + 1
    return (t - spec.start) % int(spec.period) + 1


def specs(period: np.ndarray, start: np.ndarray) -> list[ExpertSpec]:
    """Schedule rows as ExpertSpecs of Python numbers; NEVER reads as inf."""
    return [ExpertSpec(INF if p == NEVER else p, s) for p, s in zip(period.tolist(), start.tolist())]


def _births_at(self, t: int) -> list[ExpertSpec]:
    """Copies born at round ``t``, by period."""
    period, start = self.schedule(t)
    i = start.searchsorted(t)
    return specs(period[i:], start[i:])


def _resetting_at(self, t: int) -> list[ExpertSpec]:
    """Copies at runtime 1 at round ``t`` (births included), by period then start."""
    period, start = self.schedule(t)
    hit = (t - start) % period == 0
    period, start = period[hit], start[hit]
    order = np.lexsort((start, period))
    return specs(period[order], start[order])


def _experts_through(self, T: int) -> list[ExpertSpec]:
    """Every copy born by round ``T``, in creation order."""
    return specs(*self.schedule(T))


def _exact_count_bound(self, T: int) -> float:
    """Cap on the pool size: the exact count, where it has a closed form."""
    return float(self.expert_count(T))


class LinScheme:
    """A fresh never-restarting copy every round."""

    tag = "lin"

    def schedule(self, T: int) -> tuple[np.ndarray, np.ndarray]:
        start = np.arange(1, max(T, 0) + 1, dtype=np.int64)
        return np.full(start.size, NEVER, dtype=np.int64), start

    births_at = _births_at
    resetting_at = _resetting_at
    experts_through = _experts_through

    def expert_count(self, T: int) -> int:
        if T < 1:
            raise ValueError("horizon must be >= 1")
        return T

    count_bound = _exact_count_bound


class LogScheme:
    """One copy per power-of-two period, restarting on its multiples."""

    tag = "log"

    def schedule(self, T: int) -> tuple[np.ndarray, np.ndarray]:
        p = 1 << np.arange(max(T, 0).bit_length(), dtype=np.int64)
        return p, p.copy()

    births_at = _births_at
    resetting_at = _resetting_at
    experts_through = _experts_through

    def expert_count(self, T: int) -> int:
        if T < 1:
            raise ValueError("horizon must be >= 1")
        return T.bit_length()  # floor(log2 T) + 1

    count_bound = _exact_count_bound


@dataclass
class PeriodSequence:
    """Strictly increasing period ladder with rung decompositions.

    ``periods[0]`` must be 1.  For i >= 1 the rung satisfies

        periods[i] = quotients[i] * periods[i-1] + offsets[i],
        quotients[i] >= 1,  0 <= offsets[i] <= periods[i-1].

    Index 0 of ``quotients``/``offsets`` is unused padding.  The offset
    may equal the previous period (this admits the period-doubling
    decomposition q=1, r=f_{n-1} alongside the plain floor division).
    Rung indices reported by :meth:`n_index` are 1-based.
    """

    periods: list[int]
    quotients: list[int]
    offsets: list[int]
    params: tuple[float, float, float] | None = None
    _raw_n: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        P, Q, R = self.periods, self.quotients, self.offsets
        if not P or P[0] != 1:
            raise ValueError("ladder must start with period 1")
        if not (len(P) == len(Q) == len(R)):
            raise ValueError("ladder arrays must be aligned")
        for i in range(1, len(P)):
            if P[i] <= P[i - 1]:
                raise ValueError("ladder periods must be strictly increasing")
            if Q[i] < 1 or not (0 <= R[i] <= P[i - 1]):
                raise ValueError(f"rung {i + 1} decomposition out of range")
            if Q[i] * P[i - 1] + R[i] != P[i]:
                raise ValueError(f"rung {i + 1} decomposition does not reproduce the period")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _raw_period(params, n: int) -> int:
        a, b, c = params
        return int(math.floor(math.exp(a * math.exp(b * math.log(n) ** c))))

    @classmethod
    def from_params(
        cls, a: float = SUB_PARAMS[0], b: float = SUB_PARAMS[1], c: float = SUB_PARAMS[2], horizon: int = 2
    ):
        """Ladder f_n = floor(exp(a*exp(b*(log n)^c))), deduplicated.

        Raw values that fail to increase are skipped.  Rungs are
        materialized until the last period reaches ``horizon``; the
        ladder keeps extending itself on demand afterwards.
        """
        if not (a > 0 and b > 0 and c >= 1):
            raise ValueError("require a > 0, b > 0, c >= 1")
        seq = cls([1], [0], [0], params=(a, b, c), _raw_n=1)
        seq.extend_past(max(horizon - 1, 1))
        return seq

    @classmethod
    def doubling(cls, horizon: int = 2):
        """Power-of-two ladder 1, 2, 4, ... with the q=1, r=f_{n-1} split.

        Under this decomposition each rung contributes the single start
        2^(n-1), reproducing the power-of-two calendar exactly.
        """
        seq = cls([1], [0], [0], params=None)
        seq.extend_past(max(horizon - 1, 1))
        return seq

    # -- growth ------------------------------------------------------------

    def _append_next(self) -> None:
        prev = self.periods[-1]
        if self.params is not None:
            def grows(n: int) -> bool:
                try:
                    return self._raw_period(self.params, n) > prev
                except OverflowError:
                    return True

            # raw f(n) never decreases in n, so the first n past _raw_n with
            # f(n) > prev is found by doubling a step, then by bisection
            n, step = self._raw_n, 1
            while not grows(n + step):
                n, step = n + step, 2 * step
            self._raw_n = n + 1 + bisect_left(range(n + 1, n + step + 1), True, key=grows)
            try:
                f = self._raw_period(self.params, self._raw_n)
            except OverflowError:
                raise ValueError(f"ladder parameters (a, b, c) = {self.params}: the period after {prev}, "
                                 f"f({self._raw_n}), overflows a float") from None
            q, r = divmod(f, prev)
        else:
            # Doubling rule; the offset equal to the previous period keeps
            # one start per rung.
            f, q, r = 2 * prev, 1, prev
        self.periods.append(f)
        self.quotients.append(q)
        self.offsets.append(r)

    def extend_past(self, t: int) -> None:
        """Grow the ladder until its last period exceeds ``t``."""
        while self.periods[-1] <= t:
            self._append_next()

    # -- queries -----------------------------------------------------------

    def n_index(self, t: int) -> int:
        """1-based index of the largest rung with period strictly below t."""
        if t <= 1:
            raise ValueError("rung index is undefined for t <= 1")
        self.extend_past(t - 1)
        return bisect_left(self.periods, t)

    def rung_starts(self, i: int) -> list[int]:
        """Start rounds contributed by 0-based rung ``i``."""
        if i == 0:
            return [1]
        prev = self.periods[i - 1]
        return [self.offsets[i] + j * prev for j in range(1, self.quotients[i] + 1)]


class SubScheme:
    """Calendar driven by a sub-exponentially growing period ladder."""

    tag = "sub"

    def __init__(self, ladder: PeriodSequence | None = None):
        self.ladder = ladder if ladder is not None else PeriodSequence.from_params()

    def schedule(self, T: int) -> tuple[np.ndarray, np.ndarray]:
        self.ladder.extend_past(T)
        P, Q, R = self.ladder.periods, self.ladder.quotients, self.ladder.offsets
        copies = [(1, 1)] if T >= 1 else []
        for i in range(1, len(P)):
            # rung i's starts R[i] + j*P[i-1], j = 1..Q[i], up to T
            copies += [(P[i], R[i] + j * P[i - 1]) for j in range(1, min(Q[i], (T - R[i]) // P[i - 1]) + 1)]
        period, start = np.array(copies, dtype=np.int64).reshape(-1, 2).T
        order = np.lexsort((period, start))
        return period[order], start[order]

    births_at = _births_at
    resetting_at = _resetting_at
    experts_through = _experts_through

    def expert_count(self, T: int) -> int:
        if T < 1:
            raise ValueError("horizon must be >= 1")
        self.ladder.extend_past(T)
        P, Q, R = self.ladder.periods, self.ladder.quotients, self.ladder.offsets
        total = 1  # the period-1 copy
        for i in range(1, len(P)):
            prev = P[i - 1]
            if R[i] + prev > T:
                continue
            total += min(Q[i], (T - R[i]) // prev)
        return total

    def count_bound(self, T: int) -> float:
        """Closed-form cap on the pool size: 1 + n_T * max quotient.

        No rung has a period below 1, so at T = 1 the cap is the exact
        count: the period-1 copy, plus rung 1's first copy when its offset
        is 0 and it is born at round 1 too.
        """
        if T < 1:
            raise ValueError("horizon must be >= 1")
        if T == 1:
            return float(self.expert_count(1))
        n_t = self.ladder.n_index(T)
        max_q = max(self.ladder.quotients[1 : n_t + 1])
        return float(1 + n_t * max_q)


_SCHEMES = {"lin", "log", "sub"}


def make_scheme(
    tag: str, sub_a: float = SUB_PARAMS[0], sub_b: float = SUB_PARAMS[1], sub_c: float = SUB_PARAMS[2], horizon: int = 2
):
    """Build a calendar by tag; ladder parameters apply to ``sub`` only."""
    if tag == "lin":
        return LinScheme()
    if tag == "log":
        return LogScheme()
    if tag == "sub":
        return SubScheme(PeriodSequence.from_params(sub_a, sub_b, sub_c, horizon))
    raise ValueError(f"unknown scheme tag {tag!r}; expected one of {sorted(_SCHEMES)}")
