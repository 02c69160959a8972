"""Reset calendars: which learner copies exist and when they restart.

A copy is identified by its restart period and its start round.  A copy
with period p and start s is born at round s and restarts (wipes its
base-learner state) every p rounds after that; an infinite period means
it never restarts after birth.  Three calendars are provided:

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

INF = math.inf


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


def next_reset(t: int, spec: ExpertSpec) -> float:
    """First round strictly after ``t`` at which the copy restarts.

    Birth counts as a restart, so for an unborn copy this is its start
    round.  Never-restarting copies return inf once born.
    """
    if t < spec.start:
        return spec.start
    if spec.period is INF or math.isinf(spec.period):
        return INF
    p = int(spec.period)
    return t - runtime(t, spec) + p + 1


class LinScheme:
    """A fresh never-restarting copy every round."""

    tag = "lin"

    def births_at(self, t: int) -> list[ExpertSpec]:
        return [ExpertSpec(INF, t)]

    def resetting_at(self, t: int) -> list[ExpertSpec]:
        # Only the newborn is at runtime 1.
        return [ExpertSpec(INF, t)]

    def experts_through(self, T: int) -> list[ExpertSpec]:
        return [ExpertSpec(INF, s) for s in range(1, T + 1)]

    def expert_count(self, T: int) -> int:
        if T < 1:
            raise ValueError("horizon must be >= 1")
        return T

    def count_bound(self, T: int) -> float:
        return float(self.expert_count(T))


class LogScheme:
    """One copy per power-of-two period, restarting on its multiples."""

    tag = "log"

    def births_at(self, t: int) -> list[ExpertSpec]:
        if t >= 1 and (t & (t - 1)) == 0:
            return [ExpertSpec(t, t)]
        return []

    def resetting_at(self, t: int) -> list[ExpertSpec]:
        out = []
        p = 1
        while p <= t:
            if t % p == 0:
                out.append(ExpertSpec(p, p))
            p *= 2
        return out

    def experts_through(self, T: int) -> list[ExpertSpec]:
        out = []
        p = 1
        while p <= T:
            out.append(ExpertSpec(p, p))
            p *= 2
        return out

    def expert_count(self, T: int) -> int:
        if T < 1:
            raise ValueError("horizon must be >= 1")
        return T.bit_length()  # floor(log2 T) + 1

    def count_bound(self, T: int) -> float:
        return float(self.expert_count(T))


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
    def from_params(cls, a: float = 1.0, b: float = 0.5, c: float = 1.5, horizon: int = 2):
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
            while True:
                self._raw_n += 1
                f = self._raw_period(self.params, self._raw_n)
                if f > prev:
                    break
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
        self._births: dict[int, list[ExpertSpec]] = {}  # start -> copies born there
        self._tabled = 0  # rungs entered in the table

    def _rungs_reaching(self, t: int):
        """0-based rung indices whose starts can lie at or below ``t``."""
        self.ladder.extend_past(t)
        return range(len(self.ladder.periods))

    def births_at(self, t: int) -> list[ExpertSpec]:
        """Copies born at ``t``, sorted, read off a start -> births table.

        Rungs are append-only, so the table only takes in the rungs added
        since the ladder last extended; periods rise with the rung, so each
        entry stays sorted.  ``resetting_at`` keeps the scan.
        """
        rungs = self._rungs_reaching(t)
        if self._tabled < len(rungs):
            for i in rungs[self._tabled :]:
                p = self.ladder.periods[i]
                for s in self.ladder.rung_starts(i):
                    self._births.setdefault(s, []).append(ExpertSpec(p, s))
            self._tabled = len(rungs)
        return list(self._births.get(t, ()))

    def resetting_at(self, t: int) -> list[ExpertSpec]:
        out = []
        for i in self._rungs_reaching(t):
            p = self.ladder.periods[i]
            for s in self.ladder.rung_starts(i):
                if s <= t and (t - s) % p == 0:
                    out.append(ExpertSpec(p, s))
        out.sort()
        return out

    def experts_through(self, T: int) -> list[ExpertSpec]:
        out = []
        for i in self._rungs_reaching(T):
            p = self.ladder.periods[i]
            out.extend(ExpertSpec(p, s) for s in self.ladder.rung_starts(i) if s <= T)
        out.sort()
        return out

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


def make_scheme(tag: str, sub_a: float = 1.0, sub_b: float = 0.5, sub_c: float = 1.5, horizon: int = 2):
    """Build a calendar by tag; ladder parameters apply to ``sub`` only."""
    if tag == "lin":
        return LinScheme()
    if tag == "log":
        return LogScheme()
    if tag == "sub":
        return SubScheme(PeriodSequence.from_params(sub_a, sub_b, sub_c, horizon))
    raise ValueError(f"unknown scheme tag {tag!r}; expected one of {sorted(_SCHEMES)}")
