"""Regret accounting against switching comparators, plus audit oracles.

The comparator class is a segmentation of the horizon with one constant
prediction per segment.  ``oracle_comparators`` picks the hindsight
optimum per segment, ``dynamic_regret`` differences the mixture's loss
against it, and ``switch_bound``/``nts_bound`` give the closed-form
caps on how many expert switches a calendar needs to shadow a given
segmentation.  ``path_oracle`` finds the admissible expert path of
least loss-plus-weight-cost in one pass over the rounds, at any
horizon, and checks the engine's loss against that certificate; it is
deliberately independent of the engine's internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mixture import Mixture, select_jt, transition_weight
from .schemes import SUB_PARAMS, runtime


@dataclass(frozen=True)
class Segmentation:
    """Horizon split into contiguous segments with one comparator each."""

    lengths: tuple
    thetas: tuple

    def __post_init__(self):
        if len(self.lengths) != len(self.thetas) or not self.lengths:
            raise ValueError("need one comparator per segment")
        if any(int(n) != n or n < 1 for n in self.lengths):
            raise ValueError("segment lengths must be positive integers")

    @property
    def horizon(self) -> int:
        return int(sum(self.lengths))

    @property
    def segment_count(self) -> int:
        return len(self.lengths)


def oracle_comparators(loss, xs, lengths) -> Segmentation:
    """Hindsight-optimal constant prediction for each segment."""
    xs = np.asarray(xs, dtype=float)
    if sum(lengths) != xs.size:
        raise ValueError("segment lengths must sum to the sequence length")
    thetas, pos = [], 0
    for n in lengths:
        thetas.append(loss.best_fixed(xs[pos : pos + n]))
        pos += n
    return Segmentation(tuple(int(n) for n in lengths), tuple(thetas))


def oracle_step_losses(loss, xs, seg: Segmentation) -> np.ndarray:
    """Per-round losses of the segmentation's comparators."""
    xs = np.asarray(xs, dtype=float)
    if seg.horizon != xs.size:
        raise ValueError("segmentation does not match the sequence length")
    out, pos = [], 0
    for n, theta in zip(seg.lengths, seg.thetas):
        out.append(loss.evaluate_pairs(np.full(n, theta), xs[pos : pos + n]))
        pos += n
    return np.concatenate(out)


@dataclass
class RegretReport:
    """Loss ledger of one run against one segmentation."""

    mixture_loss: float
    oracle_loss: float
    regret: float
    realized_segments: int
    segment_count: int
    switch_cap: Optional[float]
    created: int
    total_work: int

    def __str__(self):
        cap = "n/a" if self.switch_cap is None else f"{self.switch_cap:g}"
        return (
            f"regret {self.regret:.6f} = {self.mixture_loss:.6f} - {self.oracle_loss:.6f} "
            f"over {self.segment_count} segments "
            f"(realized leader segments {self.realized_segments}, switch cap {cap}, "
            f"pool {self.created}, work {self.total_work})"
        )


def dynamic_regret(trace, seg: Segmentation, loss, scheme=None) -> RegretReport:
    """Mixture loss minus the segmentation's oracle loss.

    The regret field is the exact difference of the two sums.  Passing
    the calendar adds its switch cap for the segmentation.
    """
    mix = float(np.sum(trace.step_losses))
    orc = float(np.sum(oracle_step_losses(loss, trace.outcomes, seg)))
    cap = None if scheme is None else float(switch_bound(scheme, seg.lengths))
    return RegretReport(
        mixture_loss=mix,
        oracle_loss=orc,
        regret=mix - orc,
        realized_segments=trace.realized_segments(),
        segment_count=seg.segment_count,
        switch_cap=cap,
        created=int(trace.created[-1]),
        total_work=trace.total_work,
    )


def switch_bound(scheme, lengths) -> int:
    """Cap on expert-path segments needed to shadow the segmentation.

    One per segment for the everything-restarts calendar; a doubling
    cover of each segment for the power-of-two calendar; one entry
    point plus a ladder climb per segment for the sub-exponential
    calendar, where a segment too short to climb (length <= 1)
    contributes only its entry point.
    """
    lengths = [int(n) for n in lengths]
    if any(n < 1 for n in lengths):
        raise ValueError("segment lengths must be positive")
    tag = scheme.tag
    if tag == "lin":
        return len(lengths)
    if tag == "log":
        return sum(n.bit_length() for n in lengths)
    if tag == "sub":
        total = len(lengths)
        for n in lengths:
            if n >= 2:
                total += scheme.ladder.n_index(n)
        return total
    raise ValueError(f"no switch cap for scheme {tag!r}")


def nts_bound(t: int, a: float = SUB_PARAMS[0], b: float = SUB_PARAMS[1], c: float = SUB_PARAMS[2]) -> Optional[float]:
    """Closed-form cap on the ladder index needed for a segment of length t.

    Inverts the ladder growth law at t+1.  Returns None when the cap is
    vacuous (t too small for the outer logarithm to be positive), which
    for the default parameters only happens at t <= 1.
    """
    if t < 1:
        raise ValueError("segment length must be >= 1")
    v = math.log(t + 1) / a
    if v <= 1.0:
        return None
    return math.exp((math.log(v) / b) ** (1.0 / c))


@dataclass
class PathOracleReport:
    """Tightest path certificate of one run."""

    horizon: int
    n_paths: int
    mixture_loss: float
    best_bound: float
    best_path: list
    best_path_loss: float
    best_weight_cost: float
    best_segments: int
    satisfied: bool
    slack: float


def path_oracle(scheme, loss, base, xs, tol: float = 1e-9) -> PathOracleReport:
    """Check the engine against the tightest admissible expert path.

    An admissible path starts on a round-1 copy and at each round either
    stays on its copy (if that copy is not restarting) or moves to the
    designated restarter.  Each path certifies the bound

        mixture loss <= path loss + (path weight cost) / mixability,

    where the weight cost is -log of the initial weight times the
    product of transition shares along the path.  Paths that meet on a
    copy share every later round, so a pass over the rounds keeps, for
    each reachable copy, the path into it of least partial bound and the
    number of paths into it.  The report records the tightest
    certificate and whether the engine satisfies it within ``tol``.
    Path predictions are recomputed from each restart round with the
    learner's ``predictions``, independently of the engine's rows.
    """
    xs = np.asarray(xs, dtype=float)
    T = int(xs.size)
    if T < 1:
        raise ValueError("path check needs at least one round")

    mix_loss = float(np.sum(Mixture(scheme, loss, base, mode="eager").run(xs).step_losses))
    alpha = loss.mixability
    jts = [select_jt(scheme, t) for t in range(1, T + 1)]
    # a path reaches a copy at runtime 1 only on round 1 or as J_t; losses[r][u - 1] is
    # the loss at runtime u of the copy restarted on round r + 1, until it restarts again
    spans = [xs[r : r + min(jt.period, T)] for r, jt in enumerate(jts)]
    losses = [loss.evaluate_pairs(base.predictions(span), span) for span in spans]

    births = sorted(scheme.births_at(1))
    # per reachable copy: its tightest path's loss and weight cost, the number
    # of paths into it, and that path as a back-link (copy, earlier link)
    front = {spec: (0.0, math.log(len(births)), 1, None) for spec in births}
    for t in range(1, T + 1):
        for spec, (path_loss, cost, count, link) in front.items():
            u = runtime(t, spec)
            front[spec] = (path_loss + float(losses[t - u][u - 1]), cost, count, (spec, link))
        if t == T:
            break
        jt = jts[t]
        ahead: dict = {}
        for spec, (path_loss, cost, count, link) in front.items():
            u = runtime(t + 1, spec)  # source runtime at the destination round
            for dest in (jt,) if spec == jt else (jt, spec):
                share = transition_weight(u, runtime(t + 1, dest), dest == spec, dest == jt)
                if share == 0.0:
                    continue
                cost_here = cost - math.log(share)
                kept = ahead.get(dest)
                if kept is None:
                    ahead[dest] = (path_loss, cost_here, count, link)
                elif path_loss + cost_here / alpha < kept[0] + kept[1] / alpha:
                    ahead[dest] = (path_loss, cost_here, count + kept[2], link)
                else:
                    ahead[dest] = (kept[0], kept[1], kept[2] + count, kept[3])
        front = ahead

    path_loss, cost, _, link = min(front.values(), key=lambda s: s[0] + s[1] / alpha)
    bound = path_loss + cost / alpha
    path = []
    while link is not None:
        spec, link = link
        path.append(spec)
    path.reverse()
    segments = 1 + sum(1 for a, b in zip(path, path[1:]) if a != b)
    return PathOracleReport(
        horizon=T,
        n_paths=sum(count for _, _, count, _ in front.values()),
        mixture_loss=mix_loss,
        best_bound=bound,
        best_path=path,
        best_path_loss=path_loss,
        best_weight_cost=cost,
        best_segments=segments,
        satisfied=bool(mix_loss <= bound + tol),
        slack=bound - mix_loss,
    )


@dataclass
class ComplexityAudit:
    """Pool-size accounting for one trace; ``RegretReport`` carries the created count and the work."""

    count_cap: float
    created_within_cap: bool


def complexity_audit(trace, scheme) -> ComplexityAudit:
    """Check created-copy counts against the closed-form cap."""
    cap = float(scheme.count_bound(trace.horizon))
    return ComplexityAudit(count_cap=cap, created_within_cap=int(trace.created[-1]) <= cap)
