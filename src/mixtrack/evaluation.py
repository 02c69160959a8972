"""Regret accounting against switching comparators, plus audit oracles.

The comparator class is a segmentation of the horizon with one constant
prediction per segment.  ``oracle_comparators`` picks the hindsight
optimum per segment, ``dynamic_regret`` differences the mixture's loss
against it, and ``switch_bound``/``nts_bound`` give the closed-form
caps on how many expert switches a calendar needs to shadow a given
segmentation.  ``path_oracle`` brute-forces every admissible expert
path on tiny horizons and checks the engine's loss against the best
path's loss-plus-weight-cost certificate; it is deliberately
independent of the engine's internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mixture import Mixture, select_jt
from .schemes import ExpertSpec, runtime

PATH_ORACLE_MAX_T = 8


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

    @property
    def starts(self) -> tuple:
        """1-based first round of each segment."""
        out, pos = [], 1
        for n in self.lengths:
            out.append(pos)
            pos += int(n)
        return tuple(out)


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


def nts_bound(t: int, a: float = 1.0, b: float = 0.5, c: float = 1.5) -> Optional[float]:
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
    """Exhaustive certificate check on a tiny horizon."""

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
    """Check the engine against every admissible expert path.

    An admissible path starts on a round-1 copy and at each round either
    stays on its copy (if that copy is not restarting) or moves to the
    designated restarter.  Each path certifies the bound

        mixture loss <= path loss + (path weight cost) / mixability,

    where the weight cost is -log of the initial weight times the
    product of transition shares along the path.  The report records the
    tightest certificate and whether the engine satisfies it within
    ``tol``.  Path predictions are recomputed from each restart with the
    learner's ``predictions``, independently of the engine's rows.
    """
    xs = np.asarray(xs, dtype=float)
    T = int(xs.size)
    if not (1 <= T <= PATH_ORACLE_MAX_T):
        raise ValueError(f"exhaustive path check supports 1 <= T <= {PATH_ORACLE_MAX_T}")

    mix_loss = float(np.sum(Mixture(scheme, loss, base, mode="eager").run(xs).step_losses))
    alpha = loss.mixability

    theta_cache: dict = {}

    def theta(spec: ExpertSpec, t: int) -> float:
        key = (spec, t)
        if key not in theta_cache:
            # a copy at runtime u has seen the u - 1 outcomes before round t
            u = runtime(t, spec)
            theta_cache[key] = float(base.predictions(xs[t - u : t])[-1])
        return theta_cache[key]

    births = sorted(scheme.births_at(1))
    init_cost = math.log(len(births))
    jts = {t: select_jt(scheme, t) for t in range(2, T + 1)}

    best = {"bound": math.inf}
    n_paths = 0

    def extend(t: int, spec: ExpertSpec, loss_acc: float, cost_acc: float, path: list):
        nonlocal n_paths
        loss_here = loss_acc + loss.evaluate(theta(spec, t), float(xs[t - 1]))
        if t == T:
            n_paths += 1
            bound = loss_here + cost_acc / alpha
            if bound < best["bound"]:
                best.update(
                    bound=bound,
                    path=path + [spec],
                    loss=loss_here,
                    cost=cost_acc,
                )
            return
        t1 = t + 1
        u = runtime(t1, spec)  # source runtime at the destination round
        jt = jts[t1]
        extend(t1, jt, loss_here, cost_acc - math.log(1.0 / u), path + [spec])
        if u != 1 and spec != jt:
            extend(t1, spec, loss_here, cost_acc - math.log((u - 1.0) / u), path + [spec])

    for spec in births:
        extend(1, spec, 0.0, init_cost, [])

    path = best["path"]
    segments = 1 + sum(1 for a, b in zip(path, path[1:]) if a != b)
    slack = float(best["bound"] - mix_loss)
    return PathOracleReport(
        horizon=T,
        n_paths=n_paths,
        mixture_loss=mix_loss,
        best_bound=float(best["bound"]),
        best_path=path,
        best_path_loss=float(best["loss"]),
        best_weight_cost=float(best["cost"]),
        best_segments=segments,
        satisfied=bool(mix_loss <= best["bound"] + tol),
        slack=slack,
    )


@dataclass
class ComplexityAudit:
    """Pool-size and work accounting for one trace."""

    created: int
    count_cap: float
    created_within_cap: bool
    total_work: int
    work_within_pool: bool


def complexity_audit(trace, scheme) -> ComplexityAudit:
    """Check created-copy counts against the closed-form cap.

    Also verifies that no round touched more rows than the calendar had
    created by that round.
    """
    T = trace.horizon
    created = int(trace.created[-1])
    cap = float(scheme.count_bound(T))
    return ComplexityAudit(
        created=created,
        count_cap=cap,
        created_within_cap=created <= cap,
        total_work=trace.total_work,
        work_within_pool=bool(np.all(trace.work <= trace.created)),
    )
