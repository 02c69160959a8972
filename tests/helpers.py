"""Shared test utilities, chiefly two independent references.

The dense reference engine keeps weights in a plain dict, builds the
full transition kernel from ``transition_weight`` every round, and
steps each copy as its own one-row learner state from ``init_rows(1)``.
It shares no array bookkeeping with the production engine, so agreement
between the two is meaningful.  The exhaustive path oracle walks every
admissible expert path, the reference for ``path_oracle``'s pass over
the rounds.  ``next_reset`` is the runtime-arithmetic reference for a
calendar's restart rounds, and ``live_walk`` the flag-by-flag reference
for the live copies the engine reads off its compiled calendar.
"""

import math

import numpy as np

from mixtrack.evaluation import PathOracleReport
from mixtrack.mixture import Mixture, select_jt, transition_weight
from mixtrack.schemes import ExpertSpec, runtime

EXHAUSTIVE_MAX_T = 8


def active_dispatch():
    """numpy's SIMD dispatch targets that this process runs on, in numpy's order."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def cpu_fingerprint():
    """What numpy's float kernels depend on: its version and its active dispatch targets."""
    return f"numpy {np.__version__}, dispatch {' '.join(active_dispatch()) or '(baseline only)'}"


def default_base_name(loss_name):
    return {"bernoulli": "kt", "square": "running-mean"}[loss_name]


def next_reset(t: int, spec: ExpertSpec) -> float:
    """First round strictly after ``t`` at which the copy restarts.

    Birth counts as a restart, so for an unborn copy this is its start
    round.  Never-restarting copies return inf once born.  A reference
    for the calendars' ``resetting_at``, by runtime arithmetic.
    """
    if t < spec.start:
        return spec.start
    if math.isinf(spec.period):
        return math.inf
    return t - runtime(t, spec) + int(spec.period) + 1


def live_walk(scheme, T: int) -> list:
    """The set of live copies at each round 1..T, walked one flag per copy from the definition.

    Every copy born at round 1 starts live.  At each later round, a copy
    at runtime 1 there (born or restarting) is live exactly when it is
    ``select_jt``; every other copy keeps its flag.
    """
    flags = {spec: True for spec in scheme.births_at(1)}
    walk = [{spec for spec, live in flags.items() if live}]
    for t in range(2, T + 1):
        jt = select_jt(scheme, t)
        for spec in scheme.resetting_at(t):
            flags[spec] = spec == jt
        walk.append({spec for spec, live in flags.items() if live})
    return walk


class ConstantBase:
    """Minimal custom learner: it names its loss family but has no row methods."""

    name = "always-half"
    loss_family = "bernoulli"


def dense_run(scheme, loss, base, xs, order="forward"):
    """Reference simulation; returns (predictions, step losses).

    ``order`` controls the iteration order of the live set when the
    prediction is assembled, to exercise permutation robustness.
    """
    T = len(xs)
    births = sorted(scheme.births_at(1))
    w = {sp: 1.0 / len(births) for sp in births}
    states = {sp: base.init_rows(1) for sp in births}
    preds_out, loss_out = [], []
    for t in range(1, T + 1):
        x = float(xs[t - 1])
        live = [sp for sp in sorted(w, key=lambda s: (s.start, s.period)) if w[sp] > 0]
        if order == "reversed":
            live = live[::-1]
        th = np.array([base.predict_rows(states[sp])[0] for sp in live])
        pw = np.array([w[sp] for sp in live])
        pw = pw / pw.sum()
        pred = loss.substitute(th, pw)
        preds_out.append(pred)
        loss_out.append(loss.evaluate(pred, x))
        for sp in live:
            w[sp] *= math.exp(-loss.mixability * loss.evaluate(base.predict_rows(states[sp])[0], x))

        t1 = t + 1
        for sp in sorted(scheme.births_at(t1)):
            if sp not in w:
                w[sp] = 0.0
                states[sp] = base.init_rows(1)
        jt = select_jt(scheme, t1)
        new_w = {}
        for tgt in w:
            if t1 < tgt.start:
                new_w[tgt] = 0.0
                continue
            u_tgt = runtime(t1, tgt)
            inflow = 0.0
            for src in w:
                if src.start > t or w[src] == 0.0:
                    continue
                u_src = runtime(t1, src)
                inflow += w[src] * transition_weight(u_src, u_tgt, src == tgt, tgt == jt)
            new_w[tgt] = inflow
        for sp in list(states):
            if t1 >= sp.start and runtime(t1, sp) == 1:
                states[sp] = base.init_rows(1)
            elif sp.start <= t:
                base.update_rows(states[sp], x)
        z = sum(new_w.values())
        w = {sp: v / z for sp, v in new_w.items()}
    return np.array(preds_out), np.array(loss_out)


def exhaustive_path_oracle(scheme, loss, base, xs, tol: float = 1e-9) -> PathOracleReport:
    """Check the engine against every admissible expert path, one by one.

    The exhaustive reference for ``path_oracle``: it walks every path,
    so its cost grows exponentially in T.

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
    if not (1 <= T <= EXHAUSTIVE_MAX_T):
        raise ValueError(f"exhaustive path check supports 1 <= T <= {EXHAUSTIVE_MAX_T}")

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
