"""Shared test utilities, chiefly an independent dense reference engine.

The reference keeps weights in a plain dict, builds the full transition
kernel from ``transition_weight`` every round, and steps each copy as
its own one-row learner state from ``init_rows(1)``.  It shares no array
bookkeeping with the production engine, so agreement between the two is
meaningful.
"""

import math

import numpy as np

from mixtrack.mixture import select_jt, transition_weight
from mixtrack.schemes import runtime


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
