"""Independent reference for checking mixtrack's outputs.

Nothing here imports mixtrack.  The calendars, the two shipped learners,
the losses and the input streams are rewritten from their definitions:

* ``lin``: one never-restarting copy born every round; the round's
  designated restarter J_t is the newborn.
* ``log``: copy (p, p) for every power of two p, restarting on multiples
  of p; J_t is the copy of period t & -t.
* ``sub``: the ladder f_n = floor(exp(a*exp(b*(log n)^c))) for n = 2, 3, ...
  with non-increasing values skipped, after f_0 = 1; rung i splits as
  f_i = q_i*f_{i-1} + r_i and holds q_i copies of period f_i with starts
  r_i + j*f_{i-1}, j = 1..q_i.  J_t is the restarting copy of largest
  period, then earliest start.

``path_sum`` runs the forward recursion over admissible copy paths: a
path starts on a round-1 copy (prior 1/k), and from round t to t+1 a copy
whose runtime at t+1 is u moves to J_{t+1} with share 1/u or stays with
share (u-1)/u (a restarting copy, u = 1, cannot stay).  It returns
-(1/alpha) log sum_paths prior * exp(-alpha * path loss), which equals the
mixture's total loss under mean substitution (bernoulli log loss) and
bounds it from above for any mixable loss (square loss).
``enumerate_path_sum`` computes the same quantity path by path, for
checking the recursion at tiny horizons.
"""

from __future__ import annotations

import math

import numpy as np

BERNOULLI_MARGIN = 1e-6
SUB_PARAMS = (1.0, 0.5, 1.5)

LOSSES = {
    # name: (mixability, prediction low, prediction high, learner)
    "bernoulli": (1.0, BERNOULLI_MARGIN, 1.0 - BERNOULLI_MARGIN, "kt"),
    "square": (0.5, -1.0, 1.0, "running-mean"),
}


# -- calendars ----------------------------------------------------------------


def sub_ladder(T: int, a: float = 1.0, b: float = 0.5, c: float = 1.5):
    """Periods, quotients and offsets of the ladder until a period exceeds T."""
    periods, quotients, offsets = [1], [0], [0]
    n = 1
    while periods[-1] <= T:
        n += 1
        f = int(math.floor(math.exp(a * math.exp(b * math.log(n) ** c))))
        if f <= periods[-1]:
            continue
        q, r = divmod(f, periods[-1])
        periods.append(f)
        quotients.append(q)
        offsets.append(r)
    return periods, quotients, offsets


class Calendar:
    """Every copy born by round T, as (period, start) arrays sorted by start.

    Period 0 stands for "never restarts".
    """

    def __init__(self, tag: str, T: int):
        if tag == "lin":
            copies = [(0, s) for s in range(1, T + 1)]
        elif tag == "log":
            copies = [(1 << k, 1 << k) for k in range(T.bit_length())]
        elif tag == "sub":
            P, Q, R = sub_ladder(T, *SUB_PARAMS)
            copies = [(1, 1)]
            for i in range(1, len(P)):
                copies += [(P[i], R[i] + j * P[i - 1]) for j in range(1, Q[i] + 1) if R[i] + j * P[i - 1] <= T]
        else:
            raise ValueError(f"unknown calendar {tag!r}")
        copies.sort(key=lambda c: (c[1], c[0]))
        self.period = np.array([p for p, _ in copies], dtype=np.int64)
        self.start = np.array([s for _, s in copies], dtype=np.int64)
        # born[t] = number of copies with start <= t
        self.born = np.searchsorted(self.start, np.arange(T + 2), side="right")

    def jt_period(self, j: int) -> float:
        p = int(self.period[j])
        return math.inf if p == 0 else float(p)


def created_count(tag: str, T: int) -> int:
    """Closed-form number of copies born by round T."""
    if tag == "lin":
        return T
    if tag == "log":
        return T.bit_length()
    P, Q, R = sub_ladder(T, *SUB_PARAMS)
    return 1 + sum(min(Q[i], (T - R[i]) // P[i - 1]) for i in range(1, len(P)) if R[i] + P[i - 1] <= T)


# -- learners and losses ------------------------------------------------------


def learner_predict(name: str, acc: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Prediction from a copy's outcome sum and count since its last restart."""
    if name == "kt":
        return np.clip((acc + 0.5) / (cnt + 1.0), BERNOULLI_MARGIN, 1.0 - BERNOULLI_MARGIN)
    if name == "running-mean":
        return np.clip(acc / np.maximum(cnt, 1.0), -1.0, 1.0)
    raise ValueError(name)


def loss_values(loss: str, theta, x):
    """Loss of predictions ``theta`` on outcomes ``x`` (broadcast)."""
    theta = np.asarray(theta, dtype=float)
    if loss == "bernoulli":
        return np.where(np.asarray(x) == 1.0, -np.log(theta), -np.log1p(-theta))
    return (theta - x) ** 2


def segment_lengths(T: int, count: int) -> list:
    n = T // count
    return [n] * (count - 1) + [T - n * (count - 1)]


def make_stream(stream: str, T: int, seed: int, count: int, params, sigma: float = 0.25) -> np.ndarray:
    """Piecewise-constant stream: S near-equal segments cycling through params."""
    rng = np.random.default_rng(seed)
    parts = []
    for i, n in enumerate(segment_lengths(T, count)):
        p = float(params[i % len(params)])
        if stream == "piecewise-bernoulli":
            parts.append((rng.random(n) < p).astype(float))
        elif stream == "piecewise-gaussian-clipped":
            parts.append(np.clip(rng.normal(p, sigma, n), -1.0, 1.0))
        else:
            raise ValueError(stream)
    return np.concatenate(parts)


def oracle_steps(loss: str, xs: np.ndarray, count: int) -> np.ndarray:
    """Per-round loss of the best constant prediction on each segment."""
    _, lo, hi, _ = LOSSES[loss]
    out, pos = [], 0
    for n in segment_lengths(xs.size, count):
        seg = xs[pos : pos + n]
        theta = float(np.clip(np.mean(seg), lo, hi))
        out.append(loss_values(loss, np.full(n, theta), seg))
        pos += n
    return np.concatenate(out)


def restart_oracle_loss(loss: str, xs: np.ndarray, count: int) -> float:
    """Loss of one learner restarted fresh at every segment start."""
    learner = LOSSES[loss][3]
    total, pos = 0.0, 0
    for n in segment_lengths(xs.size, count):
        seg = xs[pos : pos + n]
        acc = np.concatenate(([0.0], np.cumsum(seg)))[:n]
        preds = learner_predict(learner, acc, np.arange(n, dtype=float))
        total += math.fsum(loss_values(loss, preds, seg))
        pos += n
    return total


# -- path sums ----------------------------------------------------------------


def _logsumexp(v: np.ndarray) -> float:
    m = float(v.max())
    if m == -math.inf:
        return m
    return m + math.log(float(np.exp(v - m).sum()))


def path_sum(tag: str, loss: str, xs) -> dict:
    """Forward recursion over admissible paths, plus the per-round pool shape.

    Returns ``bound`` = -(1/alpha) log sum_paths prior*exp(-alpha*loss) and,
    per round t, the number of copies born (``created``), the number with
    mass (``live``) and the period of J_t (``jt_period``).  Runtimes,
    learner predictions and losses are built for a block of rounds at a
    time, so the sequential part is a few array operations per round.
    """
    xs = np.asarray(xs, dtype=float)
    T = xs.size
    alpha, _, _, learner = LOSSES[loss]
    cal = Calendar(tag, T + 1)
    N = int(cal.born[T + 1])
    csum = np.concatenate(([0.0], np.cumsum(xs)))
    key = np.where(cal.period == 0, np.iinfo(np.int64).max, cal.period)
    lv = np.full(N, -math.inf)
    k = int(cal.born[1])
    lv[:k] = -math.log(k)
    offset = 0.0
    live = np.empty(T, dtype=np.int64)
    jt_period = np.empty(T)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_all = np.arange(T + 2, dtype=float)
        log_tab = np.log(u_all)  # share 1/u taken to J
        stay_tab = np.log1p(-1.0 / u_all)  # share (u-1)/u kept; -inf for u = 1
    log_tab[0] = math.inf  # runtime 0 marks an unborn copy: it sends
    stay_tab[0] = -math.inf  # and keeps nothing
    fin = cal.period > 0
    block = max(16, min(4096, 2**19 // N))
    with np.errstate(divide="ignore", invalid="ignore"):
        for t0 in range(1, T + 1, block):
            ts = np.arange(t0, min(t0 + block, T + 1) + 1)  # rounds t0..t_end+1
            n = int(cal.born[ts[-1]])
            age = ts[:, None] - cal.start[None, :n]
            u = np.maximum(age + 1, 0)  # runtime; 0 while not born
            f = fin[:n]
            if f.any():
                u[:, f] = np.where(age[:, f] < 0, 0, age[:, f] % cal.period[:n][f] + 1)
            acc = csum[ts - 1][:, None] - csum[ts[:, None] - u]  # outcomes since the last restart
            x_rows = xs[np.minimum(ts, T) - 1][:, None]
            losses = alpha * loss_values(loss, learner_predict(learner, acc, u - 1.0), x_rows)
            inv_log = log_tab[u]
            stay = stay_tab[u]
            jt = np.argmax(np.where(u == 1, key[None, :n], -1), axis=1)  # ties: earliest start
            for i, t in enumerate(ts[:-1].tolist()):
                v = lv[:n]
                live[t - 1] = np.count_nonzero(v > -math.inf)
                if t == 1:
                    jt_period[0] = cal.jt_period(int(jt[0]))
                v -= losses[i]
                if t == T:
                    break
                inflow = _logsumexp(v - inv_log[i + 1])
                v += stay[i + 1]
                j = int(jt[i + 1])
                jt_period[t] = cal.jt_period(j)
                v[j] = inflow
                m = float(v.max())
                v -= m
                offset += m
    log_z = offset + _logsumexp(lv)
    return {"bound": -log_z / alpha, "created": cal.born[1 : T + 1].copy(), "live": live, "jt_period": jt_period}


def enumerate_path_sum(tag: str, loss: str, xs) -> float:
    """The same bound as ``path_sum``, summed path by path (tiny T only)."""
    xs = [float(x) for x in xs]
    T = len(xs)
    if T > 12:
        raise ValueError("path enumeration is exponential; keep T <= 12")
    alpha, _, _, learner = LOSSES[loss]
    cal = Calendar(tag, T + 1)
    copies = list(zip(cal.period.tolist(), cal.start.tolist()))

    def runtime(c, t):
        p, s = c
        return t - s + 1 if p == 0 else (t - s) % p + 1

    def prediction(c, t):
        u = runtime(c, t)
        seen = xs[t - u : t - 1]
        return float(learner_predict(learner, np.array([math.fsum(seen)]), np.array([float(len(seen))]))[0])

    def designated(t):
        resetting = [c for c in copies if c[1] <= t and runtime(c, t) == 1]
        return max(resetting, key=lambda c: (math.inf if c[0] == 0 else c[0], -c[1]))

    terms = []

    def extend(t, c, log_w):
        log_w -= alpha * float(loss_values(loss, prediction(c, t), xs[t - 1]))
        if t == T:
            terms.append(log_w)
            return
        u = runtime(c, t + 1)
        j = designated(t + 1)
        extend(t + 1, j, log_w + math.log(1.0 / u))
        if u != 1 and c != j:
            extend(t + 1, c, log_w + math.log((u - 1.0) / u))

    first = [c for c in copies if c[1] == 1]
    for c in first:
        extend(1, c, -math.log(len(first)))
    return -_logsumexp(np.array(terms)) / alpha
