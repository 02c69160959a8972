"""Acceptance gate: one test per shipped guarantee, with pinned tolerances.

Each test prints a single summary line with the measured margins so a
log scan shows how much headroom every guarantee has.  Budgets on wall
clock are asserted where the guarantee includes one.
"""

import math
import time
import zlib
from fractions import Fraction

import numpy as np

from helpers import default_base_name
from mixtrack.base import make_base, static_regret
from mixtrack.evaluation import nts_bound, path_oracle
from mixtrack.harness import ExperimentConfig, run_experiment
from mixtrack.losses import ExpConcaveLoss, make_loss, mixability_slack
from mixtrack.mixture import Mixture, select_jt, transition_weight
from mixtrack.schemes import LogScheme, PeriodSequence, SubScheme, make_scheme, runtime

ALL_SCHEMES = ("lin", "log", "sub")


def bits(rng, n, p=0.5):
    return (rng.random(n) < p).astype(float)


def test_a1_mixability_inequality_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    n_draws = 10_000

    square = make_loss("square")
    worst_sq = math.inf
    for _ in range(n_draws):
        k = int(rng.integers(1, 9))
        thetas = rng.uniform(-1, 1, k)
        weights = rng.dirichlet(np.ones(k))
        x = float(rng.uniform(-1, 1))
        worst_sq = min(worst_sq, mixability_slack(square, thetas, weights, x))
    assert worst_sq >= -1e-9

    bern = make_loss("bernoulli")
    worst_abs_b = 0.0
    for _ in range(n_draws):
        k = int(rng.integers(1, 9))
        thetas = rng.uniform(1e-6, 1 - 1e-6, k)
        weights = rng.dirichlet(np.ones(k))
        x = float(rng.integers(0, 2))
        worst_abs_b = max(worst_abs_b, abs(mixability_slack(bern, thetas, weights, x)))
    assert worst_abs_b <= 1e-12

    custom = ExpConcaveLoss(
        "scaled-square", 0.125, lambda th, x: 0.25 * (th - x) ** 2, -1.0, 1.0
    )
    worst_c = math.inf
    for _ in range(n_draws):
        k = int(rng.integers(1, 9))
        thetas = rng.uniform(-1, 1, k)
        weights = rng.dirichlet(np.ones(k))
        x = float(rng.uniform(-1, 1))
        worst_c = min(worst_c, mixability_slack(custom, thetas, weights, x))
    assert worst_c >= -1e-9

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(
        f"[A1] mixability inequality suite: PASS "
        f"(square min slack {worst_sq:.3e}, bernoulli max |slack| {worst_abs_b:.3e}, "
        f"custom min slack {worst_c:.3e}, {elapsed:.2f}s < 5s)"
    )


def test_a2_base_learner_log_regret():
    t0 = time.monotonic()

    kt, bern = make_base("kt"), make_loss("bernoulli")
    worst_gap = -math.inf
    for T in (100, 1_000, 10_000):
        bound = 0.5 * math.log(T) + 1.0
        corner = [
            np.ones(T),
            np.zeros(T),
            (np.arange(T) % 2).astype(float),
            np.concatenate([[1.0], np.zeros(T - 1)]),
        ]
        rng = np.random.default_rng(200 + T)
        random = [bits(rng, T, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        for xs in corner + random:
            reg = static_regret(kt, bern, xs)
            worst_gap = max(worst_gap, reg - bound)
            assert reg <= bound

    rm, sq = make_base("running-mean"), make_loss("square")
    seeds = range(20)
    ratios = []
    for s in seeds:
        xs = np.random.default_rng(s).uniform(-1, 1, 1_000)
        ratios.append(static_regret(rm, sq, xs) / math.log(1_000))
    C = float(np.mean(ratios))
    cap = 1.5 * C * math.log(100_000)
    worst_large = -math.inf
    for s in seeds:
        xs = np.random.default_rng(10_000 + s).uniform(-1, 1, 100_000)
        reg = static_regret(rm, sq, xs)
        worst_large = max(worst_large, reg)
        assert reg <= cap

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        f"[A2] base learner log regret: PASS "
        f"(kt worst margin {worst_gap:.4f} below bound, running-mean C={C:.4f}, "
        f"worst regret(1e5) {worst_large:.4f} <= {cap:.4f}, {elapsed:.2f}s < 30s)"
    )


def test_a3_exhaustive_path_certificates():
    t0 = time.monotonic()
    n_checked = 0
    worst_slack = math.inf
    for tag in ALL_SCHEMES:
        for loss_name in ("square", "bernoulli"):
            loss = make_loss(loss_name)
            base = make_base(default_base_name(loss_name))
            for T in range(1, 7):
                for i in range(10):
                    # crc32, not hash(): str hashes are salted per process
                    rng = np.random.default_rng(zlib.crc32(repr((tag, loss_name, T, i)).encode()))
                    xs = bits(rng, T) if loss_name == "bernoulli" else rng.uniform(-1, 1, T)
                    rep = path_oracle(make_scheme(tag, horizon=8), loss, base, xs, tol=1e-9)
                    assert rep.satisfied, (tag, loss_name, T, i, rep.slack)
                    worst_slack = min(worst_slack, rep.slack)
                    n_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"[A3] exhaustive path certificates: PASS "
        f"({n_checked} instances, min certificate slack {worst_slack:.3e} >= -1e-9, "
        f"{elapsed:.2f}s < 60s)"
    )


def test_a4_pool_size_accounting():
    lin = make_scheme("lin")
    for T in range(1, 201):
        assert lin.expert_count(T) == T

    log = make_scheme("log")
    for T in range(1, 4097):
        assert log.expert_count(T) == T.bit_length()

    sub = make_scheme("sub", horizon=4096)
    for T in range(2, 4097):
        count = sub.expert_count(T)
        assert count == len(sub.experts_through(T))
        assert count <= sub.count_bound(T)
    assert sub.expert_count(17) == 7
    assert sub.count_bound(17) == 16

    print(
        "[A4] pool size accounting: PASS "
        f"(lin T..200 exact, log T..4096 exact, sub T..4096 within cap; "
        f"count(17)={sub.expert_count(17)} <= {sub.count_bound(17):.0f})"
    )


def test_a5_transition_rule_invariants():
    T = 2**10
    worst_post = 0.0
    worst_float = 0.0
    for tag in ALL_SCHEMES:
        mix = Mixture(
            make_scheme(tag, horizon=T + 1), make_loss("bernoulli"), make_base("kt"), mode="eager"
        )
        xs = bits(np.random.default_rng(500 + len(tag)), T)
        checked_u = {}
        for t in range(1, T + 1):
            live_runtimes = set()
            for spec, _eid, logw, _u in mix.live_table():
                if logw > -math.inf:
                    live_runtimes.add(runtime(t + 1, spec))
            for u in live_runtimes:
                if u not in checked_u:
                    assert Fraction(u - 1, u) + Fraction(1, u) == 1
                    stay = transition_weight(u, u, True, False) if u > 1 else 0.0
                    jump = transition_weight(u, 1, False, True)
                    gap = abs(stay + jump - 1.0)
                    assert gap <= 2.0**-52
                    checked_u[u] = gap
                worst_float = max(worst_float, checked_u[u])
            worst_post = max(worst_post, abs(sum(mix.posterior().values()) - 1.0))
            assert worst_post <= 1e-12
            mix.step(float(xs[t - 1]))
            for spec, _eid, logw, u in mix.live_table():
                if u == 1 and spec != mix.jt:
                    assert logw == -math.inf
    print(
        "[A5] transition rule invariants: PASS "
        f"(share sums exact as rationals, float gap <= {worst_float:.3e} <= 2^-52, "
        f"posterior sum error <= {worst_post:.3e} <= 1e-12, reset non-designated rows massless)"
    )


def test_a6_lazy_eager_agreement():
    T = 2**12
    for tag in ALL_SCHEMES:
        for seed in range(5):
            xs = bits(np.random.default_rng(600 + seed), T)
            loss = make_loss("bernoulli")
            m_e = Mixture(make_scheme(tag, horizon=T + 1), loss, make_base("kt"), mode="eager")
            m_l = Mixture(make_scheme(tag, horizon=T + 1), loss, make_base("kt"), mode="lazy")
            assert m_e.jt == m_l.jt
            for x in xs:
                r_e = m_e.step(float(x))
                r_l = m_l.step(float(x))
                assert np.array_equal([r_e.prediction, r_e.step_loss], [r_l.prediction, r_l.step_loss])
                assert m_e.jt == m_l.jt
    print(
        "[A6] lazy/eager agreement: PASS "
        f"(3 schemes x 5 seeds at T=2^12, predictions and step losses bitwise equal, "
        f"identical restarter streams)"
    )


def test_a7_tracking_regret_scaling():
    t0 = time.monotonic()
    S = 4

    def normalizer(tag, T):
        ell = math.log(T / S)
        if tag == "lin":
            return S * ell
        if tag == "log":
            return S * ell * ell
        return S * ell * nts_bound(T // S)

    means = {}
    for tag in ALL_SCHEMES:
        for T in (2**10, 2**14):
            vals = []
            for seed in range(20):
                cfg = ExperimentConfig(
                    scheme=tag,
                    loss="bernoulli",
                    horizon=T,
                    seed=seed,
                    segments={"count": S, "params": [0.1, 0.9]},
                )
                summary, _ = run_experiment(cfg, write_files=False)
                vals.append(summary["results"]["regret"] / normalizer(tag, T))
            means[tag, T] = float(np.mean(vals))

    ratios = {tag: means[tag, 2**14] / means[tag, 2**10] for tag in ALL_SCHEMES}
    for tag in ALL_SCHEMES:
        assert ratios[tag] <= 1.25, (tag, ratios[tag])
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(
        "[A7] tracking regret scaling: PASS "
        f"(normalized-regret ratios 2^14 vs 2^10: lin {ratios['lin']:.4f}, "
        f"log {ratios['log']:.4f}, sub {ratios['sub']:.4f}, all <= 1.25; {elapsed:.1f}s < 300s)"
    )


def test_a8_doubling_ladder_reproduces_log_calendar():
    T = 2**10
    sub = SubScheme(PeriodSequence.doubling(2 * T))
    log = LogScheme()
    for t in range(1, T + 1):
        assert sorted(sub.births_at(t)) == sorted(log.births_at(t))
        assert sorted(sub.resetting_at(t)) == sorted(log.resetting_at(t))
        assert select_jt(sub, t) == select_jt(log, t)

    xs = bits(np.random.default_rng(800), T)
    loss = make_loss("bernoulli")
    tr_s = Mixture(sub, loss, make_base("kt"), mode="eager").run(xs)
    tr_l = Mixture(log, loss, make_base("kt"), mode="eager").run(xs)
    assert np.array_equal(tr_s.predictions, tr_l.predictions)
    assert np.array_equal(tr_s.step_losses, tr_l.step_losses)
    assert np.array_equal(tr_s.jt_periods, tr_l.jt_periods)
    assert np.array_equal(tr_s.live, tr_l.live)
    assert np.array_equal(tr_s.created, tr_l.created)
    assert np.array_equal(tr_s.work, tr_l.work)
    print(
        "[A8] doubling ladder degenerates to the power-of-two calendar: PASS "
        f"(births, resets, restarter choice, and all T=2^10 trace columns bitwise equal)"
    )


def test_a9_work_ordering():
    T = 2**14
    xs = bits(np.random.default_rng(900), T)
    loss = make_loss("bernoulli")
    work = {}
    for tag in ALL_SCHEMES:
        trace = Mixture(make_scheme(tag, horizon=T + 1), loss, make_base("kt"), mode="eager").run(xs)
        work[tag] = trace.total_work
    assert work["log"] < work["sub"] < work["lin"]
    expected_lin = T * (T + 1) // 2
    rel = abs(work["lin"] - expected_lin) / expected_lin
    assert rel <= 0.02
    print(
        "[A9] work ordering: PASS "
        f"(log {work['log']} < sub {work['sub']} < lin {work['lin']}; "
        f"lin within {rel:.2%} of T(T+1)/2)"
    )
