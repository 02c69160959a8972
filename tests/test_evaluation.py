import math
import zlib

import numpy as np
import pytest

from helpers import EXHAUSTIVE_MAX_T, default_base_name, exhaustive_path_oracle
from mixtrack.base import make_base, restart_loss
from mixtrack.evaluation import (
    Segmentation,
    complexity_audit,
    dynamic_regret,
    nts_bound,
    oracle_comparators,
    oracle_step_losses,
    path_oracle,
    switch_bound,
)
from mixtrack.losses import make_loss
from mixtrack.mixture import Mixture, Trace, select_jt, transition_weight
from mixtrack.schemes import make_scheme, runtime

NTS_AT_1E4 = 14.904636935798449


def run_mixture(scheme_tag, loss_name, xs, horizon=None):
    scheme = make_scheme(scheme_tag, horizon=horizon or len(xs) + 1)
    loss = make_loss(loss_name)
    base = make_base(default_base_name(loss_name))
    return Mixture(scheme, loss, base).run(xs), scheme, loss, base


class TestSegmentation:
    def test_starts(self):
        seg = Segmentation((3, 5, 2), (0.0, 1.0, -1.0))
        assert seg.horizon == 10
        assert seg.segment_count == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Segmentation((3, 5), (0.0,))
        with pytest.raises(ValueError):
            Segmentation((), ())
        with pytest.raises(ValueError):
            Segmentation((3, 0), (0.0, 1.0))


class TestOracleComparators:
    def test_square_uses_clipped_means(self):
        loss = make_loss("square")
        xs = np.array([0.5, 0.7, -0.2, -0.4, -0.6])
        seg = oracle_comparators(loss, xs, [2, 3])
        assert seg.thetas[0] == pytest.approx(0.6, abs=1e-15)
        assert seg.thetas[1] == pytest.approx(-0.4, abs=1e-15)

    def test_bernoulli_clamps_to_margin(self):
        loss = make_loss("bernoulli")
        seg = oracle_comparators(loss, np.ones(8), [8])
        assert seg.thetas[0] == pytest.approx(1.0 - 1e-6, abs=1e-18)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            oracle_comparators(make_loss("square"), np.zeros(5), [2, 2])


class TestDynamicRegret:
    def test_matches_fsum_recomputation(self):
        xs = np.random.default_rng(14).uniform(-1, 1, 200)
        trace, scheme, loss, _ = run_mixture("log", "square", xs)
        seg = oracle_comparators(loss, xs, [50, 150])
        report = dynamic_regret(trace, seg, loss, scheme)
        naive = math.fsum(trace.step_losses) - math.fsum(oracle_step_losses(loss, xs, seg))
        assert abs(report.regret - naive) <= 1e-9
        assert report.switch_cap == switch_bound(scheme, seg.lengths)
        assert "regret" in str(report)

    def test_zero_regret_when_predictions_match_comparators(self):
        loss = make_loss("square")
        rng = np.random.default_rng(15)
        xs = rng.uniform(-1, 1, 8)
        seg = Segmentation((3, 5), (0.25, -0.5))
        preds = np.concatenate([np.full(3, 0.25), np.full(5, -0.5)])
        step_losses = loss.evaluate_pairs(preds, xs)
        trace = Trace(
            scheme=make_scheme("lin"),
            mode="eager",
            outcomes=xs,
            predictions=preds,
            step_losses=step_losses,
            live=np.arange(1, 9),
            drifts=np.zeros(8),
            map_ids=np.zeros(8, dtype=np.int64),
        )
        report = dynamic_regret(trace, seg, loss)
        assert report.regret == 0.0
        assert report.switch_cap is None


class TestSwitchBound:
    def test_lin_counts_segments(self):
        assert switch_bound(make_scheme("lin"), [10, 20, 30]) == 3

    def test_log_counts_doubling_covers(self):
        sch = make_scheme("log")
        assert switch_bound(sch, [100]) == 7         # bit_length(100)
        assert switch_bound(sch, [1, 1, 1]) == 3
        assert switch_bound(sch, [64, 64]) == 14

    def test_sub_counts_entry_plus_ladder_climb(self):
        sch = make_scheme("sub", horizon=64)
        assert switch_bound(sch, [17, 3]) == 2 + 5 + 1
        assert switch_bound(sch, [1, 1, 1]) == 3     # too short to climb

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            switch_bound(make_scheme("lin"), [3, 0])


class TestNtsBound:
    def test_frozen_values(self):
        assert nts_bound(10) == pytest.approx(4.270557, abs=1e-6)
        assert nts_bound(100) == pytest.approx(8.224509, abs=1e-6)
        assert nts_bound(1000) == pytest.approx(11.740774, abs=1e-6)
        assert nts_bound(10_000) == pytest.approx(NTS_AT_1E4, abs=1e-12)
        assert nts_bound(100_000) == pytest.approx(17.810217, abs=1e-6)

    def test_vacuous_cases(self):
        assert nts_bound(1) is None
        assert nts_bound(5, a=2.0) is None
        with pytest.raises(ValueError):
            nts_bound(0)

    def test_dominates_ladder_index(self):
        sch = make_scheme("sub", horizon=64)
        for t in (2, 10, 17, 100, 1000, 10_000, 100_000):
            cap = nts_bound(t)
            assert cap is not None
            assert sch.ladder.n_index(t) <= cap


def path_terms(scheme, loss, base, xs, path):
    """Loss and weight cost of one admissible path, summed in round order as the oracles sum them."""
    births = sorted(scheme.births_at(1))
    assert len(path) == len(xs) and path[0] in births
    path_loss, cost = 0.0, math.log(len(births))
    for t, spec in enumerate(path, start=1):
        u = runtime(t, spec)
        path_loss += loss.evaluate(float(base.predictions(xs[t - u : t])[-1]), float(xs[t - 1]))
        if t < len(path):
            dest = path[t]
            share = transition_weight(runtime(t + 1, spec), runtime(t + 1, dest), dest == spec,
                                      dest == select_jt(scheme, t + 1))
            assert share > 0.0, (t, spec, dest)
            cost -= math.log(share)
    return path_loss, cost


class TestPathOracle:
    @pytest.mark.parametrize("scheme_tag", ["lin", "log", "sub"])
    @pytest.mark.parametrize("loss_name", ["square", "bernoulli"])
    @pytest.mark.parametrize("T", [1, 4, 6, 64, 256])
    def test_certificate_holds(self, scheme_tag, loss_name, T):
        rng = np.random.default_rng(100 * T + len(scheme_tag))
        if loss_name == "bernoulli":
            xs = (rng.random(T) < 0.5).astype(float)
        else:
            xs = rng.uniform(-1, 1, T)
        scheme = make_scheme(scheme_tag, horizon=16)
        loss = make_loss(loss_name)
        base = make_base(default_base_name(loss_name))
        rep = path_oracle(scheme, loss, base, xs)
        assert rep.satisfied
        assert rep.best_bound == pytest.approx(
            rep.best_path_loss + rep.best_weight_cost / loss.mixability, abs=1e-12
        )
        assert rep.n_paths >= 1
        assert 1 <= rep.best_segments <= T

    def test_single_round_single_copy_is_tight(self):
        # one copy, no aggregation cost: the certificate binds with zero slack
        rep = path_oracle(
            make_scheme("lin"), make_loss("bernoulli"), make_base("kt"), np.array([1.0])
        )
        assert rep.slack == 0.0

    def test_horizon_limits(self):
        scheme, loss, base = make_scheme("lin"), make_loss("square"), make_base("running-mean")
        with pytest.raises(ValueError):
            path_oracle(scheme, loss, base, np.zeros(0))

    @pytest.mark.parametrize("scheme_tag", ["lin", "log", "sub"])
    @pytest.mark.parametrize("loss_name", ["square", "bernoulli"])
    def test_matches_exhaustive_reference(self, scheme_tag, loss_name):
        # the A3 instances, extended to the reference's largest horizon
        loss = make_loss(loss_name)
        base = make_base(default_base_name(loss_name))
        for T in range(1, EXHAUSTIVE_MAX_T + 1):
            for i in range(10):
                rng = np.random.default_rng(zlib.crc32(repr((scheme_tag, loss_name, T, i)).encode()))
                xs = (rng.random(T) < 0.5).astype(float) if loss_name == "bernoulli" else rng.uniform(-1, 1, T)
                scheme = make_scheme(scheme_tag, horizon=8)
                got, ref = path_oracle(scheme, loss, base, xs), exhaustive_path_oracle(scheme, loss, base, xs)
                case = (T, i)
                assert (got.horizon, got.n_paths, got.satisfied) == (ref.horizon, ref.n_paths, ref.satisfied), case
                assert got.mixture_loss == ref.mixture_loss, case
                assert abs(got.best_bound - ref.best_bound) <= 1e-15 * abs(ref.best_bound), case
                # the kept path is admissible with the reported terms; where it is not the
                # reference's path, the two bounds tie (on bernoulli `sub`, round-1 copies predict alike)
                terms = (got.best_path_loss, got.best_weight_cost)
                assert path_terms(scheme, loss, base, xs, got.best_path) == terms, case
                if got.best_path == ref.best_path:
                    assert terms + (got.best_segments,) == (
                        ref.best_path_loss, ref.best_weight_cost, ref.best_segments), case


class TestComplexityAudit:
    @pytest.mark.parametrize("scheme_tag", ["lin", "log", "sub"])
    def test_counts_and_work_within_caps(self, scheme_tag):
        xs = np.random.default_rng(16).uniform(-1, 1, 256)
        trace, scheme, loss, _ = run_mixture(scheme_tag, "square", xs)
        audit = complexity_audit(trace, scheme)
        assert audit.created_within_cap
        assert (trace.work <= trace.created).all()
        if scheme_tag == "lin":
            assert dynamic_regret(trace, oracle_comparators(loss, xs, [256]), loss).created == 256


class TestRestartOracle:
    def test_restarted_learner_cannot_beat_segment_oracle(self):
        loss, base = make_loss("square"), make_base("running-mean")
        rng = np.random.default_rng(17)
        xs = np.concatenate([rng.uniform(0.2, 1, 60), rng.uniform(-1, -0.2, 40)])
        lengths = [60, 40]
        restarted = restart_loss(base, loss, xs, lengths)
        seg = oracle_comparators(loss, xs, lengths)
        oracle = float(np.sum(oracle_step_losses(loss, xs, seg)))
        assert restarted >= oracle - 1e-9
        print(f"restarted learner {restarted:.4f} vs segment oracle {oracle:.4f}")
