import math

import numpy as np
import pytest

from helpers import next_reset
from mixtrack.schemes import (
    INF,
    ExpertSpec,
    LinScheme,
    LogScheme,
    PeriodSequence,
    SubScheme,
    make_scheme,
    runtime,
)

# leading terms of the default restart ladder, locked by direct evaluation of
# floor(exp(a * exp(b * log(n) ** c))) at a = 1.0, b = 0.5, c = 1.5
LADDER_HEAD = [1, 3, 5, 9, 16, 27, 48, 88, 163, 310, 602, 1198, 2437, 5064, 10755, 23333]


class TestRuntime:
    def test_periodic_wraps(self):
        spec = ExpertSpec(4.0, 2)
        ages = [runtime(t, spec) for t in range(2, 12)]
        assert ages == [1, 2, 3, 4, 1, 2, 3, 4, 1, 2]

    def test_infinite_never_resets(self):
        spec = ExpertSpec(INF, 3)
        assert runtime(3, spec) == 1
        assert runtime(1000, spec) == 998

    def test_unborn_rejected(self):
        with pytest.raises(ValueError):
            runtime(1, ExpertSpec(4.0, 2))

    def test_next_reset(self):
        spec = ExpertSpec(4.0, 2)
        assert next_reset(1, spec) == 2      # first activation counts as a reset
        assert next_reset(2, spec) == 6
        assert next_reset(5, spec) == 6
        assert next_reset(6, spec) == 10
        assert next_reset(10, ExpertSpec(INF, 3)) == INF


class TestLinScheme:
    def setup_method(self):
        self.sch = LinScheme()

    def test_one_birth_per_round(self):
        for t in (1, 2, 17, 100):
            assert self.sch.births_at(t) == [ExpertSpec(INF, t)]

    def test_only_newborn_resets(self):
        assert self.sch.resetting_at(5) == [ExpertSpec(INF, 5)]

    def test_expert_count_linear(self):
        for T in (1, 2, 64, 200):
            assert self.sch.expert_count(T) == T
            assert len(self.sch.experts_through(T)) == T
            assert self.sch.expert_count(T) <= self.sch.count_bound(T)


class TestLogScheme:
    def setup_method(self):
        self.sch = LogScheme()

    def test_births_on_powers_of_two(self):
        born = [t for t in range(1, 65) if self.sch.births_at(t)]
        assert born == [1, 2, 4, 8, 16, 32, 64]
        assert self.sch.births_at(8) == [ExpertSpec(8.0, 8)]

    def test_reset_on_divisibility(self):
        # at t = 12 the period-4, period-2, and period-1 copies all reset
        periods = sorted(s.period for s in self.sch.resetting_at(12))
        assert periods == [1.0, 2.0, 4.0]

    def test_expert_count_is_bit_length(self):
        for T in (1, 2, 3, 4, 63, 64, 1000, 1024):
            assert self.sch.expert_count(T) == T.bit_length()
            assert len(self.sch.experts_through(T)) == T.bit_length()
            assert self.sch.expert_count(T) <= self.sch.count_bound(T)


class TestPeriodSequence:
    def test_default_ladder_head(self):
        seq = PeriodSequence.from_params(horizon=30_000)
        assert list(seq.periods[: len(LADDER_HEAD)]) == LADDER_HEAD
        assert seq.periods[8] == 163

    def test_decomposition_of_early_rungs(self):
        seq = PeriodSequence.from_params(horizon=100)
        got = [(seq.quotients[i], seq.offsets[i]) for i in range(1, 6)]
        assert got == [(3, 0), (1, 2), (1, 4), (1, 7), (1, 11)]

    def test_rung_starts(self):
        seq = PeriodSequence.from_params(horizon=100)
        assert seq.rung_starts(0) == [1]
        assert seq.rung_starts(1) == [1, 2, 3]   # period 3 = 3*1 + 0
        assert seq.rung_starts(2) == [5]         # period 5 = 1*3 + 2
        assert seq.rung_starts(3) == [9]         # period 9 = 1*5 + 4
        assert seq.rung_starts(4) == [16]
        assert seq.rung_starts(5) == [27]

    def test_n_index_frozen_values(self):
        seq = PeriodSequence.from_params(horizon=100)
        assert seq.n_index(2) == 1
        assert seq.n_index(10) == 4
        assert seq.n_index(16) == 4
        assert seq.n_index(17) == 5
        assert seq.n_index(10_000) == 14

    def test_n_index_rejects_degenerate_lengths(self):
        seq = PeriodSequence.doubling(16)
        with pytest.raises(ValueError):
            seq.n_index(1)

    def test_extends_on_demand(self):
        seq = PeriodSequence.from_params(horizon=10)
        assert seq.n_index(10_000) == 14
        assert seq.periods[14] >= 10_000

    def test_doubling_ladder(self):
        seq = PeriodSequence.doubling(1024)
        assert list(seq.periods[:11]) == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        assert all(q == 1 for q in seq.quotients[1:])
        assert all(seq.offsets[i] == seq.periods[i - 1] for i in range(1, len(seq.periods)))

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodSequence([2], [0], [0])                  # head must be 1
        with pytest.raises(ValueError):
            PeriodSequence([1, 1], [0, 1], [0, 0])         # not increasing
        with pytest.raises(ValueError):
            PeriodSequence([1, 3], [0, 2], [0, 2])         # 2*1+2 = 4 != 3
        with pytest.raises(ValueError):
            PeriodSequence([1, 4], [0, 2], [0, 2])         # r=2 > f_1=1

    def test_slowly_growing_ladder_builds_at_once(self):
        # raw f(n) = floor(exp(0.25 * n**0.1)) first exceeds 64 near n = 1.7e12
        params = (0.25, 0.1, 1.0)
        seq = PeriodSequence.from_params(*params, horizon=65)
        assert seq.periods == list(range(1, 66))
        n = seq._raw_n
        assert PeriodSequence._raw_period(params, n) == 65
        assert PeriodSequence._raw_period(params, n - 1) == 64

    def test_search_skips_probes_past_the_float_range(self):
        # f(2) = 1, f(3) = 4 745 372 and f(4) overflows a float; the search for
        # rung 2 probes n = 4 before it bisects back to n = 3
        params = (0.15, 3.3, 3.6)
        with pytest.raises(OverflowError):
            PeriodSequence._raw_period(params, 4)
        seq = PeriodSequence.from_params(*params, horizon=8)
        assert seq.periods == [1, 4745372]
        assert seq._raw_n == 3

    def test_period_past_the_float_range_is_a_value_error(self):
        # f(2) = floor(exp(2**50)) overflows, so no second rung can be built
        with pytest.raises(ValueError, match=r"^ladder parameters \(a, b, c\) = \(1, 50, 1\): .* f\(2\), overflows"):
            PeriodSequence.from_params(1, 50, 1)

    @pytest.mark.parametrize("params", [(1.0, 0.5, 1.5), (0.8, 0.7, 1.2), (1.2, 0.4, 1.0), (3.0, 1.5, 2.5)])
    def test_ladder_matches_stepwise_scan(self, params):
        periods, raw, n = [1], [1], 1
        while periods[-1] <= 2**12:
            n += 1
            f = PeriodSequence._raw_period(params, n)
            if f > periods[-1]:
                periods.append(f)
                raw.append(n)
        seq = PeriodSequence.from_params(*params, horizon=2**12 + 1)
        assert seq.periods == periods
        assert seq._raw_n == raw[-1]

    def test_from_params_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PeriodSequence.from_params(-1.0, 0.5, 1.5, horizon=10)
        with pytest.raises(ValueError):
            PeriodSequence.from_params(1.0, 0.5, 0.5, horizon=10)


class TestSubScheme:
    def setup_method(self):
        self.sch = SubScheme(PeriodSequence.from_params(horizon=5_000))

    def test_count_spot_value(self):
        assert self.sch.expert_count(17) == 7
        assert self.sch.count_bound(17) == 16
        assert self.sch.expert_count(17) <= 16

    def test_count_matches_enumeration(self):
        for T in (2, 3, 5, 17, 100, 321, 1024):
            assert self.sch.expert_count(T) == len(self.sch.experts_through(T))
            assert self.sch.expert_count(T) <= self.sch.count_bound(T)

    def test_bound_tight_at_small_horizon(self):
        assert self.sch.expert_count(3) == 4
        assert self.sch.count_bound(3) == 4

    def test_resets_agree_with_runtime_arithmetic(self):
        # dual route: a copy resets at t iff its next_reset from t-1 lands on t
        for t in range(2, 120):
            from_blocks = {(s.period, s.start) for s in self.sch.resetting_at(t)}
            live = [s for s in self.sch.experts_through(t) if s.start < t]
            from_ages = {(s.period, s.start) for s in live if next_reset(t - 1, s) == t}
            newborn = {(s.period, s.start) for s in self.sch.births_at(t)}
            assert from_blocks == from_ages | newborn

    def test_coverage_window(self):
        # past every t >= f_n there is a period-f_n reset within 2*f_{n-1} rounds
        seq = self.sch.ladder
        for i in (1, 2, 3, 4):
            fn, fprev = seq.periods[i], seq.periods[i - 1]
            for t in range(fn, fn + 200, 7):
                hits = [
                    u
                    for u in range(t, t + 2 * fprev + 1)
                    for s in self.sch.resetting_at(u)
                    if s.period == float(fn)
                ]
                assert hits, (i, t)

    def test_density_ratio_non_increasing(self):
        vals = []
        for k in range(6, 21):
            T = 2**k
            vals.append(self.sch.expert_count(T) / math.sqrt(T))
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_doubling_reproduces_log_calendar(self):
        dbl = SubScheme(PeriodSequence.doubling(2048))
        log = LogScheme()
        for t in range(1, 1025):
            assert sorted(dbl.births_at(t)) == sorted(log.births_at(t))
            assert sorted(dbl.resetting_at(t)) == sorted(log.resetting_at(t))

    def test_bound_at_one_round(self):
        # the period-1 copy and rung 1's first copy (offset 0) are both born at round 1
        assert self.sch.expert_count(1) == len(self.sch.births_at(1)) == 2
        assert self.sch.count_bound(1) == 2
        assert SubScheme(PeriodSequence.doubling()).count_bound(1) == 1
        with pytest.raises(ValueError):
            self.sch.count_bound(0)

    @pytest.mark.parametrize(
        "ladder",
        [lambda: PeriodSequence.from_params(), lambda: PeriodSequence.from_params(0.8, 0.7, 1.2),
         lambda: PeriodSequence.from_params(1.2, 0.4, 1.0), lambda: PeriodSequence.doubling()],
        ids=["default", "steep", "flat", "doubling"],
    )
    def test_births_table_matches_rescan(self, ladder):
        # the ladder starts short and extends while births are read
        sch, lad = SubScheme(ladder()), ladder()
        for t in range(1, 2**12 + 1):
            lad.extend_past(t)
            want = sorted(
                ExpertSpec(lad.periods[i], s) for i in range(len(lad.periods)) for s in lad.rung_starts(i) if s == t
            )
            assert sch.births_at(t) == want


class TestMakeScheme:
    def test_tags(self):
        assert isinstance(make_scheme("lin"), LinScheme)
        assert isinstance(make_scheme("log"), LogScheme)
        sub = make_scheme("sub", horizon=100)
        assert isinstance(sub, SubScheme)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            make_scheme("quadratic")
