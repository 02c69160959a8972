import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixtrack.evaluation import oracle_comparators, oracle_step_losses
from mixtrack.harness import (
    CSV_CHUNK_ROWS,
    SWEEP_HEADER,
    ExperimentConfig,
    generate_stream,
    main,
    run_experiment,
    sweep,
    trace_csv,
)
from mixtrack.losses import make_loss

CSV_HEADER = "t,outcome,prediction,step_loss,cum_loss,oracle_cum_loss,regret,jt_period,live_experts,created_experts"


class TestExperimentConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"scheme": "lin", "temperature": 0.7})

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="diagonal")

    def test_bad_stream_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(stream="white-noise")

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(horizon=0)

    def test_explicit_segments_must_sum_to_horizon(self):
        cfg = ExperimentConfig(horizon=10, segments=[[4, 0.1], [5, 0.9]])
        with pytest.raises(ValueError):
            cfg.resolved_segments()

    def test_pattern_split_is_near_equal(self):
        cfg = ExperimentConfig(horizon=10, segments={"count": 4, "params": [0.1, 0.9]})
        segs = cfg.resolved_segments()
        assert [n for n, _ in segs] == [2, 2, 2, 4]
        assert [p for _, p in segs] == [0.1, 0.9, 0.1, 0.9]

    def test_default_single_neutral_segment(self):
        cfg = ExperimentConfig(horizon=8)
        assert cfg.resolved_segments() == [(8, 0.5)]
        gauss = ExperimentConfig(horizon=8, loss="square", stream="piecewise-gaussian-clipped")
        assert gauss.resolved_segments() == [(8, 0.0)]

    def test_run_name(self):
        assert ExperimentConfig(label="probe").run_name() == "probe"
        assert "lin_bernoulli_T1024_seed0" == ExperimentConfig().run_name()


class TestGenerateStream:
    def test_deterministic_in_seed(self):
        cfg = ExperimentConfig(horizon=500, seed=42, segments={"count": 3, "params": [0.2, 0.8]})
        assert np.array_equal(generate_stream(cfg), generate_stream(cfg))
        other = ExperimentConfig(horizon=500, seed=43, segments={"count": 3, "params": [0.2, 0.8]})
        assert not np.array_equal(generate_stream(cfg), generate_stream(other))

    def test_bernoulli_values_are_bits(self):
        xs = generate_stream(ExperimentConfig(horizon=300, seed=1))
        assert set(np.unique(xs)) <= {0.0, 1.0}
        assert xs.size == 300

    def test_gaussian_is_clipped(self):
        cfg = ExperimentConfig(
            horizon=2000, seed=2, loss="square", stream="piecewise-gaussian-clipped",
            segments=[[2000, 0.9]], sigma=1.0,
        )
        xs = generate_stream(cfg)
        assert np.all(xs <= 1.0) and np.all(xs >= -1.0)
        assert np.any(xs == 1.0)  # sigma 1 at mean 0.9 certainly hits the clip

    def test_alternating_is_deterministic_pattern(self):
        cfg = ExperimentConfig(
            horizon=6, loss="bernoulli", stream="adversarial-alternating", segments=[[6, 0.9]]
        )
        assert generate_stream(cfg).tolist() == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        sq = ExperimentConfig(
            horizon=4, loss="square", stream="adversarial-alternating", segments=[[4, 0.7]]
        )
        assert generate_stream(sq).tolist() == [0.7, -0.7, 0.7, -0.7]

    def test_rate_validation(self):
        cfg = ExperimentConfig(horizon=4, segments=[[4, 1.5]])
        with pytest.raises(ValueError):
            generate_stream(cfg)


class TestRunExperiment:
    def make_config(self, tmp_path, **kw):
        defaults = dict(
            scheme="log",
            loss="bernoulli",
            horizon=64,
            seed=5,
            segments={"count": 2, "params": [0.15, 0.85]},
            out_dir=str(tmp_path),
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_csv_layout(self, tmp_path):
        cfg = self.make_config(tmp_path)
        summary, trace = run_experiment(cfg)
        with open(summary["files"]["csv"]) as f:
            lines = f.read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + cfg.horizon
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) in (0.0, 1.0)

    def test_csv_numbers_are_consistent(self, tmp_path):
        cfg = self.make_config(tmp_path)
        summary, trace = run_experiment(cfg)
        with open(summary["files"]["csv"]) as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        cum = [float(r[4]) for r in rows]
        ocum = [float(r[5]) for r in rows]
        regret = [float(r[6]) for r in rows]
        steps = [float(r[3]) for r in rows]
        assert cum[-1] == pytest.approx(sum(steps), rel=1e-12)
        for c, o, g in zip(cum, ocum, regret):
            assert g == pytest.approx(c - o, abs=1e-12)
        assert summary["results"]["regret"] == pytest.approx(regret[-1], abs=1e-9)

    def test_streamed_csv_matches_row_by_row_rendering(self, tmp_path):
        # reference: the whole file joined from one formatted line per round
        T = 2 * CSV_CHUNK_ROWS + 5
        cfg = self.make_config(tmp_path, scheme="sub", loss="square", horizon=T,
                               stream="piecewise-gaussian-clipped", segments={"count": 3, "params": [-0.5, 0.5]})
        summary, trace = run_experiment(cfg)
        xs = generate_stream(cfg)
        loss = make_loss("square")
        seg = oracle_comparators(loss, xs, [n for n, _ in cfg.resolved_segments()])
        cum, ocum = np.cumsum(trace.step_losses), np.cumsum(oracle_step_losses(loss, xs, seg))
        lines = [CSV_HEADER] + [
            ",".join([str(int(trace.ts[i]))]
                     + [repr(float(v)) for v in (trace.outcomes[i], trace.predictions[i], trace.step_losses[i],
                                                 cum[i], ocum[i], cum[i] - ocum[i], trace.jt_periods[i])]
                     + [str(int(trace.live[i])), str(int(trace.created[i]))])
            for i in range(T)
        ]
        want = "\n".join(lines) + "\n"
        assert Path(summary["files"]["csv"]).read_text() == want
        assert trace_csv(trace, oracle_step_losses(loss, xs, seg)) == want

    def test_horizon_one_on_every_calendar(self, tmp_path):
        for scheme in ("lin", "log", "sub"):
            summary, _ = run_experiment(self.make_config(tmp_path, scheme=scheme, horizon=1, segments=None))
            assert summary["results"]["created_within_cap"]
            assert summary["results"]["horizon"] == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self.make_config(tmp_path)
        summary, _ = run_experiment(cfg)
        with open(summary["files"]["csv"], "rb") as f:
            first_csv = f.read()
        with open(summary["files"]["json"], "rb") as f:
            first_json = f.read()
        summary2, _ = run_experiment(cfg)
        with open(summary2["files"]["csv"], "rb") as f:
            assert f.read() == first_csv
        with open(summary2["files"]["json"], "rb") as f:
            assert f.read() == first_json

    def test_lin_prints_inf_period(self, tmp_path):
        cfg = self.make_config(tmp_path, scheme="lin", horizon=16)
        summary, _ = run_experiment(cfg)
        with open(summary["files"]["csv"]) as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        assert all(r[7] == "inf" for r in rows)

    def test_both_mode_reports_zero_divergence(self, tmp_path):
        cfg = self.make_config(tmp_path, mode="both", scheme="sub")
        summary, _ = run_experiment(cfg)
        assert summary["results"]["lazy_eager_divergence"] == 0.0

    def test_summary_shape(self, tmp_path):
        cfg = self.make_config(tmp_path)
        summary, trace = run_experiment(cfg)
        res = summary["results"]
        assert res["horizon"] == 64
        assert res["segments"] == 2
        assert res["created_within_cap"] is True
        assert res["restart_oracle_regret"] == pytest.approx(
            res["restart_oracle_loss"] - res["oracle_loss"], abs=1e-12
        )
        with open(summary["files"]["json"]) as f:
            on_disk = json.load(f)
        assert on_disk["results"]["regret"] == res["regret"]

    def test_no_files_without_out_dir(self):
        cfg = ExperimentConfig(scheme="lin", horizon=32, seed=0)
        summary, _ = run_experiment(cfg)
        assert "files" not in summary

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask-022", "umask-027"])
    def test_files_honour_the_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            cfg = self.make_config(tmp_path)
            summary, _ = run_experiment(cfg)
            sweep(cfg, {"seed": [0, 1]})
        finally:
            os.umask(old)
        paths = [summary["files"]["csv"], summary["files"]["json"], os.path.join(str(tmp_path), "sweep.csv")]
        for path in paths:
            assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask, path
        assert sorted(os.listdir(str(tmp_path))) == sorted(os.path.basename(p) for p in paths)


class TestSweep:
    def base_config(self, tmp_path):
        return ExperimentConfig(
            loss="bernoulli", horizon=64, segments={"count": 2, "params": [0.2, 0.8]},
            out_dir=str(tmp_path),
        )

    def test_rows_cover_grid(self, tmp_path):
        rows = sweep(self.base_config(tmp_path), {"scheme": ["lin", "log"], "seed": [0, 1, 2]})
        assert len(rows) == 6
        assert all(r["status"] == "ok" for r in rows)
        assert {(r["scheme"], r["seed"]) for r in rows} == {
            (s, i) for s in ("lin", "log") for i in (0, 1, 2)
        }
        with open(os.path.join(str(tmp_path), "sweep.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 7

    def test_bad_row_is_isolated(self, tmp_path):
        rows = sweep(self.base_config(tmp_path), {"scheme": ["lin", "hexagonal"]})
        by_scheme = {r["scheme"]: r for r in rows}
        assert by_scheme["lin"]["status"] == "ok"
        assert by_scheme["hexagonal"]["status"].startswith("error:")

    def test_all_rows_failing_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            sweep(self.base_config(tmp_path), {"scheme": ["hexagonal", "triangular"]})

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sweep(self.base_config(tmp_path), {})
        with pytest.raises(ValueError):
            sweep(self.base_config(tmp_path), {"scheme": []})


class TestCli:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            {"scheme": "log", "loss": "bernoulli", "horizon": 32, "seed": 1,
             "segments": {"count": 2, "params": [0.1, 0.9]}},
        )
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "regret" in out
        assert (tmp_path / "out" / "log_bernoulli_T32_seed1.csv").exists()

    def test_run_flag_overrides(self, tmp_path, capsys):
        code = main(["run", "--scheme", "lin", "--loss", "square", "--horizon", "16", "--seed", "0"])
        assert code == 0
        assert "lin_square_T16" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            {"loss": "bernoulli", "horizon": 32,
             "segments": {"count": 2, "params": [0.2, 0.8]},
             "sweep": {"scheme": ["lin", "log", "sub"], "seed": [0, 1]}},
        )
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "6/6 rows ok" in capsys.readouterr().out
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"scheme": "dodecahedral", "horizon": 8})
        code = main(["run", "--config", cfg])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("run", "{not json", "Expecting property name"),
            ("run", "[1, 2]", "must hold a JSON object"),
            ("sweep", '{"horizon": 8, "sweep": 3}', "nonempty lists"),
            ("sweep", '{"horizon": 8, "sweep": {"seed": 3}}', "nonempty lists"),
            ("run", '{"horizon": null}', "must be integers and sigma a number"),
            ("run", '{"horizon": 8, "segments": 5}', "segments must be null"),
            ("run", '{"horizon": 8, "sigma": "x"}', "must be integers and sigma a number"),
        ],
        ids=["invalid-json", "json-array", "sweep-not-a-dict", "sweep-value-not-a-list",
             "horizon-null", "segments-int", "sigma-string"],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_sweep_without_grid_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"scheme": "lin", "horizon": 8})
        code = main(["sweep", "--config", cfg])
        assert code == 2

    def test_verify_subcommand(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_sub_at_horizon_one_exits_0(self, tmp_path, capsys):
        assert main(["run", "--scheme", "sub", "--horizon", "1", "--out", str(tmp_path)]) == 0
        assert "pool 2" in capsys.readouterr().out

    def test_package_runs_as_module(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "mixtrack", "verify"], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "all checks passed" in proc.stdout
        assert "Warning" not in proc.stderr
