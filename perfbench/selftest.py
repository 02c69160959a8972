#!/usr/bin/env python3
"""Quick self-test of the benchmark's reference and checkers.

    python3 perfbench/selftest.py

From the root of a checkout; takes about six seconds.  It shows that

* the forward path-sum recursion agrees with exhaustive path enumeration
  at T <= 8, on every calendar and both losses;
* correct outputs of small runs pass every checker;
* the checkers reject a total loss bumped by 1e-9 relative, a pool count
  off by one, any single changed byte of a written CSV (every byte of
  its first rows and its last row, and every 29th byte elsewhere), a
  changed JSON byte and a one-ulp change in an online prediction;
* the host-speed probe scales intervals by the samples taken during
  them, samples on its own while started and never after it stops.

Exit code 0 iff all of that holds.
"""

import copy
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "selftest"


def mutate(text: str, i: int) -> str:
    c = text[i]
    new = str((int(c) + 1) % 10) if c.isdigit() else ("5" if c != "5" else "6")
    return text[:i] + new + text[i + 1 :]


def main() -> int:
    if not (ROOT / "src" / "mixtrack" / "__init__.py").is_file():
        print(f"error: no mixtrack package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import checks
    import reference as ref
    from mixtrack import harness, make_base, make_loss, make_scheme
    from mixtrack.mixture import Mixture

    failures = []

    def expect(ok: bool, what: str):
        if not ok:
            failures.append(what)

    # 1. recursion against enumeration
    worst = 0.0
    for tag in ("lin", "log", "sub"):
        for loss in ("bernoulli", "square"):
            for T in range(1, 9):
                for seed in range(3):
                    rng = np.random.default_rng([T, seed])
                    xs = (rng.random(T) < 0.5).astype(float) if loss == "bernoulli" else np.clip(rng.normal(0, 0.5, T), -1, 1)
                    a = ref.path_sum(tag, loss, xs)["bound"]
                    b = ref.enumerate_path_sum(tag, loss, xs)
                    gap = abs(a - b) / max(1e-300, abs(b))
                    worst = max(worst, gap)
                    expect(gap <= 1e-12, f"recursion != enumeration: {tag} {loss} T={T} seed={seed}: {a!r} vs {b!r}")
    print(f"recursion vs enumeration at T <= 8: worst relative gap {worst:.2e}")

    # 2. correct small runs pass
    shutil.rmtree(OUT, ignore_errors=True)
    runs = {}
    for cfg in (
        dict(scheme="lin", loss="bernoulli", mode="eager", stream="piecewise-bernoulli",
             segments={"count": 4, "params": [0.1, 0.9]}, horizon=160, seed=3, out_dir=str(OUT)),
        dict(scheme="sub", loss="square", mode="lazy", stream="piecewise-gaussian-clipped",
             segments={"count": 8, "params": [-0.5, 0.5]}, horizon=200, seed=4, out_dir=str(OUT)),
    ):
        xs = harness.generate_stream(harness.ExperimentConfig.from_dict(cfg))
        summary, trace = harness.run_experiment(harness.ExperimentConfig.from_dict(cfg))
        r = checks.reference_for(cfg, xs)
        csv_text = Path(summary["files"]["csv"]).read_text()
        json_text = Path(summary["files"]["json"]).read_text()
        errs = (
            checks.check_stream(cfg, xs)
            + checks.check_summary(cfg, r, summary, trace.step_losses)
            + checks.check_csv(cfg, r, xs, trace, csv_text, summary["results"]["regret"])
            + checks.check_json(cfg, json_text, summary)
        )
        expect(not errs, f"correct {cfg['loss']} run rejected: {errs}")
        runs[cfg["loss"]] = (cfg, xs, summary, trace, r, csv_text, json_text)

    base = dict(loss="bernoulli", mode="eager", stream="piecewise-bernoulli", segments={"count": 4, "params": [0.1, 0.9]})
    row_cfg = dict(base, scheme="log", horizon=256, seed=5)
    (row,) = harness.sweep(harness.ExperimentConfig.from_dict(base), {"scheme": ["log"], "horizon": [256], "seed": [5]},
                           write_files=False)
    row_xs = harness.generate_stream(harness.ExperimentConfig.from_dict(row_cfg))
    row_ref = checks.reference_for(row_cfg, row_xs)
    expect(not checks.check_sweep_row(row_cfg, row_ref, row), "correct sweep row rejected")

    # 3. corrupted results are rejected
    for loss, (cfg, xs, summary, trace, r, csv_text, json_text) in runs.items():
        bumped = copy.deepcopy(summary)
        bumped["results"]["total_loss"] *= 1 + 1e-9
        expect(checks.check_summary(cfg, r, bumped, trace.step_losses) != [], f"{loss}: bumped total loss accepted")
        for delta in (-1, 1):
            off = copy.deepcopy(summary)
            off["results"]["created_experts"] += delta
            expect(checks.check_summary(cfg, r, off, trace.step_losses) != [], f"{loss}: pool count {delta:+d} accepted")

        lines = csv_text.split("\n")
        head = len("\n".join(lines[:4]))
        tail = len(csv_text) - len(lines[-2]) - 1
        positions = sorted(set(range(head)) | set(range(head, tail, 29)) | set(range(tail, len(csv_text))))
        accepted = [i for i in positions
                    if not checks.check_csv(cfg, r, xs, trace, mutate(csv_text, i), summary["results"]["regret"])]
        expect(not accepted, f"{loss}: CSV with a changed byte accepted at offsets {accepted[:10]}")
        print(f"{loss}: {len(positions)} single-byte CSV changes, {len(positions) - len(accepted)} rejected")
        bad_json = [i for i in range(0, len(json_text), 7) if not checks.check_json(cfg, mutate(json_text, i), summary)]
        expect(not bad_json, f"{loss}: JSON with a changed byte accepted at offsets {bad_json[:10]}")

        preds = trace.predictions.copy()
        preds[len(preds) // 2] = np.nextafter(preds[len(preds) // 2], 2.0)
        expect(checks.check_same_steps("", preds, trace.step_losses, trace) != [], f"{loss}: one-ulp prediction change accepted")

    total = row["regret"] + row_ref["oracle_loss"]
    bumped = dict(row, regret=row["regret"] + 1e-9 * total)
    expect(checks.check_sweep_row(row_cfg, row_ref, bumped) != [], "sweep row: bumped total loss accepted")
    for delta in (-1, 1):
        expect(checks.check_sweep_row(row_cfg, row_ref, dict(row, created=row["created"] + delta)) != [],
               f"sweep row: pool count {delta:+d} accepted")

    # the engine at the shipped defaults, for the record: identity on a longer run
    xs = (np.random.default_rng(7).random(2048) < 0.3).astype(float)
    tr = Mixture(make_scheme("sub", horizon=2048), make_loss("bernoulli"), make_base("kt")).run(xs)
    gap = abs(tr.total_loss - ref.path_sum("sub", "bernoulli", xs)["bound"]) / tr.total_loss
    expect(gap <= 1e-12, f"engine vs path sum at T=2048: relative gap {gap:.2e}")
    print(f"engine vs path-sum identity, sub bernoulli T=2048: relative gap {gap:.2e}")

    # the host-speed probe: scaling on made-up samples, then live sampling
    import time

    import hostspeed

    probe = hostspeed.HostProbe()
    probe.at = [0.1 * i for i in range(21)]
    probe.took = [hostspeed.REF_S * (1 if t < 0.95 else 2) for t in probe.at]
    scales = (probe.factor(0.0, 0.9), probe.factor(1.0, 2.0), *probe.local_factors(np.array([0.45, 1.55])))
    expect(np.allclose(scales, (1.0, 0.5, 1.0, 0.5)), f"probe: scales {scales} on a host that halves its speed at t = 1")
    probe = hostspeed.HostProbe()
    probe.start()
    t_end = time.perf_counter() + 0.35
    while time.perf_counter() < t_end:
        pass
    probe.stop()
    taken = len(probe.took)
    time.sleep(2 * hostspeed.INTERVAL_S)
    expect(taken >= 3 and len(probe.took) == taken, f"probe: {taken} samples in 0.35 s, {len(probe.took) - taken} after stop")
    print(f"host probe: {taken} samples in 0.35 s, none after stop")

    shutil.rmtree(OUT, ignore_errors=True)
    for f in failures:
        print("FAIL:", f)
    print("self-test", "passed" if not failures else f"FAILED ({len(failures)})")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
