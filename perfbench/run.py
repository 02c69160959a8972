#!/usr/bin/env python3
"""The mixtrack benchmark: rounds per second and step latency per workload.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload sweep-log-sub --seed 1 --seconds 30 --trace 0

One run is one process.  It imports mixtrack, builds the workload's inputs
from ``--seed`` and warms up (set-up, repeated and timed), then runs
passes until ``--seconds`` would be exceeded, at least one.  A pass runs
the workload's job, its configs through ``harness.sweep`` or
``harness.run_experiment``, and the online phase, one stream fed twice
over through ``Mixture.step`` with every call timed, in slices
between the job's calls.  Times are put on the scale of the host-speed
probe in ``hostspeed.py``.  After timing, every completed run is checked
against the independent reference in ``reference.py``; repetitions and
later passes must reproduce the first bit for bit.

With ``--trace 0`` the last line of output carries the end-to-end
metrics; with ``--trace 1`` the run makes exactly one pass with the
per-layer tracer installed (see ``tracer.py``) and carries the per-layer
metrics.  See README.md for the workloads and what each metric means.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE.relative_to(ROOT) / "out"  # relative, so written files do not name the checkout's location

SETUP_REPEATS = 7
ONLINE_REPS = 2  # the online stream is stepped this many times a pass; a step's latency is its least timing
T_BIG = 2**14
FAULT_SEED = 0  # the T = 2^15 square runs fail on every seed; their inputs stay fixed
SEG_BERNOULLI = {"count": 4, "params": [0.1, 0.9]}
SEG_SQUARE = {"count": 8, "params": [-0.5, 0.5]}
BASE_FOR = {"bernoulli": "kt", "square": "running-mean"}
FAULT_TEXT = "substitution overshoot"


def key(cfg: dict) -> tuple:
    return (cfg["scheme"], cfg["horizon"], cfg["seed"])


@dataclass
class Op:
    """One operation of a job: a sweep row or a run_experiment call."""

    cfg: dict
    ok: bool
    error: str = ""
    row: dict = None
    summary: dict = None
    trace: object = None

    @property
    def rounds(self) -> int:
        return self.cfg["horizon"] if self.ok else 0


@dataclass
class Online:
    ok: bool
    error: str = ""
    latency_ns: object = None
    start_ns: object = None
    predictions: object = None
    step_losses: object = None


@dataclass
class Pass:
    ops: list
    job_s: float  # wall time of the job's calls, the probe's time taken out
    job_ref_s: float  # the same on the host-speed probe's fixed scale
    online: list  # one Online per repetition


# -- workloads ----------------------------------------------------------------


class SweepLogSub:
    """A7's grid without lin: small pools, so per-round fixed cost dominates."""

    name = "sweep-log-sub"

    def __init__(self, seed: int):
        self.base = dict(loss="bernoulli", mode="eager", stream="piecewise-bernoulli", segments=SEG_BERNOULLI)
        self.grid = {"horizon": [2**10, T_BIG], "scheme": ["log", "sub"], "seed": [2 * seed, 2 * seed + 1]}
        self.configs = [
            dict(self.base, scheme=s, horizon=h, seed=k)
            for h in self.grid["horizon"]
            for s in self.grid["scheme"]
            for k in self.grid["seed"]
        ]
        self.online = dict(self.base, scheme="sub", horizon=T_BIG, seed=2 * seed)
        self.warmup = [dict(self.base, scheme=s, horizon=256, seed=0, out_dir=str(OUT / "warmup")) for s in ("log", "sub")]
        self.expected_faults = set()

    def job(self, harness) -> list:
        return [lambda: self.run_sweep(harness)]

    def run_sweep(self, harness) -> list:
        try:
            rows = harness.sweep(harness.ExperimentConfig.from_dict(self.base), self.grid, write_files=False)
        except RuntimeError as e:  # every row failed
            return [Op(cfg, False, f"{type(e).__name__}: {e}") for cfg in self.configs]
        by_key = {(r["scheme"], r["T"], r["seed"]): r for r in rows}
        ops = []
        for cfg in self.configs:
            row = by_key.get(key(cfg))
            if row is None:
                ops.append(Op(cfg, False, "row missing from the sweep"))
            else:
                ops.append(Op(cfg, row["status"] == "ok", "" if row["status"] == "ok" else row["status"], row=row))
        return ops


class RunExperimentWorkload:
    """Configs run one by one through ``harness.run_experiment``."""

    def job(self, harness) -> list:
        return [lambda cfg=cfg: [self.run_one(harness, cfg)] for cfg in self.configs]

    @staticmethod
    def run_one(harness, cfg: dict) -> Op:
        try:
            summary, trace = harness.run_experiment(harness.ExperimentConfig.from_dict(cfg))
        except (ValueError, RuntimeError) as e:
            return Op(cfg, False, f"{type(e).__name__}: {e}")
        return Op(cfg, True, summary=summary, trace=trace)


class LinBernoulli(RunExperimentWorkload):
    """The lin pool grows to T rows, so row-proportional numpy work dominates."""

    name = "lin-bernoulli"

    def __init__(self, seed: int):
        cfg = dict(
            scheme="lin", loss="bernoulli", mode="eager", stream="piecewise-bernoulli", segments=SEG_BERNOULLI,
            horizon=T_BIG, seed=seed,
        )
        # The config runs twice: a single 11 s call averages too little of the host's drift.
        self.configs = [cfg, dict(cfg)]
        self.online = dict(cfg, horizon=T_BIG // 2)  # two repetitions at T_BIG would take 22 s
        self.warmup = [dict(cfg, horizon=256, seed=0, out_dir=str(OUT / "warmup"))]
        self.expected_faults = set()


class SquareLazyFiles(RunExperimentWorkload):
    """Square loss, lazy rows and CSV/JSON files: the other two workloads skip all three."""

    name = "square-lazy-files"

    def __init__(self, seed: int):
        base = dict(
            loss="square", mode="lazy", stream="piecewise-gaussian-clipped", segments=SEG_SQUARE,
            out_dir=str(OUT / self.name),
        )
        self.configs = [
            dict(base, scheme=s, horizon=h, seed=seed if h == T_BIG else FAULT_SEED)
            for h in (T_BIG, 2 * T_BIG)
            for s in ("log", "sub")
        ]
        self.online = self.configs[1]
        self.warmup = [dict(base, scheme=s, horizon=256, seed=0, out_dir=str(OUT / "warmup")) for s in ("log", "sub")]
        self.expected_faults = {key(c) for c in self.configs if c["horizon"] == 2 * T_BIG}


WORKLOADS = {w.name: w for w in (SweepLogSub, LinBernoulli, SquareLazyFiles)}


# -- the run ------------------------------------------------------------------


def new_mixture(mt, cfg: dict):
    return mt.Mixture(
        mt.make_scheme(cfg["scheme"], horizon=cfg["horizon"]),
        mt.make_loss(cfg["loss"]),
        mt.make_base(BASE_FOR[cfg["loss"]]),
        mode=cfg["mode"],
    )


class OnlinePhase:
    """One stream fed through ``Mixture.step``, a slice at a time, every call timed."""

    def __init__(self, mt, cfg: dict, xs, probe):
        import numpy as np

        self.mix = new_mixture(mt, cfg)
        self.xs = xs.tolist()
        self.probe = probe
        n = len(self.xs)
        self.result = Online(True, "", np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64), np.empty(n), np.empty(n))
        self.pos = 0

    def feed(self, end: int) -> None:
        """Step rounds up to ``end`` (exclusive); a failure ends the phase.

        A probe sample that falls due during a step is taken after it,
        outside the timed call.
        """
        r = self.result
        if not r.ok or end <= self.pos:
            return
        lat, at, preds, losses = r.latency_ns, r.start_ns, r.predictions, r.step_losses
        clock, step, xs, probe = time.perf_counter_ns, self.mix.step, self.xs, self.probe
        probe.defer = True
        try:
            for i in range(self.pos, end):
                if probe.pending:
                    probe.sample()
                t0 = clock()
                rec = step(xs[i])
                lat[i] = clock() - t0
                at[i] = t0
                preds[i] = rec.prediction
                losses[i] = rec.step_loss
        except (ValueError, RuntimeError) as e:
            r.ok, r.error = False, f"{type(e).__name__}: {e}"
        finally:
            probe.defer = False
            if probe.pending:
                probe.sample()
        self.pos = end


def timed(probe, fn):
    """Run ``fn``; return its result, its net wall time and that time on the probe's scale."""
    spent = probe.spent
    t0 = time.perf_counter()
    out = fn()
    t1 = time.perf_counter()
    net = (t1 - t0) - (probe.spent - spent)
    return out, net, net * probe.factor(t0, t1) if probe.at else math.nan


def run_pass(wl, mt, harness, xs, probe) -> Pass:
    """The job's calls with the online phase's slices between them.

    The online phase steps ``ONLINE_REPS`` fresh mixtures through the same
    stream, one after another, cut into slices between the job's calls.
    Spreading it across the pass makes its latencies and the job's rate
    sample the same stretch of time, and puts the timings of one step
    seconds apart, so that a burst of interruptions on the host rarely
    hits both.
    """
    calls = wl.job(harness)
    reps = [OnlinePhase(mt, wl.online, xs, probe) for _ in range(ONLINE_REPS)]
    n = len(xs)
    cuts = [n * ONLINE_REPS * (i + 1) // (len(calls) + 1) for i in range(len(calls) + 1)]

    def feed(pos):  # the repetitions one after another, up to step ``pos`` of them all
        for r, rep in enumerate(reps):
            rep.feed(min(n, max(0, pos - r * n)))

    ops, job_s, job_ref_s = [], 0.0, 0.0
    feed(cuts[0])
    for call, end in zip(calls, cuts[1:]):
        out, net, ref = timed(probe, call)
        ops += out
        job_s += net
        job_ref_s += ref
        feed(end)
    return Pass(ops, job_s, job_ref_s, [rep.result for rep in reps])


def check_run(wl, mt, streams: dict, passes: list, log) -> list:
    """Every output check; returns the failure messages."""
    import checks

    errs = []
    for cfg in wl.configs + [wl.online]:
        errs += checks.check_stream(cfg, streams[key(cfg)])
    refs = {}

    def reference_for(cfg):
        if key(cfg) not in refs:
            refs[key(cfg)] = checks.reference_for(cfg, streams[key(cfg)])
        return refs[key(cfg)]

    first = passes[0]
    for op in first.ops:
        if not op.ok:
            if key(op.cfg) not in wl.expected_faults or FAULT_TEXT not in op.error:
                errs.append(f"{checks.run_name(op.cfg)}: unexpected failure: {op.error}")
            continue
        r = reference_for(op.cfg)
        if op.row is not None:
            errs += checks.check_sweep_row(op.cfg, r, op.row)
            continue
        errs += checks.check_summary(op.cfg, r, op.summary, op.trace.step_losses)
        if "files" in op.summary:
            csv_text = Path(op.summary["files"]["csv"]).read_text()
            json_text = Path(op.summary["files"]["json"]).read_text()
            errs += checks.check_csv(op.cfg, r, streams[key(op.cfg)], op.trace, csv_text, op.summary["results"]["regret"])
            errs += checks.check_json(op.cfg, json_text, op.summary)
            for text, path in ((csv_text, op.summary["files"]["csv"]), (json_text, op.summary["files"]["json"])):
                log(f"sha256 {checks.sha256(text)}  {Path(path).name}")

    for later in passes[1:]:
        for a, b in zip(first.ops, later.ops):
            same = a.ok == b.ok and a.error == b.error and a.row == b.row and a.summary == b.summary
            if same and a.trace is not None:
                same = checks.check_same_steps("", b.trace.predictions, b.trace.step_losses, a.trace) == []
            if not same:
                errs.append(f"{checks.run_name(a.cfg)}: a later pass differs from the first")
    o1 = first.online[0]
    for o2 in [o for p in passes for o in p.online][1:]:
        if o1.ok != o2.ok or (o1.ok and (o1.predictions.tobytes() != o2.predictions.tobytes()
                                         or o1.step_losses.tobytes() != o2.step_losses.tobytes())):
            errs.append("online phase: a repetition differs from the first")

    if not o1.ok:
        errs.append(f"online phase failed: {o1.error}")
    else:
        cfg = wl.online
        trace = next((op.trace for op in first.ops if op.trace is not None and key(op.cfg) == key(cfg)), None)
        if trace is None:
            trace = new_mixture(mt, cfg).run(streams[key(cfg)])
        errs += checks.check_same_steps(f"online {checks.run_name(cfg)}", o1.predictions, o1.step_losses, trace)
    return errs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (SRC / "mixtrack" / "__init__.py").is_file():
        print(f"error: no mixtrack package under {SRC}; run from the root of a mixtrack checkout", file=sys.stderr)
        return 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one process, no helper threads
    sys.path[:0] = [str(SRC), str(HERE)]
    import mixtrack as mt
    from mixtrack import harness

    if Path(mt.__file__).resolve().parent != (SRC / "mixtrack").resolve():
        print(f"error: imported mixtrack from {mt.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    import numpy as np

    from hostspeed import REF_S, HostProbe
    from tracer import Tracer

    import_s = time.perf_counter() - T_START

    def log(msg):
        print(msg, flush=True)

    wl = WORKLOADS[args.workload](args.seed)
    shutil.rmtree(OUT, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    probe = HostProbe()  # left off in the traced run, whose layer times are raw
    if tracer:
        tracer.install()
    else:
        probe.start()

    def set_up():
        streams = {key(c): harness.generate_stream(harness.ExperimentConfig.from_dict(c)) for c in wl.configs + [wl.online]}
        for c in wl.warmup:
            harness.run_experiment(harness.ExperimentConfig.from_dict(c))
        return streams

    setup_times = []
    try:
        setup_start = time.perf_counter()
        for _ in range(1 if tracer else SETUP_REPEATS):
            streams, net, _ = timed(probe, set_up)
            setup_times.append(net)
        setup_end = time.perf_counter()

        passes = []
        t_begin = time.perf_counter()
        while True:
            passes.append(run_pass(wl, mt, harness, streams[key(wl.online)], probe))
            elapsed = time.perf_counter() - t_begin
            if tracer or elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    finally:
        probe.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    attempted = sum(len(p.ops) + len(p.online) for p in passes)
    failed = sum(sum(not op.ok for op in p.ops) + sum(not o.ok for o in p.online) for p in passes)
    rounds = sum(op.rounds for p in passes for op in p.ops)
    job_s = sum(p.job_s for p in passes)
    job_ref_s = sum(p.job_ref_s for p in passes)

    def step_us(scale):
        """Each step's least latency over a pass's repetitions, in us, every pass."""
        per_pass = []
        for p in passes:
            done = [scale(o.latency_ns / 1000.0, o.start_ns / 1e9) for o in p.online if o.ok]
            if done:
                per_pass.append(np.min(done, axis=0))
        return np.concatenate(per_pass or [np.full(1, math.nan)])

    lat_us = step_us(lambda us, at: us)
    setup_s = import_s + statistics.median(setup_times)  # raw; scaled below by the probe's samples during set-up

    log(f"workload {wl.name}, seed {args.seed}, {len(passes)} pass(es), trace {args.trace}")
    for op in passes[0].ops:
        log(f"  {'ok    ' if op.ok else 'FAILED'} {op.cfg['scheme']} {op.cfg['loss']} {op.cfg['mode']} "
            f"T={op.cfg['horizon']} seed={op.cfg['seed']} {op.error}")
    o1 = passes[0].online[0]
    log(f"  online {wl.online['scheme']} T={wl.online['horizon']} x{ONLINE_REPS}: {'ok' if o1.ok else o1.error}")
    log(f"raw: job {job_s:.3f} s for {rounds} rounds, {rounds / job_s:.1f} rounds/s; online steps {lat_us.size}, "
        f"p50 {np.median(lat_us):.1f} us, p99 {np.percentile(lat_us, 99):.1f} us; set-up {setup_s:.3f} s "
        f"(import {import_s:.3f} s + median of {' '.join(f'{t:.3f}' for t in setup_times)} s)")
    if not tracer:
        took = np.asarray(probe.took)
        lat_ref_us = step_us(lambda us, at: us * probe.local_factors(at))
        setup_ref_s = setup_s * probe.factor(setup_start, setup_end)
        log(f"host probe: {took.size} samples, {probe.spent:.2f} s taken out, kernel p10/p50/p90 "
            f"{' '.join(f'{v * 1e3:.2f}' for v in np.percentile(took, [10, 50, 90]))} ms (reference {REF_S * 1e3:.2f} ms)")
        log(f"on the probe's scale: job {job_ref_s:.3f} s; set-up {setup_ref_s:.3f} s")

    t_check = time.perf_counter()
    errs = check_run(wl, mt, streams, passes, log)
    for e in errs:
        log(f"CHECK FAILED: {e}")
    log(f"checks {'passed' if not errs else 'FAILED'} in {time.perf_counter() - t_check:.1f} s")

    if tracer:
        log(f"traced rounds_per_s {rounds / job_s:.1f}")
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": {"value": setup_ref_s, "unit": "s"},
            "rounds_per_s": {"value": rounds / job_ref_s, "unit": "rounds/s"},
            "step_us_p50": {"value": float(np.median(lat_ref_us)), "unit": "us"},
            "step_us_p99": {"value": float(np.percentile(lat_ref_us, 99)), "unit": "us"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    print(json.dumps({"correct": not errs, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
