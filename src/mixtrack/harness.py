"""Config-driven experiment runner with file outputs and a small CLI.

A run is described by a JSON config (or an ``ExperimentConfig``): pick a
calendar, a loss, a base learner, an outcome stream, a horizon and a
seed; the runner simulates the mixture, scores it against the hindsight
per-segment comparators, and emits a CSV trace plus a JSON summary.
Reruns with the same config are byte-identical: the generator is a
seeded PCG64 and floats are written with shortest round-trip repr.

CSV schema (one row per round):

    t, outcome, prediction, step_loss, cum_loss, oracle_cum_loss,
    regret, jt_period, live_experts, created_experts

``jt_period`` is the period of the designated restarter that round;
never-restarting copies print as ``inf``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .base import make_base, restart_loss
from .evaluation import complexity_audit, dynamic_regret, oracle_comparators, oracle_step_losses, path_oracle
from .losses import make_loss
from .mixture import Mixture, select_jt
from .schemes import SUB_PARAMS, make_scheme

DEFAULT_BASE_FOR = {"square": "running-mean", "bernoulli": "kt"}

STREAMS = ("piecewise-bernoulli", "piecewise-gaussian-clipped", "adversarial-alternating")


def _integer(name: str, v) -> int:
    """``v`` as an int; a bool, a string or a float with a fractional part is rejected, not converted."""
    if isinstance(v, (bool, str)) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"{name} must be an integer, not {v!r}")
    return int(v)


def _number(name: str, v) -> float:
    """``v`` as a float; anything but an int or a float, a bool included, is rejected."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{name} must be a number, not {v!r}")
    return float(v)


@dataclass
class ExperimentConfig:
    """One experiment.  ``segments`` is either an explicit list of
    ``[length, param]`` pairs summing to the horizon, or a pattern dict
    ``{"count": S, "params": [...]}`` that splits the horizon into S
    near-equal segments cycling through the params, or None for a single
    segment with the stream's neutral param."""

    scheme: str = "lin"
    loss: str = "bernoulli"
    base: Optional[str] = None
    horizon: int = 1024
    seed: int = 0
    mode: str = "eager"
    stream: str = "piecewise-bernoulli"
    segments: object = None
    sigma: float = 0.25
    sub_a: float = SUB_PARAMS[0]
    sub_b: float = SUB_PARAMS[1]
    sub_c: float = SUB_PARAMS[2]
    out_dir: Optional[str] = None
    label: Optional[str] = None

    def __post_init__(self):
        if self.mode not in ("eager", "lazy", "both"):
            raise ValueError("mode must be eager, lazy or both")
        if self.stream not in STREAMS:
            raise ValueError(f"unknown stream {self.stream!r}; expected one of {STREAMS}")
        if not isinstance(self.loss, str) or not isinstance(self.base, (str, type(None))):
            raise ValueError(f"loss must be a string and base a string or null, not {self.loss!r} and {self.base!r}")
        for name in ("sub_a", "sub_b", "sub_c"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not -math.inf < v < math.inf:
                raise ValueError(f"{name} must be a finite number, not {v!r}")
        if isinstance(self.sigma, bool):
            raise ValueError(f"sigma must be a number, not {self.sigma!r}")
        try:
            self.horizon = _integer("horizon", self.horizon)
            self.seed = _integer("seed", self.seed)
            bad_sigma = not 0.0 <= self.sigma < math.inf  # written so that NaN fails
        except TypeError:
            raise ValueError("horizon and seed must be integers and sigma a number, not "
                             f"{self.horizon!r}, {self.seed!r} and {self.sigma!r}") from None
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if bad_sigma:
            raise ValueError(f"sigma must be finite and nonnegative, not {self.sigma!r}")
        label = self.label
        if label is not None and (not isinstance(label, str) or ".." in label or os.path.basename(label) != label):
            raise ValueError(f"label must be a plain file name, without '..' or a path separator, not {label!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def resolved_segments(self) -> list:
        """Normalize the segments field to [(length, param), ...]."""
        neutral = 0.5 if self.stream == "piecewise-bernoulli" else 0.0
        seg = self.segments
        if seg is None:
            return [(self.horizon, neutral)]
        try:
            if isinstance(seg, dict):
                count = _integer("segments count", seg.get("count", 1))
                params = [_number("segments param", p) for p in seg.get("params", [neutral])]
            else:
                out = [(_integer("segments length", n), _number("segments param", p)) for n, p in seg]
        except TypeError:
            raise ValueError(
                f"segments must be null, a {{count, params}} dict or a list of [length, param] pairs, not {seg!r}"
            ) from None
        if isinstance(seg, dict):
            if count < 1 or count > self.horizon:
                raise ValueError("segment count must be in [1, horizon]")
            if not params:
                raise ValueError("pattern segments need at least one param")
            n = self.horizon // count
            lengths = [n] * (count - 1) + [self.horizon - n * (count - 1)]
            return [(lengths[i], params[i % len(params)]) for i in range(count)]
        if any(n < 1 for n, _ in out):
            raise ValueError("segment lengths must be positive")
        if sum(n for n, _ in out) != self.horizon:
            raise ValueError("segment lengths must sum to the horizon")
        return out

    def run_name(self) -> str:
        if self.label:
            return self.label
        return f"{self.scheme}_{self.loss}_T{self.horizon}_seed{self.seed}"


_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def generate_stream(config: ExperimentConfig) -> np.ndarray:
    """Outcome sequence for a config; deterministic in the seed."""
    segments = config.resolved_segments()
    rng = np.random.default_rng(config.seed)
    parts = []
    if config.stream == "piecewise-bernoulli":
        for n, p in segments:
            if not 0.0 <= p <= 1.0:
                raise ValueError("bernoulli rates must lie in [0, 1]")
            parts.append((rng.random(n) < p).astype(float))
    elif config.stream == "piecewise-gaussian-clipped":
        for n, mu in segments:
            if not -1.0 <= mu <= 1.0:
                raise ValueError("gaussian means must lie in [-1, 1]")
            parts.append(np.clip(rng.normal(mu, config.sigma, n), -1.0, 1.0))
    else:  # adversarial-alternating; deterministic, the seed is unused
        binary = config.loss == "bernoulli"
        for n, a in segments:
            t = np.arange(n)
            if binary:
                lead = 1.0 if a >= 0.5 else 0.0
                parts.append(np.where(t % 2 == 0, lead, 1.0 - lead))
            else:
                if not -1.0 <= a <= 1.0:
                    raise ValueError("alternating amplitude must lie in [-1, 1]")
                parts.append(np.where(t % 2 == 0, a, -a))
    return np.concatenate(parts)


def _build(config: ExperimentConfig):
    loss = make_loss(config.loss)
    base_name = config.base or DEFAULT_BASE_FOR.get(loss.name)
    if base_name is None:
        raise ValueError(f"no default base learner for loss {loss.name!r}; set 'base'")
    base = make_base(base_name)
    scheme = make_scheme(
        config.scheme, sub_a=config.sub_a, sub_b=config.sub_b, sub_c=config.sub_c, horizon=config.horizon
    )
    return scheme, loss, base


def _fmt(x) -> str:
    return repr(float(x))


def _atomic_write_chunks(path: str, chunks) -> None:
    """Write the strings of ``chunks`` to ``path`` through a temp file and a rename.

    The temp file is created with mode 0o666, so the umask applies as it
    does for ``open()``.
    """
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    while True:
        tmp = os.path.join(d, ".tmp-" + os.urandom(8).hex())
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str) -> None:
    _atomic_write_chunks(path, (text,))


CSV_HEADER = "t,outcome,prediction,step_loss,cum_loss,oracle_cum_loss,regret,jt_period,live_experts,created_experts"
CSV_CHUNK_ROWS = 2048  # rows rendered at a time, so a long trace never sits in memory as text


def _csv_chunks(trace, oracle_steps):
    """The CSV of ``trace_csv``, header first, then at most CSV_CHUNK_ROWS rows per string."""
    yield CSV_HEADER + "\n"
    cum = np.cumsum(trace.step_losses)
    ocum = np.cumsum(oracle_steps)
    ts, jt_periods, live, created = trace.ts, trace.jt_periods, trace.live, trace.created  # computed on each access
    for lo in range(0, trace.horizon, CSV_CHUNK_ROWS):
        part = slice(lo, lo + CSV_CHUNK_ROWS)
        c, o = cum[part], ocum[part]
        cols = zip(
            ts[part].tolist(),
            trace.outcomes[part].tolist(),
            trace.predictions[part].tolist(),
            trace.step_losses[part].tolist(),
            c.tolist(),
            o.tolist(),
            (c - o).tolist(),
            jt_periods[part].tolist(),
            live[part].tolist(),
            created[part].tolist(),
        )
        yield "".join(
            f"{t},{x!r},{p!r},{s!r},{cl!r},{ol!r},{r!r},{j!r},{lv},{cr}\n" for t, x, p, s, cl, ol, r, j, lv, cr in cols
        )


def trace_csv(trace, oracle_steps) -> str:
    """Render a run trace in the fixed CSV schema."""
    return "".join(_csv_chunks(trace, oracle_steps))


def run_experiment(config: ExperimentConfig, write_files: bool = True):
    """Simulate one config; returns (summary dict, primary trace).

    The modes run the same rounds and count different work.  With mode
    "both" a lazy and an eager mixture run side by side and must agree
    bit for bit on predictions and step losses, else the run fails.  The
    eager trace is the one reported.
    """
    scheme, loss, base = _build(config)
    xs = generate_stream(config)
    lengths = [n for n, _ in config.resolved_segments()]

    modes = ("lazy", "eager") if config.mode == "both" else (config.mode,)
    traces = {m: Mixture(scheme, loss, base, mode=m).run(xs) for m in modes}
    divergence = None
    if config.mode == "both":
        a, b = traces["lazy"], traces["eager"]
        divergence = float(np.max(np.abs(a.predictions - b.predictions)))
        same = np.array_equal(a.predictions, b.predictions) and np.array_equal(a.step_losses, b.step_losses)
        if not same:
            raise RuntimeError(f"lazy/eager predictions or step losses differ (max prediction gap {divergence})")
    trace = traces.get("eager", traces[modes[0]])

    seg = oracle_comparators(loss, xs, lengths)
    report = dynamic_regret(trace, seg, loss, scheme)
    audit = complexity_audit(trace, scheme)
    rst_loss = restart_loss(base, loss, xs, lengths)

    summary = {
        "config": {k: v for k, v in asdict(config).items() if v is not None},
        "results": {
            "horizon": trace.horizon,
            "segments": seg.segment_count,
            "total_loss": trace.total_loss,
            "oracle_loss": report.oracle_loss,
            "regret": report.regret,
            "realized_segments": report.realized_segments,
            "switch_cap": report.switch_cap,
            "created_experts": report.created,
            "count_cap": audit.count_cap,
            "created_within_cap": audit.created_within_cap,
            "total_work": report.total_work,
            "restart_oracle_loss": rst_loss,
            "restart_oracle_regret": rst_loss - report.oracle_loss,
        },
    }
    if divergence is not None:
        summary["results"]["lazy_eager_divergence"] = divergence

    if write_files and config.out_dir:
        name = config.run_name()
        csv_path = os.path.join(config.out_dir, name + ".csv")
        json_path = os.path.join(config.out_dir, name + ".json")
        _atomic_write_chunks(csv_path, _csv_chunks(trace, oracle_step_losses(loss, xs, seg)))
        summary["files"] = {"csv": csv_path, "json": json_path}
        _atomic_write(json_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary, trace


SWEEP_KEYS = ("scheme", "loss", "T", "S", "seed", "regret", "regret_per_s_logts", "regret_per_s_log2ts",
              "created", "work", "status")
SWEEP_HEADER = ",".join(SWEEP_KEYS)


def _sweep_cell(key: str, v) -> str:
    if v is None:
        return ""
    if key == "status":
        return '"' + v.replace('"', "'") + '"'
    return _fmt(v) if isinstance(v, float) else str(v)


def sweep(config: ExperimentConfig, grid: dict, write_files: bool = True) -> list:
    """Cartesian product of grid overrides; one result row per combo.

    ``grid`` maps config field names to lists of values (typically
    scheme, horizon, seed).  Failures are isolated per row.  Returns the
    row dicts; with an out_dir also writes ``sweep.csv``.
    """
    if not isinstance(grid, dict) or not grid or any(not isinstance(v, (list, tuple)) or not v for v in grid.values()):
        raise ValueError("sweep grid must map fields to nonempty lists")
    keys = sorted(grid)
    combos = [{}]
    for k in keys:
        combos = [dict(c, **{k: v}) for c in combos for v in grid[k]]

    rows = []
    base_dict = asdict(config)
    for combo in combos:
        d = dict(base_dict)
        d.update(combo)
        d["out_dir"] = None
        row = dict.fromkeys(SWEEP_KEYS)
        row.update(scheme=d["scheme"], loss=d["loss"])
        try:
            cfg = ExperimentConfig.from_dict(d)
            row.update(T=cfg.horizon, seed=cfg.seed)
            summary, _ = run_experiment(cfg, write_files=False)
            res = summary["results"]
            S = res["segments"]
            ratio = row["T"] / S
            denom = S * math.log(ratio) if ratio > 1 else math.nan
            row.update(
                S=S,
                regret=res["regret"],
                regret_per_s_logts=res["regret"] / denom if denom == denom else math.nan,
                regret_per_s_log2ts=res["regret"] / (denom * math.log(ratio)) if denom == denom else math.nan,
                created=res["created_experts"],
                work=res["total_work"],
                status="ok",
            )
        except Exception as e:  # keep the sweep alive, mark the row
            row["status"] = f"error: {e}"
        rows.append(row)

    if not any(r["status"] == "ok" for r in rows):
        raise RuntimeError("every sweep row failed")

    if write_files and config.out_dir:
        lines = [SWEEP_HEADER] + [",".join(_sweep_cell(k, r[k]) for k in SWEEP_KEYS) for r in rows]
        _atomic_write(os.path.join(config.out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    return rows


# the Trace columns a run stores, by the StepRecord field each holds
_STEP_COLUMNS = (("predictions", "prediction"), ("step_losses", "step_loss"), ("live", "live"), ("drifts", "drift"),
                 ("map_ids", "map_id"))


def verify(verbose: bool = True) -> int:
    """Built-in cross-checks on small instances, each timed; returns a process exit code."""
    failures = 0
    rng = np.random.default_rng(12345)

    def report(line: str, ok: bool, started: float) -> None:
        nonlocal failures
        failures += 0 if ok else 1
        if verbose:
            print(f"{line} [{'ok' if ok else 'FAIL'}] {1e3 * (time.perf_counter() - started):.1f} ms")

    T = 256
    for tag in ("lin", "log", "sub"):
        for loss_name in ("bernoulli", "square"):
            started = time.perf_counter()
            loss = make_loss(loss_name)
            base = make_base(DEFAULT_BASE_FOR[loss_name])
            scheme = make_scheme(tag, horizon=T + 1)
            if loss_name == "bernoulli":
                xs = (rng.random(T) < 0.5).astype(float)
            else:
                xs = np.clip(rng.normal(0.0, 0.5, T), -1, 1)
            rep = path_oracle(scheme, loss, base, xs)
            report(f"path certificate  {tag:3s} {loss_name:9s} T={T} "
                   f"mixture {rep.mixture_loss:.6f} <= best bound {rep.best_bound:.6f}", rep.satisfied, started)
            # online use: a bare step per outcome, against run's trace of the same outcomes
            started = time.perf_counter()
            mix = Mixture(make_scheme(tag, horizon=T + 1), loss, base)
            recs = [mix.step(x) for x in xs.tolist()]
            trace = Mixture(make_scheme(tag, horizon=T + 1), loss, base).run(xs)
            cols = [(getattr(trace, col), [getattr(r, f) for r in recs]) for col, f in _STEP_COLUMNS]
            same = all(got.tobytes() == np.array(want, dtype=got.dtype).tobytes() for got, want in cols)
            report(f"bare step = run   {tag:3s} {loss_name:9s} T={T} predictions, losses, live, drifts, MAP ids "
                   f"bit for bit", same, started)
    for tag in ("lin", "log", "sub"):
        started = time.perf_counter()
        cfg = ExperimentConfig(scheme=tag, loss="bernoulli", horizon=T, seed=3, mode="both",
                               segments={"count": 2, "params": [0.2, 0.8]})
        try:
            summary, trace = run_experiment(cfg, write_files=False)
            cap_ok = summary["results"]["created_within_cap"]
            div = summary["results"]["lazy_eager_divergence"]
        except Exception as e:
            div, cap_ok = math.nan, False
            if verbose:
                print(f"agreement check    {tag:3s} raised: {e}")
        report(f"lazy/eager + caps  {tag:3s} divergence {div:.3g}, pool within cap: {cap_ok}",
               cap_ok and div == 0.0, started)
        # the schedule against the closed-form count, the engine's J_t against select_jt
        started = time.perf_counter()
        scheme = make_scheme(tag, horizon=T + 1)
        mix = Mixture(scheme, make_loss("bernoulli"), make_base("kt"))
        jt_ok = True
        for t, x in enumerate((rng.random(T) < 0.5).tolist(), start=1):
            jt_ok = jt_ok and mix.jt == select_jt(scheme, t)
            created = mix.step(x).created
        count = scheme.expert_count(T)
        report(f"schedule          {tag:3s} {created} copies by T={T}, closed form {count}, J_t as select_jt: "
               f"{jt_ok}", scheme.schedule(T)[0].size == created == count and jt_ok, started)
    if verbose:
        print("verify:", "all checks passed" if failures == 0 else f"{failures} check(s) FAILED")
    return 0 if failures == 0 else 1


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path) as f:
        d = json.load(f)
    if not isinstance(d, dict):
        raise ValueError(f"config {path} must hold a JSON object, not {type(d).__name__}")
    return d


def _apply_overrides(d: dict, args: argparse.Namespace) -> dict:
    """Overlay the command-line flags that were given and name config fields."""
    d.update((k, v) for k, v in vars(args).items() if v is not None and k in _CONFIG_KEYS)
    return d


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mixtrack", description="Tracking mixtures of restarting learners")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--scheme", choices=("lin", "log", "sub"))
        p.add_argument("--sub-a", dest="sub_a", type=float)
        p.add_argument("--sub-b", dest="sub_b", type=float)
        p.add_argument("--sub-c", dest="sub_c", type=float)
        p.add_argument("--loss")
        p.add_argument("--base")
        p.add_argument("--horizon", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--mode", choices=("lazy", "eager", "both"))
        p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")

    p_run = sub.add_parser("run", help="simulate one configuration")
    add_common(p_run)
    p_sweep = sub.add_parser("sweep", help="grid of configurations from the config's 'sweep' entry")
    add_common(p_sweep)
    sub.add_parser("verify", help="run built-in self-checks")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return verify()
        raw = _load_config(args.config)
        grid = raw.pop("sweep", None)
        config = ExperimentConfig.from_dict(_apply_overrides(raw, args))
        if args.command == "run":
            summary, _ = run_experiment(config)
            res = summary["results"]
            print(
                f"run {config.run_name()}: loss {res['total_loss']:.6f}, "
                f"oracle {res['oracle_loss']:.6f}, regret {res['regret']:.6f}, "
                f"pool {res['created_experts']}, work {res['total_work']}"
            )
            if "files" in summary:
                print("wrote", summary["files"]["csv"], "and", summary["files"]["json"])
            return 0
        if grid is None:
            raise ValueError("sweep needs a 'sweep' grid entry in the config")
        rows = sweep(config, grid)
        ok = sum(1 for r in rows if r["status"] == "ok")
        print(f"sweep: {ok}/{len(rows)} rows ok" + (f", wrote {config.out_dir}/sweep.csv" if config.out_dir else ""))
        return 0
    except BrokenPipeError:  # a reader closed stdout early; devnull keeps the interpreter's final flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
