"""Output checks for the benchmark's runs, against ``reference``.

Every checker returns a list of failure messages; an empty list means the
output passed.  Tolerances:

* Bernoulli log loss: the mixture's total loss equals the path-sum bound
  within a relative 1e-12 (mean substitution makes the mixability
  inequality an equality, so only rounding separates them).
* Square loss: the total loss may not exceed the bound by more than a
  relative 1e-12 of rounding.
* Oracle and restart-oracle losses: a relative 1e-12 against the
  reference's own arithmetic.
* Everything the CSV states about itself (running sums, regret column,
  canonical float text) and everything the reference computes exactly
  (pool counts, designated periods, the stream) must match exactly.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import reference as ref

REL = 1e-12
CSV_HEADER = "t,outcome,prediction,step_loss,cum_loss,oracle_cum_loss,regret,jt_period,live_experts,created_experts"


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def reference_for(cfg: dict, xs: np.ndarray) -> dict:
    """Everything the checks need about one config, from the reference alone."""
    count = cfg["segments"]["count"]
    out = ref.path_sum(cfg["scheme"], cfg["loss"], xs)
    steps = ref.oracle_steps(cfg["loss"], xs, count)
    out["oracle_steps"] = steps
    out["oracle_loss"] = math.fsum(steps)
    out["restart_oracle_loss"] = ref.restart_oracle_loss(cfg["loss"], xs, count)
    out["created_total"] = ref.created_count(cfg["scheme"], xs.size)
    rows = out["live"] if cfg["mode"] == "lazy" else out["created"]
    out["work_total"] = int(rows.sum())
    return out


def check_stream(cfg: dict, xs: np.ndarray) -> list:
    want = ref.make_stream(
        cfg["stream"], cfg["horizon"], cfg["seed"], cfg["segments"]["count"], cfg["segments"]["params"]
    )
    if xs.shape != want.shape or xs.tobytes() != want.tobytes():
        return [f"{run_name(cfg)}: generated stream differs from the reference stream"]
    return []


def check_totals(cfg: dict, r: dict, *, total_loss, oracle_loss, created, work, segments) -> list:
    """Totals of one completed run against the path-sum bound and closed forms."""
    name, errs = run_name(cfg), []
    bound = r["bound"]
    if cfg["loss"] == "bernoulli":
        if not abs(total_loss - bound) <= REL * abs(bound):
            errs.append(f"{name}: total loss {total_loss!r} != path-sum identity {bound!r}")
    elif not total_loss <= bound + REL * abs(bound):
        errs.append(f"{name}: total loss {total_loss!r} exceeds the mixability bound {bound!r}")
    if not _close(oracle_loss, r["oracle_loss"]):
        errs.append(f"{name}: oracle loss {oracle_loss!r} != reference {r['oracle_loss']!r}")
    if created != r["created_total"]:
        errs.append(f"{name}: created_experts {created} != closed-form count {r['created_total']}")
    if work != r["work_total"]:
        errs.append(f"{name}: total work {work} != reference {r['work_total']}")
    if segments != cfg["segments"]["count"]:
        errs.append(f"{name}: {segments} segments, expected {cfg['segments']['count']}")
    return errs


def check_sweep_row(cfg: dict, r: dict, row: dict) -> list:
    """A sweep row carries regret, not total loss: total = regret + oracle loss."""
    S, T = cfg["segments"]["count"], cfg["horizon"]
    errs = check_totals(
        cfg,
        r,
        total_loss=row["regret"] + r["oracle_loss"],
        oracle_loss=r["oracle_loss"],
        created=row["created"],
        work=row["work"],
        segments=row["S"],
    )
    denom = S * math.log(T / S)
    if not _close(row["regret_per_s_logts"], row["regret"] / denom):
        errs.append(f"{run_name(cfg)}: regret_per_s_logts inconsistent with regret")
    return errs


def check_summary(cfg: dict, r: dict, summary: dict, step_losses: np.ndarray) -> list:
    """A run_experiment summary; ``step_losses`` are the trace's or the CSV's."""
    res = summary["results"]
    errs = check_totals(
        cfg,
        r,
        total_loss=res["total_loss"],
        oracle_loss=res["oracle_loss"],
        created=res["created_experts"],
        work=res["total_work"],
        segments=res["segments"],
    )
    name = run_name(cfg)
    if res["horizon"] != cfg["horizon"]:
        errs.append(f"{name}: horizon {res['horizon']} != {cfg['horizon']}")
    if not _close(res["total_loss"], math.fsum(step_losses)):
        errs.append(f"{name}: total loss is not the sum of the step losses")
    if res["regret"] != res["total_loss"] - res["oracle_loss"]:
        errs.append(f"{name}: regret != total loss - oracle loss")
    if not _close(res["restart_oracle_loss"], r["restart_oracle_loss"]):
        errs.append(f"{name}: restart oracle loss {res['restart_oracle_loss']!r} != {r['restart_oracle_loss']!r}")
    if any(summary["config"].get(k) != v for k, v in cfg.items()):
        errs.append(f"{name}: config echo differs from the config run")
    return errs


def check_same_steps(name: str, preds, losses, trace) -> list:
    """Bitwise equality of predictions and step losses with a trace."""
    p = np.asarray(preds, dtype=float)
    q = np.asarray(losses, dtype=float)
    if p.tobytes() != trace.predictions.tobytes() or q.tobytes() != trace.step_losses.tobytes():
        return [f"{name}: online predictions or step losses differ from Mixture.run"]
    return []


def _fmt(v: float) -> str:
    return repr(float(v))


def check_csv(cfg: dict, r: dict, xs: np.ndarray, trace, text: str, summary_regret: float) -> list:
    """Parse a written CSV back and check every column."""
    name = run_name(cfg) + ".csv"
    lines = text.split("\n")
    T = xs.size
    if lines[0] != CSV_HEADER:
        return [f"{name}: header differs"]
    if len(lines) != T + 2 or lines[-1] != "":
        return [f"{name}: expected {T} rows and a final newline, got {len(lines) - 2} rows"]
    try:
        rows = [line.split(",") for line in lines[1:-1]]
        if any(len(row) != 10 for row in rows):
            return [f"{name}: a row does not have 10 fields"]
        cols = list(zip(*rows))
        t = np.array([int(v) for v in cols[0]])
        num = [np.array([float(v) for v in cols[i]]) for i in range(1, 8)]
        live = np.array([int(v) for v in cols[8]])
        created = np.array([int(v) for v in cols[9]])
    except ValueError as e:
        return [f"{name}: unparsable field ({e})"]
    outcome, prediction, step_loss, cum_loss, oracle_cum, regret, jt_period = num
    errs = []
    canonical = [CSV_HEADER] + [
        ",".join([str(int(t[i]))] + [_fmt(c[i]) for c in num] + [str(int(live[i])), str(int(created[i]))])
        for i in range(T)
    ]
    if "\n".join(canonical) + "\n" != text:
        errs.append(f"{name}: a field is not in canonical form")
    if not np.array_equal(t, np.arange(1, T + 1)):
        errs.append(f"{name}: t column is not 1..T")
    if outcome.tobytes() != xs.tobytes():
        errs.append(f"{name}: outcome column differs from the stream")
    if prediction.tobytes() != trace.predictions.tobytes() or step_loss.tobytes() != trace.step_losses.tobytes():
        errs.append(f"{name}: prediction or step_loss column differs from the run's trace")
    running, acc = np.empty(T), 0.0
    for i, v in enumerate(step_loss.tolist()):
        acc += v
        running[i] = acc
    if cum_loss.tobytes() != running.tobytes():
        errs.append(f"{name}: cum_loss is not the running sum of step_loss")
    if oracle_cum.tobytes() != np.cumsum(r["oracle_steps"]).tobytes():
        errs.append(f"{name}: oracle_cum_loss differs from the reference oracle")
    if regret.tobytes() != (cum_loss - oracle_cum).tobytes():
        errs.append(f"{name}: regret != cum_loss - oracle_cum_loss")
    if not np.array_equal(jt_period, r["jt_period"]):
        errs.append(f"{name}: jt_period differs from the calendar's designated restarters")
    if not np.array_equal(live, r["live"]) or not np.array_equal(created, r["created"]):
        errs.append(f"{name}: live or created counts differ from the calendar")
    if not _close(float(regret[-1]), summary_regret, 1e-9):
        errs.append(f"{name}: final regret {regret[-1]!r} != JSON regret {summary_regret!r}")
    return errs


def check_json(cfg: dict, text: str, summary: dict) -> list:
    """The JSON file is the canonical dump of the summary the call returned."""
    name = run_name(cfg) + ".json"
    try:
        parsed = json.loads(text)
    except ValueError as e:
        return [f"{name}: unparsable ({e})"]
    if json.dumps(parsed, indent=2, sort_keys=True) + "\n" != text or parsed != summary:
        return [f"{name}: file differs from the returned summary"]
    return []


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_name(cfg: dict) -> str:
    return f"{cfg['scheme']}_{cfg['loss']}_T{cfg['horizon']}_seed{cfg['seed']}"
