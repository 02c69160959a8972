"""The benchmark's tracer patches mixtrack from outside; its contract must hold.

``perfbench/tracer.py`` wraps methods it reads from each class's own
``__dict__`` and functions it finds by identity in the mixtrack module
namespaces.  A refactor that moves a traced method into a base class, or
renames one, breaks ``install``; one that changes what ``step`` returns
breaks the row counters.  These tests catch both in the ordinary suite.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from mixtrack import make_base, make_loss, make_scheme
from mixtrack.mixture import Mixture

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def namespace_snapshot():
    """Every attribute of every mixtrack module and of the classes defined there."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "mixtrack" and not name.startswith("mixtrack."):
            continue
        for attr, val in vars(mod).items():
            out[(name, attr)] = val
            if isinstance(val, type) and val.__module__ == name:
                for key, member in vars(val).items():
                    out[(name, attr, key)] = member
    return out


def test_install_then_uninstall_restores_every_attribute():
    before = namespace_snapshot()
    tracer = load_tracer()()
    try:
        tracer.install()
        patched = {k for k, v in namespace_snapshot().items() if before.get(k) is not v}
    finally:
        tracer.uninstall()
    after = namespace_snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    for cls in ("SquareLoss", "BernoulliLogLoss"):
        for attr in ("evaluate", "substitute"):
            assert ("mixtrack.losses", cls, attr) in patched
    for attr in ("__init__", "step", "run"):
        assert ("mixtrack.mixture", "Mixture", attr) in patched
    assert ("mixtrack.harness", "_atomic_write") in patched


def test_traced_run_counts_steps_and_rows():
    T = 40
    xs = (np.random.default_rng(3).random(T) < 0.4).astype(float)
    tracer = load_tracer()()
    try:
        tracer.install()
        mix = Mixture(make_scheme("sub", horizon=T + 1), make_loss("bernoulli"), make_base("kt"), mode="lazy")
        trace = mix.run(xs)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["mixture.step.calls"]["value"] == T
    assert metrics["mixture.work_rows"]["value"] == trace.total_work
    assert metrics["mixture.live_rows"]["value"] == int(trace.live.sum())
