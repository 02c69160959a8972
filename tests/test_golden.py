"""Golden sha256 hashes of the harness outputs for a fixed set of configs.

The README promises byte-identical CSV/JSON across reruns of a config;
these hashes extend that promise across refactors of the engine.  A
change that moves any predicted bit, trace column or summary figure
fails here.  The JSON is hashed with its ``files`` and ``out_dir``
entries dropped, since they hold the temporary output paths.  Update a
hash only for a change that is meant to alter the numbers, and say so
in CHANGES.md.

Bernoulli runs compute no transcendental with numpy's SIMD loops, so
their hashes hold under any CPU dispatch; square runs take ``np.exp``
and hold only for a numpy build and dispatch targets they were pinned
on, which a failure names.  Each fingerprint beside the first has its
own square hashes, checked in a subprocess that disables the other
targets.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import active_dispatch, cpu_fingerprint
from mixtrack.harness import ExperimentConfig, run_experiment

STREAM = {
    "bernoulli": ("piecewise-bernoulli", [0.2, 0.8]),
    "square": ("piecewise-gaussian-clipped", [-0.5, 0.5]),
}

# the numpy build and dispatch targets the hashes below were computed on
PINNED_ON = "numpy 2.4.6, dispatch X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

# (scheme, loss, mode) -> (CSV sha256, JSON sha256 without the paths); the
# two modes write the same CSV, while the JSON records the mode and its work
GOLDEN = {
    ("lin", "bernoulli", "eager"): (
        "df70b6b3f570143ece896aa90dc9029f8307e07f3b1f1bbc7e1dcc171df74123",
        "5ce24cd56062a2978604632523c5804cb2524d1d45a9144bc7fa0ff6ee70d953",
    ),
    ("lin", "bernoulli", "lazy"): (
        "df70b6b3f570143ece896aa90dc9029f8307e07f3b1f1bbc7e1dcc171df74123",
        "0e60627dda84e72e51567e506be10aefd82fc8bcd6b848b095f93d1b636a5e23",
    ),
    ("lin", "square", "eager"): (
        "ad57cae4ac193b20f1b62765fe9cfc15131589c73e8fb63b0bcb3965ed9613ba",
        "eea7e919b92961225e914d4348ca2111851f5b0838e21de50d9fb2dc76314b4e",
    ),
    ("lin", "square", "lazy"): (
        "ad57cae4ac193b20f1b62765fe9cfc15131589c73e8fb63b0bcb3965ed9613ba",
        "2566b314c4c8d1dfc2f4f3480a6edb1ca614025c6ae3c92a0b62798cb15bcdc2",
    ),
    ("log", "bernoulli", "eager"): (
        "fab7f345ab68aad52800ce9f2a2daf474c8a9cf84001f5e50928aff8fe7fefe6",
        "d93003cb606703a3ac2d7aa7769e8e519ddb5e5372a1e43decf942d82bb39349",
    ),
    ("log", "bernoulli", "lazy"): (
        "fab7f345ab68aad52800ce9f2a2daf474c8a9cf84001f5e50928aff8fe7fefe6",
        "4e1691d1b0094faf17a0a0365fa29e662f6e0ae6aa5288cad6da32fdb08ed113",
    ),
    ("log", "square", "eager"): (
        "3da9738f0c8e9fa0c6a9e0312496f5701e23370aad8a4f3e64da0aed7bc10867",
        "5c1a10b6623bec6c3686e474878249073c3b08b196cd1a80f9675c6ba9c2fba6",
    ),
    ("log", "square", "lazy"): (
        "3da9738f0c8e9fa0c6a9e0312496f5701e23370aad8a4f3e64da0aed7bc10867",
        "893e43b76500d69f4acd0d75a0a6fb2ee791010345652a15c1e7a63beb424a30",
    ),
    ("sub", "bernoulli", "eager"): (
        "e9a55399a6e7e71ba912db1fff3b6ed7b4bc89b7a890fd4550e98af0e144e867",
        "dccf642e96ef3c451f8553fbad3dc6d9b0207d998d7e3c98758e788888bbd55b",
    ),
    ("sub", "bernoulli", "lazy"): (
        "e9a55399a6e7e71ba912db1fff3b6ed7b4bc89b7a890fd4550e98af0e144e867",
        "401ac1b1b87a4271c7e6504a1879d9bcb45472a9e3b11b8a9d33daca9f0c88d1",
    ),
    ("sub", "square", "eager"): (
        "3505a6f2f9ba2ec7e1b602261b23aff987a1826b492565258a15f1f4bbff7d79",
        "d241ea4c0912fc48eb825aa3ba3eed47faab93fe4ae135428e83d288dfdf97e1",
    ),
    ("sub", "square", "lazy"): (
        "3505a6f2f9ba2ec7e1b602261b23aff987a1826b492565258a15f1f4bbff7d79",
        "e0663f21bf68e3578f877cc2b1d6c557495ae035ef7f309fc4ccc46e840c700b",
    ),
}

# (scheme, loss, mode, horizon) -> hashes of a run past 2^11 copies, which
# ``lin`` steps one round at a time and compiles through 2^13; bernoulli
# bytes hold under any dispatch
GOLDEN_LONG = {
    ("lin", "bernoulli", "eager", 2**12 + 1): (
        "eb2df305bc3a6265d4ffa9e97c67462dac98f203cce4000b16bc162cc958286d",
        "b8de3532509b879d3a58083b29aa9423d6efda93cf92611f1b00a5b2b4492e2e",
    ),
}

# the square hashes without the AVX-512 targets, whose np.exp rounds differently
_SQUARE_WITHOUT_AVX512 = {
    ("lin", "square", "eager"): (
        "7e465fa9053be8f153594bcb0c898e66916b5ffd6ef9bbea3067eff3dd353453",
        "eea7e919b92961225e914d4348ca2111851f5b0838e21de50d9fb2dc76314b4e",
    ),
    ("lin", "square", "lazy"): (
        "7e465fa9053be8f153594bcb0c898e66916b5ffd6ef9bbea3067eff3dd353453",
        "2566b314c4c8d1dfc2f4f3480a6edb1ca614025c6ae3c92a0b62798cb15bcdc2",
    ),
    ("log", "square", "eager"): (
        "45dfea7e192896ba8d96755c6199bbb0145e82921c444b874fb7a7348450bddb",
        "3155c9d6cde2f8a5903c4e593f1e6a5aff33cdae083b9ef9675e22d0f9fb28c3",
    ),
    ("log", "square", "lazy"): (
        "45dfea7e192896ba8d96755c6199bbb0145e82921c444b874fb7a7348450bddb",
        "45e81936df1b1261cdcc1d75c979ca28dcb9ec05906305e42930543dbb9b374a",
    ),
    ("sub", "square", "eager"): (
        "d66e29b034e410dbde54a4ad308abda0795ec0ac41d3f69cbc39483eeecb273e",
        "d241ea4c0912fc48eb825aa3ba3eed47faab93fe4ae135428e83d288dfdf97e1",
    ),
    ("sub", "square", "lazy"): (
        "d66e29b034e410dbde54a4ad308abda0795ec0ac41d3f69cbc39483eeecb273e",
        "e0663f21bf68e3578f877cc2b1d6c557495ae035ef7f309fc4ccc46e840c700b",
    ),
}

# square hashes by the fingerprint they were computed on, other than PINNED_ON
SQUARE_BY_FINGERPRINT = {
    "numpy 2.4.6, dispatch X86_V3": _SQUARE_WITHOUT_AVX512,
    "numpy 2.4.6, dispatch (baseline only)": _SQUARE_WITHOUT_AVX512,
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_hashes(scheme, loss, mode, out_dir, horizon=256):
    stream, params = STREAM[loss]
    cfg = ExperimentConfig(
        scheme=scheme,
        loss=loss,
        horizon=horizon,
        seed=11,
        mode=mode,
        stream=stream,
        segments={"count": 4, "params": params},
        out_dir=str(out_dir),
    )
    summary, _ = run_experiment(cfg)
    with open(summary["files"]["csv"], "rb") as f:
        csv_sha = _sha(f.read())
    with open(summary["files"]["json"]) as f:
        doc = json.load(f)
    del doc["files"]
    del doc["config"]["out_dir"]
    json_sha = _sha((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())
    return csv_sha, json_sha


def golden_for(fingerprint):
    """The hashes a run on ``fingerprint`` must produce: PINNED_ON's, unless it has its own square hashes."""
    return {**GOLDEN, **SQUARE_BY_FINGERPRINT.get(fingerprint, {})}


def _pinned_message(fingerprint):
    return f"square hashes pinned on {'; '.join([PINNED_ON, *SQUARE_BY_FINGERPRINT])}; this run: {fingerprint}"


@pytest.mark.parametrize("scheme, loss, mode", sorted(GOLDEN))
def test_outputs_match_golden_hashes(scheme, loss, mode, tmp_path):
    fingerprint = cpu_fingerprint()
    assert golden_hashes(scheme, loss, mode, tmp_path) == golden_for(fingerprint)[scheme, loss, mode], (
        _pinned_message(fingerprint)
    )


@pytest.mark.parametrize("scheme, loss, mode, horizon", sorted(GOLDEN_LONG))
def test_long_outputs_match_golden_hashes(scheme, loss, mode, horizon, tmp_path):
    assert golden_hashes(scheme, loss, mode, tmp_path, horizon) == GOLDEN_LONG[scheme, loss, mode, horizon]


# Prints the dispatch fingerprint, then the square cases' hashes as JSON
_SQUARE_PROBE = """
import json, tempfile
from helpers import cpu_fingerprint
from test_golden import GOLDEN, golden_hashes
print(cpu_fingerprint())
out = {}
for key in sorted(k for k in GOLDEN if k[1] == "square"):
    with tempfile.TemporaryDirectory() as tmp:
        out[" ".join(key)] = golden_hashes(*key, tmp)
print(json.dumps(out))
"""


@pytest.mark.parametrize("kept", [["X86_V3"], []], ids=["X86_V3", "baseline-only"])
def test_square_hashes_on_a_narrower_dispatch(kept):
    active = active_dispatch()
    if not set(kept) <= set(active):
        pytest.skip(f"dispatch target {kept} is not active on this CPU")
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    # targets this process runs with disabled stay disabled
    disabled = set(env.pop("NPY_DISABLE_CPU_FEATURES", "").split()) | set(active) - set(kept)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(sorted(disabled))
    proc = subprocess.run([sys.executable, "-c", _SQUARE_PROBE], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    fingerprint, hashes = proc.stdout.splitlines()
    assert fingerprint == f"numpy {np.__version__}, dispatch {' '.join(kept) or '(baseline only)'}"
    golden = golden_for(fingerprint)
    for key, pair in json.loads(hashes).items():
        assert tuple(pair) == golden[tuple(key.split())], (key, _pinned_message(fingerprint))
