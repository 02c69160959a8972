"""Golden sha256 hashes of the harness outputs for a fixed set of configs.

The README promises byte-identical CSV/JSON across reruns of a config;
these hashes extend that promise across refactors of the engine.  A
change that moves any predicted bit, trace column or summary figure
fails here.  The JSON is hashed with its ``files`` and ``out_dir``
entries dropped, since they hold the temporary output paths.  Update a
hash only for a change that is meant to alter the numbers, and say so
in CHANGES.md.
"""

import hashlib
import json

import pytest

from mixtrack.harness import ExperimentConfig, run_experiment

STREAM = {
    "bernoulli": ("piecewise-bernoulli", [0.2, 0.8]),
    "square": ("piecewise-gaussian-clipped", [-0.5, 0.5]),
}

# (scheme, loss, mode) -> (CSV sha256, JSON sha256 without the paths); the
# two modes write the same CSV, while the JSON records the mode and its work
GOLDEN = {
    ("lin", "bernoulli", "eager"): (
        "9a243fa4755854d54f55115a5fbd05fb4800bcb02431e690eeee2013cc75fbbb",
        "5ce24cd56062a2978604632523c5804cb2524d1d45a9144bc7fa0ff6ee70d953",
    ),
    ("lin", "bernoulli", "lazy"): (
        "9a243fa4755854d54f55115a5fbd05fb4800bcb02431e690eeee2013cc75fbbb",
        "0e60627dda84e72e51567e506be10aefd82fc8bcd6b848b095f93d1b636a5e23",
    ),
    ("lin", "square", "eager"): (
        "2af019d6aa501993f8498dcf3285ef27124f044b98aabdae1d6ea5cf61bd92f9",
        "562288e7780f8c81a52e370198cbc09bc2b100f4bb6f28aae789dbfbdc84838c",
    ),
    ("lin", "square", "lazy"): (
        "2af019d6aa501993f8498dcf3285ef27124f044b98aabdae1d6ea5cf61bd92f9",
        "a01f911a5583bb4c45f54f1b03a4bda529a01aad1a05580fda16d9197df28434",
    ),
    ("log", "bernoulli", "eager"): (
        "37d7026f160c2d015f067b0f44f00bbe0251221af2e730aaf3cf19367ae12843",
        "d93003cb606703a3ac2d7aa7769e8e519ddb5e5372a1e43decf942d82bb39349",
    ),
    ("log", "bernoulli", "lazy"): (
        "37d7026f160c2d015f067b0f44f00bbe0251221af2e730aaf3cf19367ae12843",
        "4e1691d1b0094faf17a0a0365fa29e662f6e0ae6aa5288cad6da32fdb08ed113",
    ),
    ("log", "square", "eager"): (
        "a96284ce37b1b3bf1f266e3074dc4b3cd0dd76f4ca1765e83f83020ec48bf39d",
        "3155c9d6cde2f8a5903c4e593f1e6a5aff33cdae083b9ef9675e22d0f9fb28c3",
    ),
    ("log", "square", "lazy"): (
        "a96284ce37b1b3bf1f266e3074dc4b3cd0dd76f4ca1765e83f83020ec48bf39d",
        "45e81936df1b1261cdcc1d75c979ca28dcb9ec05906305e42930543dbb9b374a",
    ),
    ("sub", "bernoulli", "eager"): (
        "a48fb9f9db35caaf414348fb6f5049e6b9b934bc1f3d066bd9d86da286866a81",
        "1940c16654d6f728435b3a86404010ebb06eee544f5fb44e9b708fac69b5b17d",
    ),
    ("sub", "bernoulli", "lazy"): (
        "a48fb9f9db35caaf414348fb6f5049e6b9b934bc1f3d066bd9d86da286866a81",
        "4dcc080cc47762afbe79b6dafe3eecda2229e074f006fdd08be0ad58b670ed9a",
    ),
    ("sub", "square", "eager"): (
        "0e7fdf5f3ea0234e7aa870fba5ae4e7890599074cd786636d649d4975c9e4bfb",
        "7e7806e5501e9f0c40e1001de059f15368c5d817140708ee6044dd17d232db4a",
    ),
    ("sub", "square", "lazy"): (
        "0e7fdf5f3ea0234e7aa870fba5ae4e7890599074cd786636d649d4975c9e4bfb",
        "915f7f6e3530e859c2c499c912362e9878979d01de94ae1134019499db5c1afb",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_hashes(scheme, loss, mode, out_dir):
    stream, params = STREAM[loss]
    cfg = ExperimentConfig(
        scheme=scheme,
        loss=loss,
        horizon=256,
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


@pytest.mark.parametrize("scheme, loss, mode", sorted(GOLDEN))
def test_outputs_match_golden_hashes(scheme, loss, mode, tmp_path):
    assert golden_hashes(scheme, loss, mode, tmp_path) == GOLDEN[scheme, loss, mode]
