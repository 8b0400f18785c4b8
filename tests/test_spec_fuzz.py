"""Seeded spec fuzzer for the CLI front door: whatever a spec file holds,
`fdlink run` ends with exit 0, 2 or 3 and never with a traceback, and a
rejected spec (exit 2) writes nothing."""

import json
import os

import numpy as np

from fdlink.cli import main

BASE = {"config": {"subcarriers": 2, "antennas": 2, "streams": 1,
                   "noise_var": "-30 dB", "max_iters": 3},
        "sweep": {"param": "kappa_db", "values": [-40]},
        "algorithms": ["altqcp"], "n_trials": 1, "seed": 0}

# (valid, malformed) values per key: zeros, negatives, wrong types and bad
# dB strings; sizes stay at K <= 4 and max_iters <= 5 so valid specs run fast
CONFIG_VALUES = {
    "subcarriers": ([1, 4], [0, -1, "x", [2]]),
    "antennas": ([1, 2], [0, -2, "two", [2]]),
    "streams": ([1, [1, 1]], [0, 3, "x", [1]]),
    "p_max": ([0.5, [1.0, 2.0], 0], [-1.0, "x", [1.0]]),
    "noise_var": ([1e-3, "-20 dB"], [-1e-3, "x dB", [1e-3]]),
    "kappa": (["-60 dB", "10 dB", 0], [-0.1, "x dB", None]),
    "beta": (["-30 dB", 0], [-0.1, "x dB", {}]),
    "csi_radius": ([0.0, "-12 dB", 1e3], [-1, "x dB", [0.1]]),
    "rate_weights": ([[1.0, 2.0]], [[0.0, 1.0], [1.0], "x", 1.0]),
    "max_iters": ([0, 5], [-1, 2.5, "5", None]),
    "rel_tol": ([0.0, 1e-3], [-1e-6, "1e-3", None]),
    "tx_antennas": ([[2, 1], [1, 2]], [[0, 2], [2], "x"]),
    "rx_antennas": ([[1, 2]], [[2, 2, 2], [-1, 2], "x"]),
}
CHANNEL_VALUES = {
    "rho": ([1.0, "-30 dB", 0], [-1, "x dB", [1]]),
    "rho_si": (["0 dB", 0], [-1, "x dB", None]),
    "k_rician": ([0, 100], [-1, "x", [1]]),
}
SWEEP_VALUES = {
    "kappa_db": ([-60, 10], ["a"]),
    "zeta_db": ([-40, 0], ["a"]),
    "sigma2_db": ([-40, 0], ["a"]),
    "pmax": ([2.0, 0], [-1]),
    "K": ([1, 4, 2.5], [0, -1, "a"]),
    "M": ([1, 2], [0, -1, "a"]),
}
ALGORITHMS = ([["altqcp"], ["kappa0"], ["altqcp", "kappa0"]], ["altqcp", ["pth"]])


def _pick(rng, pools):
    values = pools[1] if rng.random() < 0.2 else pools[0]
    return values[rng.integers(len(values))]


def _draw_spec(rng):
    spec = json.loads(json.dumps(BASE))
    for key in rng.choice(sorted(CONFIG_VALUES), size=rng.integers(0, 4), replace=False):
        spec["config"][key] = _pick(rng, CONFIG_VALUES[key])
    for key in rng.choice(sorted(CHANNEL_VALUES), size=rng.integers(0, 3), replace=False):
        spec.setdefault("channel", {})[key] = _pick(rng, CHANNEL_VALUES[key])
    param = sorted(SWEEP_VALUES)[rng.integers(len(SWEEP_VALUES))]
    spec["sweep"] = {"param": param, "values": [_pick(rng, SWEEP_VALUES[param])]}
    spec["algorithms"] = _pick(rng, ALGORITHMS)
    return spec


def test_cli_run_fuzzed_specs(tmp_path, capsys):
    rng = np.random.default_rng(0)
    codes = []
    for n in range(60):
        spec = _draw_spec(rng)
        spec_path, out = tmp_path / f"spec{n}.json", tmp_path / f"out{n}"
        spec_path.write_text(json.dumps(spec))
        code = main(["run", "--spec", str(spec_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (spec, code)
        if code == 2:
            assert err.startswith("error:"), (spec, err)
            assert not os.path.exists(out), spec
        if code == 0:
            assert os.path.exists(out / "results.csv"), spec
        codes.append(code)
    # the draws reach both the designers and the front door's rejections
    assert codes.count(0) >= 10 and codes.count(2) >= 10
