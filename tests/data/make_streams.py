"""Regenerate streams.json, the stored values of dimcert's seeded streams.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_streams.py

A change to any seeded sampler stream must regenerate this file, and the
diff of streams.json then shows which streams moved. The sample cases run
``estimate_moments(random_mixed(d, d, 3, seed=d), n, 5, path,
keep_samples=True)``; the sample counts cross the chunk and block edges.
The other streams are stored as their real and imaginary parts, or, under
``"values"``, as flat lists of numbers: the eighth moment of
``predicted_variance`` on both paths, the rows of ``region_scatter``, the
probes of a short ``noise_tolerance`` run and every number of one
``dimcert simulate`` JSON, in document order.
numpy does not promise Generator streams across its versions (NEP 19), so
the file records the numpy version it was made with.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from dimcert import cli
from dimcert.boundary import region_scatter
from dimcert.randsim import (
    BLOCK,
    estimate_moments,
    haar_unitary,
    noise_tolerance,
    predicted_variance,
)
from dimcert.states import random_mixed, random_pure

OUT = Path(__file__).with_name("streams.json")
SAMPLE_CASES = [(path, d, n)
                for path, dims in (("haar", (3, 5, 7)), ("bloch", (2, 3, 4)))
                for d in dims
                for n in (1000, BLOCK + 700, 3 * BLOCK + 700)]


def _complex(arr):
    return [arr.real.tolist(), arr.imag.tolist()]


def _numbers(obj):
    """The numbers of a JSON document in document order; booleans are not."""
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in _numbers(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return [obj] if type(obj) in (int, float) else []


def _simulate_numbers(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return _numbers(json.loads(out.getvalue()))


def values():
    """The flat-list streams: label -> list of numbers."""
    rho = random_mixed(3, 3, 3, seed=3)
    out = {}
    for path in ("haar", "bloch"):
        pv = predicted_variance(rho, 1000, 7, path, m8_samples=10_000)
        out[f"predicted_variance_{path}_m8"] = [pv.m8, pv.m8_std_error]
    out["region_scatter_3_12_5"] = [
        x for s2, s4, _, rank in region_scatter(3, 12, 5) for x in (s2, s4, rank)]
    out["noise_tolerance_3_2_1000_2_1"] = [
        x for e in noise_tolerance(3, 2, 1000, 2.0, 1).evaluations
        for x in (e["p"], e["bound"])]
    out["simulate_isotropic_3_0.2_2000_seed_4"] = _simulate_numbers(
        ["simulate", "--state", "isotropic", "--d", "3", "--p", "0.2",
         "--n", "2000", "--seed", "4"])
    return out


def streams():
    """Every stored stream, as the JSON-ready dict that streams.json holds."""
    samples = []
    for path, d, n in SAMPLE_CASES:
        x = estimate_moments(random_mixed(d, d, 3, seed=d), n, 5, path,
                             keep_samples=True).samples
        samples.append({"path": path, "d": d, "n": n, "head": x[:8].tolist(),
                        "sum": float(x.sum()), "sum_sq": float(x @ x)})
    return {
        "samples": samples,
        "haar_unitary_3_seed_0": _complex(haar_unitary(3, 0)),
        "random_pure_4x4_seed_1_rank_2": _complex(
            random_pure(4, 4, 1, schmidt_rank=2).amplitudes),
        "random_pure_3x5_seed_1_rank_2": _complex(
            random_pure(3, 5, 1, schmidt_rank=2).amplitudes),
        "random_pure_4x4_seed_1": _complex(random_pure(4, 4, 1).amplitudes),
        "random_mixed_3x3_rank_4_seed_1": _complex(
            random_mixed(3, 3, 4, 1).matrix),
        "values": values(),
    }


if __name__ == "__main__":
    OUT.write_text(json.dumps({"numpy": np.__version__, **streams()},
                              indent=1) + "\n")
