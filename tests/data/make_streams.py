"""Regenerate streams.json, the stored values of dimcert's seeded streams.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_streams.py

A change to any seeded sampler stream must regenerate this file, and the
diff of streams.json then shows which streams moved. The sample cases run
``estimate_moments(random_mixed(d, d, 3, seed=d), n, 5, path,
keep_samples=True)``; the sample counts cross the chunk and block edges.
numpy does not promise Generator streams across its versions (NEP 19), so
the file records the numpy version it was made with.
"""

import json
from pathlib import Path

import numpy as np

from dimcert.randsim import BLOCK, estimate_moments, haar_unitary
from dimcert.states import random_mixed, random_pure

OUT = Path(__file__).with_name("streams.json")
SAMPLE_CASES = [(path, d, n)
                for path, dims in (("haar", (3, 5, 7)), ("bloch", (2, 3, 4)))
                for d in dims
                for n in (1000, BLOCK + 700, 3 * BLOCK + 700)]


def _complex(arr):
    return [arr.real.tolist(), arr.imag.tolist()]


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
    }


if __name__ == "__main__":
    OUT.write_text(json.dumps({"numpy": np.__version__, **streams()},
                              indent=1) + "\n")
