"""Every public name list of the package resolves to a real attribute, the
package namespace holds exactly the pinned names, the scalar entry points
reject values that are not real numbers, integers or seeds, and the array
entry points reject arrays that are not numeric."""

import importlib
import os
import pkgutil

import numpy as np
import pytest

import dimcert
from dimcert.errors import InvalidInputError
from dimcert.moments import MomentPair
from dimcert.states import extended_basis

MODULES = ["dimcert"] + [
    f"dimcert.{info.name}" for info in pkgutil.iter_modules(dimcert.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    for public in getattr(mod, "__all__", ()):
        getattr(mod, public)


# the functions, the two state containers, the certificate type the
# bench self-test plants, the exceptions and the version; the other
# result types are importable from their modules only
PACKAGE_NAMES = {
    "DimcertError", "InvalidInputError", "NumericalConsistencyError",
    "DensityMatrix", "PureState", "family_state", "isotropic",
    "max_entangled", "partial_trace", "random_mixed", "random_pure",
    "read_state_json", "rho_w", "write_state_json",
    "correlation_data", "trace_norm",
    "SchmidtCertificate", "compare_all", "sn_ccnr", "sn_covariance",
    "sn_fidelity", "sn_reduction_map", "sn_trace_norm", "sn_two_norm",
    "exact_moments",
    "classify_point", "endpoint", "lower_boundary", "numeric_min_oracle",
    "outer_boundary_d3", "region_scatter", "two_norm_line",
    "analytic_noise_threshold", "detect_with_confidence",
    "estimate_moments", "haar_unitary", "noise_tolerance",
    "predicted_variance",
    "__version__",
}


def test_package_namespace_is_pinned():
    assert len(dimcert.__all__) == len(PACKAGE_NAMES) == 39
    assert set(dimcert.__all__) == PACKAGE_NAMES


_OK = {"std_s2": 0.01, "std_s4": 0.01, "cov_s2s4": 0.0, "k_sigma": 3.0}


def _classify_with(name):
    return lambda v: dimcert.classify_point(2.0, 1.5, 3, **{**_OK, name: v})


# each entry takes the bad value in one real-valued argument
REAL_ENTRY_POINTS = {
    "classify_point.s2": lambda v: dimcert.classify_point(v, 1.5, 3),
    "classify_point.s4": lambda v: dimcert.classify_point(2.0, v, 3),
    **{f"classify_point.{name}": _classify_with(name) for name in _OK},
    "lower_boundary": lambda v: dimcert.lower_boundary(3, 2, v),
    "lower_boundary.in-list": lambda v: dimcert.lower_boundary(3, 2, [0.5, v]),
    "numeric_min_oracle": lambda v: dimcert.numeric_min_oracle(3, 2, v),
    "outer_boundary_d3": lambda v: dimcert.outer_boundary_d3(v),
    "isotropic": lambda v: dimcert.isotropic(3, v),
    "family_state": lambda v: dimcert.family_state("A", v),
    "detect_with_confidence": lambda v: dimcert.detect_with_confidence(
        dimcert.max_entangled(3), 1000, k_sigma=v, seed=1),
    "MomentPair.s2": lambda v: MomentPair(v, 1.0),
    "MomentPair.s4": lambda v: MomentPair(1.0, v),
    "SchmidtCertificate.margin": lambda v: dimcert.SchmidtCertificate(
        "ccnr", 2, v),
}
NOT_REAL = {"str": "x", "numeric-str": "1", "none": None, "bool": True,
            "huge-int": 10 ** 400}

# each entry takes the bad value in one integer argument, with the largest
# integer below its range
INT_ENTRY_POINTS = {
    "region_scatter.seed": (lambda v: dimcert.region_scatter(3, 1, v), -1),
    "SchmidtCertificate.bound": (
        lambda v: dimcert.SchmidtCertificate("ccnr", v, 1.0), 0),
}
NOT_INT = {"str": "x", "numeric-str": "1", "none": None, "bool": True,
           "float": 1.5}

# each entry takes the bad value as its seed; None asks for a fresh seed
SEED_ENTRY_POINTS = {
    "random_pure.seed": lambda v: dimcert.random_pure(3, 3, v),
    "random_pure.seed-rank": lambda v: dimcert.random_pure(
        3, 3, v, schmidt_rank=2),
    "random_mixed.seed": lambda v: dimcert.random_mixed(3, 3, 2, v),
    "haar_unitary.seed": lambda v: dimcert.haar_unitary(3, v),
}
NOT_SEED = {**{k: v for k, v in NOT_INT.items() if k != "none"},
            "below-range": -1, "negative-in-sequence": [1, -2]}

CASES = [
    pytest.param(call, bad, id=f"{entry}-{bad_id}")
    for entry, call in REAL_ENTRY_POINTS.items()
    for bad_id, bad in NOT_REAL.items()
] + [
    pytest.param(call, bad, id=f"{entry}-{bad_id}")
    for entry, (call, below) in INT_ENTRY_POINTS.items()
    for bad_id, bad in {**NOT_INT, "below-range": below}.items()
] + [
    pytest.param(call, bad, id=f"{entry}-{bad_id}")
    for entry, call in SEED_ENTRY_POINTS.items()
    for bad_id, bad in NOT_SEED.items()
]


@pytest.mark.parametrize("call,bad", CASES)
def test_non_numeric_scalars_rejected(call, bad):
    with pytest.raises(InvalidInputError):
        call(bad)


# each entry takes the bad value as its array argument, next to a valid
# array that the bad values are made from
ARRAY_ENTRY_POINTS = {
    "DensityMatrix": (lambda v: dimcert.DensityMatrix(2, 2, v), [[0.25] * 4] * 4),
    "PureState": (lambda v: dimcert.PureState(2, 2, v), [1, 0, 0, 0]),
    "trace_norm": (dimcert.trace_norm, [[1, 0], [0, 1]]),
}


def _not_numeric(valid):
    """The accepted array as numeric strings, with one non-numeric string,
    and nested raggedly."""
    words = np.asarray(valid).astype(str)
    word = words.copy()
    word.flat[0] = "x"
    return {"numeric-str": words.tolist(), "str": word.tolist(),
            "ragged": [valid, [0]]}


ARRAY_CASES = [
    pytest.param(call, bad, id=f"{entry}-{bad_id}")
    for entry, (call, valid) in ARRAY_ENTRY_POINTS.items()
    for bad_id, bad in _not_numeric(valid).items()
]


@pytest.mark.parametrize("call,bad", ARRAY_CASES)
def test_non_numeric_arrays_rejected(call, bad):
    with pytest.raises(InvalidInputError, match="numeric array"):
        call(bad)


@pytest.mark.parametrize("bad", [0, 3, ["x"], None],
                         ids=["fd-0", "fd-3", "list", "none"])
def test_state_file_path_must_be_a_path(bad):
    # open() would take an integer as a file descriptor: 0 reads the
    # caller's stdin as a state file, then closes it
    with pytest.raises(InvalidInputError, match="str or os.PathLike"):
        dimcert.read_state_json(bad)


@pytest.mark.parametrize("bad", [None, 3.5, ["x"]], ids=["none", "float", "list"])
def test_state_file_writer_path_must_be_a_path(bad):
    with pytest.raises(InvalidInputError, match="str or os.PathLike"):
        dimcert.write_state_json(dimcert.max_entangled(2), bad)


def test_state_file_writer_leaves_an_integer_descriptor_open():
    # open() would write the state to an integer file descriptor and then
    # close it; the descriptor here is a duplicate of stderr
    fd = os.dup(2)
    try:
        with pytest.raises(InvalidInputError, match="str or os.PathLike"):
            dimcert.write_state_json(dimcert.max_entangled(2), fd)
        os.fstat(fd)
    finally:
        os.close(fd)


@pytest.mark.parametrize("make", [
    lambda: dimcert.random_mixed(3, 3, 2, 1),
    lambda: dimcert.random_pure(3, 3, 1),
    lambda: dimcert.correlation_data(dimcert.random_mixed(3, 3, 2, 1)),
], ids=["DensityMatrix", "PureState", "CorrelationData"])
def test_array_containers_compare_and_hash_by_identity(make):
    # a generated __eq__ would compare the array fields inside a tuple and
    # raise on the truth value of an array
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2


def test_estimator_results_compare_without_their_samples():
    def run(seed):
        return dimcert.estimate_moments(dimcert.max_entangled(3), 1000, seed,
                                        keep_samples=True)
    assert run(1) == run(1)
    assert run(1) != run(2)


@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
def test_valid_seeds_accepted(entry):
    # integer, numpy integer, sequence and Generator seeds give the stream
    # of np.random.default_rng on that seed; None draws a fresh one
    call = SEED_ENTRY_POINTS[entry]

    def data(out):
        return getattr(out, "amplitudes", getattr(out, "matrix", out))

    ref = data(call(np.random.default_rng(7)))
    assert np.array_equal(data(call(7)), ref)
    assert np.array_equal(data(call(np.int64(7))), ref)
    assert np.array_equal(data(call([7, 1])),
                          data(call(np.random.default_rng([7, 1]))))
    call(None)


@pytest.mark.parametrize("call", [
    lambda: dimcert.outer_boundary_d3(1.0, family=["A"]),
    lambda: extended_basis([3]),
], ids=["outer_boundary_d3.family", "extended_basis"])
def test_unhashable_arguments_rejected(call):
    # a lookup or a cache must not hash the argument before it is checked
    with pytest.raises(InvalidInputError):
        call()
