"""Every public name list of the package resolves to a real attribute, and
the scalar entry points reject values that are not real numbers."""

import importlib
import pkgutil

import pytest

import dimcert
from dimcert.errors import InvalidInputError

MODULES = ["dimcert"] + [
    f"dimcert.{info.name}" for info in pkgutil.iter_modules(dimcert.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    for public in getattr(mod, "__all__", ()):
        getattr(mod, public)


_OK = {"std_s2": 0.01, "std_s4": 0.01, "cov_s2s4": 0.0, "k_sigma": 3.0}


def _classify_with(name):
    return lambda v: dimcert.classify_point(2.0, 1.5, 3, **{**_OK, name: v})


# each entry takes the bad value in one real-valued argument
SCALAR_ENTRY_POINTS = {
    "classify_point.s2": lambda v: dimcert.classify_point(v, 1.5, 3),
    "classify_point.s4": lambda v: dimcert.classify_point(2.0, v, 3),
    **{f"classify_point.{name}": _classify_with(name) for name in _OK},
    "lower_boundary": lambda v: dimcert.lower_boundary(3, 2, v),
    "numeric_min_oracle": lambda v: dimcert.numeric_min_oracle(3, 2, v),
    "outer_boundary_d3": lambda v: dimcert.outer_boundary_d3(v),
    "isotropic": lambda v: dimcert.isotropic(3, v),
    "family_state": lambda v: dimcert.family_state("A", v),
    "detect_with_confidence": lambda v: dimcert.detect_with_confidence(
        dimcert.max_entangled(3), 1000, k_sigma=v, seed=1),
}


@pytest.mark.parametrize("bad", ["x", "1", None, True, 10 ** 400],
                         ids=["str", "numeric-str", "none", "bool", "huge-int"])
@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS)
def test_non_numeric_scalars_rejected(entry, bad):
    with pytest.raises(InvalidInputError):
        SCALAR_ENTRY_POINTS[entry](bad)
