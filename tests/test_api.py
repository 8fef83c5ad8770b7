"""Each covsel module's `__all__` is its public surface: every listed name
resolves, and every public function and class the module defines is listed."""

import importlib
import inspect
import pkgutil

import pytest

import covsel

MODULES = [
    importlib.import_module(f"covsel.{info.name}") for info in pkgutil.iter_modules(covsel.__path__)
]
WITH_ALL = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", WITH_ALL, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", WITH_ALL, ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(module):
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []


def test_one_rate_formula():
    # the per-pair ratios and the per-axis second moment are gone; the rate
    # as a matrix is one public step of the priors
    from covsel import asymptotics, priors, specialfn

    for module, name in [
        (specialfn, "hadamard_half_log_ratio"),
        (specialfn, "amgm_half_log_ratio"),
        (asymptotics, "second_moment_diag"),
    ]:
        assert not hasattr(module, name) and not hasattr(covsel, name)
    assert "rate_matrix" in priors.__all__ and covsel.rate_matrix is priors.rate_matrix
