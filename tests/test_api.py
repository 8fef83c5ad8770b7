"""Each covsel module's `__all__` is its public surface: every listed name
resolves, and every public function and class the module defines is listed."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_special_functions_and_oracles_removed():
    # the chi-square tail lives in mcnemar; the evidence oracles are test helpers
    from covsel import specialfn, structures

    for module in (covsel, specialfn, structures):
        for name in ("chi_square_sf", "evidence_oracle"):
            assert not hasattr(module, name), (module.__name__, name)


def test_no_scipy_at_import():
    # numpy is the only runtime dependency
    code = (
        "import sys, covsel, covsel.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(covsel.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_no_csv_module_at_import():
    # the csv module serves only the reference reader, for texts numpy's reader declines
    code = "import sys, covsel.cli; print('csv' in sys.modules)"
    src = str(Path(covsel.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_no_numpy_ma_on_the_regress_path(tmp_path):
    # the stacked subset columns are written without numpy's masked arrays,
    # whose import costs every fresh process several milliseconds
    csv = tmp_path / "data.csv"
    rows = np.random.default_rng(5).standard_normal((20, 4))
    csv.write_text("a,b,c,d\n" + "\n".join(",".join(map(repr, r.tolist())) for r in rows))
    argv = ["regress", str(csv), "--response", "a", "b", "--covariates", "c", "d", "--enumerate"]
    code = (
        "import sys, covsel.cli; loaded = 'numpy.ma' in sys.modules; "
        f"covsel.cli.main({argv!r}); "
        "print(loaded, 'numpy.ma' in sys.modules, file=sys.stderr)"
    )
    src = str(Path(covsel.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert "| c, d |" in out.stdout
    assert out.stderr.splitlines()[-1] == "False False"


def test_regression_fit_has_no_hand_built_choice():
    # a subset's choice is read from the stacked criterion matrix, not from
    # a per-subset row of FitReport values
    from covsel.regression import RegressionFit
    from covsel.structures import FitReport

    assert not hasattr(RegressionFit, "best")
    assert not hasattr(FitReport, "criterion_value")


def test_one_output_path():
    # a report's JSON fields are named once (`StackFit.rows`), and the rank
    # order of the subsets is applied by one helper
    from covsel import regression, structures

    for module, name in [
        (structures, "_report_jsonable"),
        (structures, "_jsonable_reports"),
        (regression, "_Ranked"),
    ]:
        assert not hasattr(module, name), (module.__name__, name)


def test_precision_classes_carry_no_arithmetic():
    # log|H| and tr(H s) live once, in the evaluators the kernel calls;
    # the per-parameter functions are batches of one of them
    from covsel.precision import DiagPrecision, FullPrecision, IsoPrecision
    from covsel.structures import StackFit

    for cls in (FullPrecision, DiagPrecision, IsoPrecision):
        for name in ("log_det", "scatter_product"):
            assert not hasattr(cls, name), (cls.__name__, name)
    assert not hasattr(StackFit, "scatter_product")


def test_per_structure_rules_stated_once():
    # log|H|, the log-partition Hessian and the nesting order are `priors`' facts;
    # `structures` reads them rather than branching on C and D itself
    from covsel import priors, structures

    for module, name in [
        (structures, "_log_det_h"),
        (structures, "_hessian_logdet"),
        (priors, "_ORDER"),
    ]:
        assert not hasattr(module, name), (module.__name__, name)
    assert structures.SIMPLEST_FIRST is priors.SIMPLEST_FIRST


def test_regression_criteria_formed_in_the_kernel():
    # the regression's coefficient block enters `fit_structure`, so BIC and pcBIC
    # are formed once; the H-dependent algebra lives in `structures` and `priors`
    import dataclasses

    from covsel import regression
    from covsel.structures import StackFit

    assert not hasattr(regression, "_regression_fit")
    assert "log_det_map" not in {f.name for f in dataclasses.fields(StackFit)}
    for name in ("_dot", "family", "LOG_PI"):
        assert not hasattr(regression, name), name
