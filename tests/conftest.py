from importlib import resources

import numpy as np
import pytest

from covsel.data import load_csv
from covsel.priors import GammaHyper, GammaVecHyper, HyperTriple, WishartHyper


@pytest.fixture(scope="session")
def iris_setosa():
    """The bundled setosa rows of Anderson's iris data."""
    path = resources.files("covsel") / "datasets" / "iris_setosa.csv"
    return load_csv(str(path))


@pytest.fixture(scope="session")
def iris_regression(iris_setosa):
    """(responses, covariate pool, names) of the worked regression example:
    [sepal width, sepal length] on {intercept, petal width, petal length}."""
    y = iris_setosa.select(["sepal_width", "sepal_length"]).rows
    pw = iris_setosa.select(["petal_width"]).rows[:, 0]
    pl = iris_setosa.select(["petal_length"]).rows[:, 0]
    x = np.column_stack([np.ones(len(pw)), pw, pl])
    return y, x, ("Int", "PW", "PL")


def stack_hypers(triples):
    """One triple whose rates stack those of `triples` along a leading
    replicate axis, with the shapes of the first triple."""
    a, d, c = triples[0]
    return HyperTriple(
        WishartHyper(a.alpha, np.stack([t.a.rate for t in triples])),
        GammaVecHyper(d.alpha, np.stack([t.d.rate for t in triples])),
        GammaHyper(c.alpha, np.array([t.c.rate for t in triples]), c.dim),
    )
