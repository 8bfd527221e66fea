import numpy as np
import pytest
from hypothesis import settings

from wildgraph import (
    Cell,
    GraphWeights,
    Membership,
    ParametricAugmentation,
    PopulationSpec,
    TheoryVariant,
    build_graph,
    build_toy_population,
)
from vertex_level import build_parametric_population

# property tests must be as reproducible as everything else
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

STANDARD_WEIGHTS = GraphWeights(5.0, 1.0)


def toy_bundle(variant=TheoryVariant.CASE_A, rho=1.0, alpha=0.03, beta=0.01, gamma=1e-6,
               weights=STANDARD_WEIGHTS):
    population, model = build_toy_population(variant, rho, alpha, beta, gamma)
    return build_graph(model, population, weights), population


@pytest.fixture(scope="session")
def case_a_bundle():
    return toy_bundle(TheoryVariant.CASE_A)


@pytest.fixture(scope="session")
def case_b_bundle():
    return toy_bundle(TheoryVariant.CASE_B)


def parametric_50_node():
    """Three known classes over four domains, 48 grid examples plus 2 novel."""
    cells = []
    for cls in (0, 1, 2):
        cells.append(Cell(cls, 0, Membership.LABELED_ID, 4))
    for cls in (0, 1, 2):
        for dom in (1, 2, 3):
            cells.append(Cell(cls, dom, Membership.WILD_COVARIATE, 4))
    cells.append(Cell(3, 3, Membership.WILD_SEMANTIC, 2))
    spec = PopulationSpec(classes=(0, 1, 2), domains=(0, 1, 2, 3), cells=tuple(cells))
    params = ParametricAugmentation(rho=1.0, alpha=0.05, beta=0.02, gamma=0.01)
    return build_parametric_population(spec, params)


@pytest.fixture(scope="session")
def bundle_50():
    population, model = parametric_50_node()
    return build_graph(model, population, STANDARD_WEIGHTS), population


def random_symmetric(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) * scale
    return 0.5 * (m + m.T)
