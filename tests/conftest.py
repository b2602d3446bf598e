import pytest
from hypothesis import HealthCheck, settings

from cutnitsche.cutcell import classify
from cutnitsche.levelset import make_circle
from cutnitsche.mesh import build_mesh
from cutnitsche.space import build_spaces

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def circle_classified():
    """Cached (mesh, topo) per level for the default circle interface."""
    cache = {}

    def get(level, inclusion_side="minus"):
        key = (level, inclusion_side)
        if key not in cache:
            mesh = build_mesh(level)
            topo = classify(mesh, make_circle(inclusion_side=inclusion_side))
            cache[key] = (mesh, topo)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def circle_layout(circle_classified):
    """Cached space layout per level, circle interface; it holds the
    mesh and the cut topology."""
    cache = {}

    def get(level, inclusion_side="minus"):
        key = (level, inclusion_side)
        if key not in cache:
            cache[key] = build_spaces(circle_classified(level, inclusion_side)[1])
        return cache[key]

    return get
