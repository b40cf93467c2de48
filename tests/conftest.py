import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from ppda import parse_model

# CI selects this profile (--hypothesis-profile=ci): a failing example is
# printed with the blob that reproduces it, to become an @example
settings.register_profile("ci", print_blob=True)

MODELS = Path(__file__).parent.parent / "models"


def load_model(name: str):
    return parse_model((MODELS / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def tree():
    return load_model("tree.ppda")


@pytest.fixture(scope="session")
def ab():
    return load_model("ab.ppda")


@pytest.fixture(scope="session")
def twostate():
    return load_model("twostate.ppda")


@pytest.fixture(scope="session")
def delta(request):
    return load_model(f"delta{request.param}.bpa")


@pytest.fixture(scope="session")
def delta1():
    return load_model("delta1.bpa")


@pytest.fixture(scope="session")
def delta2():
    return load_model("delta2.bpa")


@pytest.fixture(scope="session")
def delta3():
    return load_model("delta3.bpa")


@pytest.fixture(scope="session")
def models_dir():
    return MODELS
