import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
# pytest rewrites the shared helpers' asserts as it does the tests', so they
# still check under ``python -O``, which strips plain assert statements
pytest.register_assert_rewrite("util")

from util import three_var_network, tony_graph  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def tony():
    return tony_graph()


@pytest.fixture
def fig():
    return three_var_network()


@pytest.fixture
def data_dir():
    return DATA
