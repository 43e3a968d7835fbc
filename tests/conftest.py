import os
import sys
from pathlib import Path

# make tests/oracle.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

import pytest

import antjam
from antjam.network import build_network


@pytest.fixture(scope="session")
def child_env():
    """The environment for a child Python: the directory antjam was imported
    from goes first on its PYTHONPATH, so the child imports the same package
    whether this process found it through PYTHONPATH, sys.path or an install."""
    found = str(Path(antjam.__file__).resolve().parent.parent)
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (found, os.environ.get("PYTHONPATH")))),
    }


@pytest.fixture
def unit_square():
    """Four nodes on a unit square, range 1.2, PE at node 2."""
    specs = [
        ((0.0, 0.0), 100.0, 1.2),
        ((1.0, 0.0), 100.0, 1.2),
        ((1.0, 1.0), 100.0, 1.2),
        ((0.0, 1.0), 100.0, 1.2),
    ]
    return build_network(specs, 2)


@pytest.fixture
def line3():
    """Three nodes in a row, unit spacing, PE at the end."""
    specs = [
        ((0.0, 0.0), 100.0, 1.5),
        ((1.0, 0.0), 100.0, 1.5),
        ((2.0, 0.0), 100.0, 1.5),
    ]
    return build_network(specs, 2)
