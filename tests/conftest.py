"""Shared fixtures: the desk-scale quivers and their (session-cached)
root systems and registries."""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from ncpq import RootSystem, build_registry, generate_roots, parse_quiver

A2_TEXT = "vertices 2\narrow 1 2\n"
A3_TEXT = "vertices 3\narrow 1 2\narrow 2 3\n"
A4_TEXT = "vertices 4\narrow 1 2\narrow 2 3\narrow 3 4\n"
D4_TEXT = "vertices 4\narrow 1 2\narrow 3 2\narrow 4 2\n"
KRONECKER_TEXT = "vertices 2\narrow 1 2\narrow 1 2\n"

QUIVER_TEXTS = {
    "a2": A2_TEXT,
    "a3": A3_TEXT,
    "a4": A4_TEXT,
    "d4": D4_TEXT,
    "kronecker": KRONECKER_TEXT,
}


def height_steps_with(at, wrong):
    """A `RootSystem.height_steps` to set on the class: the honest steps,
    except that the root `at` is given the step of the root `wrong`. As a
    property it overrides the steps an instance has already cached."""
    honest = RootSystem.height_steps.func

    def corrupted(self):
        steps, order = list(honest(self)), self.sorted_roots()
        steps[order.index(at)] = steps[order.index(wrong)]
        return tuple(steps)

    return property(corrupted)


@pytest.fixture(scope="session")
def a2():
    return parse_quiver(A2_TEXT)


@pytest.fixture(scope="session")
def a3():
    return parse_quiver(A3_TEXT)


@pytest.fixture(scope="session")
def a4():
    return parse_quiver(A4_TEXT)


@pytest.fixture(scope="session")
def d4():
    return parse_quiver(D4_TEXT)


@pytest.fixture(scope="session")
def kronecker():
    return parse_quiver(KRONECKER_TEXT)


@pytest.fixture(scope="session")
def a2_roots(a2):
    return generate_roots(a2)


@pytest.fixture(scope="session")
def a3_roots(a3):
    return generate_roots(a3)


@pytest.fixture(scope="session")
def a4_roots(a4):
    return generate_roots(a4)


@pytest.fixture(scope="session")
def d4_roots(d4):
    return generate_roots(d4)


@pytest.fixture(scope="session")
def a2_reg(a2, a2_roots):
    return build_registry(a2, a2_roots)


@pytest.fixture(scope="session")
def a3_reg(a3, a3_roots):
    return build_registry(a3, a3_roots)


@pytest.fixture(scope="session")
def a4_reg(a4, a4_roots):
    return build_registry(a4, a4_roots)


@pytest.fixture(scope="session")
def d4_reg(d4, d4_roots):
    return build_registry(d4, d4_roots)
