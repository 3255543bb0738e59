import pytest

from klcells import coxeter

_CACHE = {}

# type strings that name no finite Coxeter group: a rank the family lacks,
# a bond order or a second number on a family other than I, a stray or
# missing parenthesis, an unknown letter, an empty factor
REFUSED_TYPES = [
    "I7:5", "A3:7", "F4:2", "E6:1", "B4(3)", "H3(9)", "I2(5", "I2:6)",
    "Z9", "I2", "I2:1", "A0", "B1", "D2", "E9", "F5", "G3", "H5", "E",
    "I(1)", "F0", "A2x", "",
]


def system(name):
    """Built systems are immutable; share them across the whole session."""
    if name not in _CACHE:
        _CACHE[name] = coxeter.build_system(name)
    return _CACHE[name]


@pytest.fixture(scope="session")
def i24():
    return system("I2:4")


@pytest.fixture(scope="session")
def i26():
    return system("I2:6")


@pytest.fixture(scope="session")
def a2():
    return system("A2")


@pytest.fixture(scope="session")
def a3():
    return system("A3")


@pytest.fixture(scope="session")
def b3():
    return system("B3")


@pytest.fixture(scope="session")
def b4():
    return system("B4")


@pytest.fixture(scope="session")
def f4():
    return system("F4")
