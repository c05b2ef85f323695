from pathlib import Path

import pytest
from hypothesis import settings

from momentumrank import parse_gains_table

# no per-example deadline: one example writes and reads a file, whose time swings with the host's load
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def table2():
    return parse_gains_table(FIXTURES / "table2.csv")


@pytest.fixture(scope="session")
def abcd():
    return parse_gains_table(FIXTURES / "abcd.csv")
