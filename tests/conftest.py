from pathlib import Path

import pytest

ASSETS = Path(__file__).parent / "assets"


@pytest.fixture(scope="session")
def assets_dir() -> Path:
    return ASSETS


@pytest.fixture(scope="session")
def sample_path() -> Path:
    return ASSETS / "diabetes_sample.csv"


@pytest.fixture(scope="session")
def sample(sample_path):
    from cstree.data import load_csv

    return load_csv(sample_path)


@pytest.fixture(scope="session")
def table_costs():
    from cstree.costs import TestCostVector

    return TestCostVector((4, 1, 4, 1, 7, 7, 8, 9))


@pytest.fixture(scope="session")
def example_mc():
    from cstree.costs import two_class_matrix

    return two_class_matrix(500.0, 50.0)


@pytest.fixture(scope="session")
def fixture_tree_path() -> Path:
    return ASSETS / "prune_example_tree.json"


@pytest.fixture(scope="session")
def costs_file_path() -> Path:
    return ASSETS / "example_costs.json"


@pytest.fixture()
def bound_fixture(fixture_tree_path, sample):
    from cstree.tree import check_training_rows, deserialize

    tree = deserialize(fixture_tree_path.read_text(encoding="utf-8"))
    check_training_rows(tree, sample)
    return tree
