"""Every name a cstree module exports in __all__ exists.

perfbench/tracing.py looks up each exported name with getattr, so a stale
entry would stop a traced benchmark run.
"""

import importlib

import pytest

MODULES = (
    "cstree",
    "cstree.data",
    "cstree.costs",
    "cstree.tree",
    "cstree.pruning",
    "cstree.evaluation",
    "cstree.competition",
    "cstree.experiment",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
