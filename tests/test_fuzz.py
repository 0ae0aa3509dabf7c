"""The three file readers fail only with ValueError or OSError.

The CLI turns those two into exit code 1 and any other exception into
exit code 2, so whatever bytes a user hands load_csv, load_cost_file or
deserialize must end in one of them. The draws are derandomized, so every
run tries the same inputs.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cstree.costs import load_cost_file
from cstree.data import load_csv
from cstree.tree import deserialize

READ_ERRORS = (ValueError, OSError)

FUZZ = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# the keys the readers look for, so that drawn documents get past the
# first checks more often than arbitrary keys would
KEYS = st.sampled_from(
    ["lambda", "test_costs", "mc_matrix", "root", "leaf", "histogram",
     "attribute", "threshold", "left", "right"]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from([0, 1, 2**63, 10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=5),
    max_leaves=24,
)

NUMBERS = st.integers(-2, 3) | st.floats(-3, 3) | st.sampled_from([0.0, -0.0])
NODES = st.recursive(
    st.fixed_dictionaries(
        {"leaf": st.integers(-1, 2), "histogram": st.lists(st.integers(-1, 3), max_size=3)}
    ),
    lambda inner: st.fixed_dictionaries(
        {"attribute": st.integers(-1, 2), "threshold": NUMBERS, "left": inner, "right": inner}
    ),
    max_leaves=8,
)
TREES = st.fixed_dictionaries(
    {"lambda": NUMBERS, "test_costs": st.lists(NUMBERS, max_size=3), "root": NODES}
)

CSV_TEXT = st.text(alphabet=st.sampled_from(list('ab01.-e,"\n\r x')), max_size=120)
DEEP_JSON = "[" * 100_000 + "]" * 100_000
OVERSIZED_CELL = b"a,y\n" + b"1" * 200_000 + b",x\n2,z\n"


def _read(reader, path, data: bytes):
    path.write_bytes(data)
    try:
        reader(path)
    except READ_ERRORS:
        pass


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


class TestReadersRaiseOnlyValueErrorOrOSError:
    @FUZZ
    @given(data=CSV_TEXT.map(str.encode) | st.binary(max_size=60))
    @example(data=OVERSIZED_CELL)
    def test_load_csv(self, scratch, data):
        _read(load_csv, scratch, data)

    @FUZZ
    @given(data=JSON_VALUES.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=40))
    @example(data=DEEP_JSON.encode())
    def test_load_cost_file(self, scratch, data):
        _read(load_cost_file, scratch, data)

    @FUZZ
    @given(text=(JSON_VALUES | TREES).map(json.dumps) | st.text(max_size=40))
    @example(text=DEEP_JSON)
    def test_deserialize(self, text):
        try:
            deserialize(text)
        except READ_ERRORS:
            pass
