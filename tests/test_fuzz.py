"""The three file readers fail only with ValueError or OSError, and the
CLI exits only with 0 or 1.

The CLI turns those two errors into exit code 1 and any other exception
into exit code 2, so whatever bytes a user hands load_csv, load_cost_file
or deserialize must end in one of them, and so must every command run on
them. The draws are derandomized, so every run tries the same inputs.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cstree import cli
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


# Mostly well-formed tables, so that commands get past loading, with values
# that stress the split scan: huge magnitudes, whose midpoints overflow, and
# neighbouring floats, whose midpoint rounds onto the upper one.
VALUES = st.integers(-3, 3).map(str) | st.sampled_from(
    ["0.5", "-0.0", "1e308", "1.5e308", "-1.5e308", "1.0000000000000002", "1.0000000000000004"]
)
BAD_LINES = st.sampled_from(["", "x,y", "1", "nan,p", "1e999,n", '"1,p', "a0,a0,y"])


@st.composite
def tables(draw):
    m = draw(st.integers(1, 3))
    lines = [",".join([f"a{i}" for i in range(m)] + ["y"])]
    for _ in range(draw(st.integers(2, 9))):
        # a third class now and then, which needs a matrix from the cost file
        cells = [draw(VALUES) for _ in range(m)] + [draw(st.sampled_from("pnpnpnq"))]
        lines.append(",".join(cells))
    if draw(st.sampled_from([False, False, True])):
        lines.insert(draw(st.integers(0, len(lines))), draw(BAD_LINES))
    return "\n".join(lines) + "\n"


COST_NUMBERS = st.integers(-1, 9) | st.sampled_from(
    [0.5, 1e-100, 1e300, 10**400, float("nan"), float("inf")]
)
COST_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "test_costs": st.lists(COST_NUMBERS, max_size=4),
        "mc_matrix": st.lists(st.lists(COST_NUMBERS, max_size=3), max_size=3),
    },
)
# the flags each command takes beyond its inputs; experiment always gets a
# few trials, as its default of 100 would take seconds
FLAGS = {
    "train": st.sampled_from(
        [[], ["--lambda", "-4"], ["--train-fraction", "0.5"], ["--prune", "none"],
         ["--min-leaf", "1"], ["--min-leaf", "0"], ["--lambda", "1"], ["--prune-on-tie"]]
    ),
    "prune": st.sampled_from([[], ["--prune-on-tie"], ["--mc-01", "5", "--mc-10", "1"]]),
    "sweep": st.sampled_from(
        [[], ["--prune", "both"], ["--lambda", "-1"], ["--train-fraction", "1"],
         ["--lambda-start", "-1", "--lambda-step", "0.3"], ["--cost-dist", "pareto"],
         ["--mc-01", "5", "--mc-10", "1"], ["--cost-upper", "0"]]
    ),
    "experiment": st.sampled_from(
        [["--trials", "1"], ["--trials", "2", "--prune", "post"], ["--trials", "0"],
         ["--trials", "1", "--cost-dist", "normal", "--lambda", "-2"],
         ["--trials", "1", "--train-fraction", "0.1"]]
    ),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


class TestCliExitsZeroOrOne:
    @settings(FUZZ, max_examples=80)
    @given(
        run=st.sampled_from(sorted(FLAGS)).flatmap(lambda c: st.tuples(st.just(c), FLAGS[c])),
        table=tables(),
        costs=st.one_of(
            st.none(), st.none(), COST_DOCS.map(json.dumps), JSON_VALUES.map(json.dumps)
        ),
        tree=TREES.map(json.dumps) | JSON_VALUES.map(json.dumps) | st.text(max_size=20),
    )
    @example(
        # a midpoint that rounds onto the upper value
        run=("train", ["--min-leaf", "1"]),
        table="a0,y\n1.0000000000000002,p\n1.0000000000000004,n\n1.0000000000000004,p\n",
        costs=None,
        tree="",
    )
    def test_main(self, workdir, run, table, costs, tree):
        command, flags = run
        (workdir / "data.csv").write_text(table, encoding="utf-8")
        argv = [command, "--data", str(workdir / "data.csv")]
        if costs is not None:
            (workdir / "costs.json").write_text(costs, encoding="utf-8")
            argv += ["--cost-file", str(workdir / "costs.json")]
        if command == "prune":
            (workdir / "tree.json").write_text(tree, encoding="utf-8")
            argv += ["--fixture", str(workdir / "tree.json")]
        argv += ["--out-csv", str(workdir / "out.csv"), "--out-json", str(workdir / "out.json")]
        if command != "experiment":
            argv += ["--tree-out", str(workdir / "out_tree.json")]
        argv += flags
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, 1), stderr.getvalue()
