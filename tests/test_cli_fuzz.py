"""Property tests of the CLI input boundary.

Descriptors, table documents, system documents and size flags go through
`cli.main` with small caps.  Whatever the input, the CLI must exit 0, 1 or 2,
and every failure must leave a JSON error document on stderr instead of a
traceback.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from crossedprod.cli import main  # noqa: E402
from crossedprod.groups import make_group  # noqa: E402

CAP = ["--max-group-order", "4"]
ERROR_TYPES = {0: set(), 1: {"usage", "input"}, 2: {"cap-exceeded"}}
SETTINGS = settings(max_examples=150, deadline=None)


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in ERROR_TYPES
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        doc = json.loads(err.getvalue().splitlines()[-1])
        assert set(doc) == {"error"}
        assert doc["error"]["type"] in ERROR_TYPES[code]
    return code


# strategies ---------------------------------------------------------------------

small_ints = st.integers(-2, 6)
short_text = st.text(max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | short_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(short_text, inner, max_size=3),
    max_leaves=8,
)
matrices = st.lists(st.lists(small_ints, max_size=5), max_size=5)

atoms = st.one_of(
    st.sampled_from(["cyclic:1", "cyclic:2", "cyclic:3", "dihedral:4", "symmetric:2", "quaternion:8"]),
    st.builds(
        "{}:{}".format,
        st.sampled_from(["cyclic", "dihedral", "quaternion", "symmetric", "alternating", " Cyclic"]),
        st.one_of(small_ints, st.integers(5, 10**6), short_text),
    ),
    short_text,
)
descriptors = st.recursive(
    atoms, lambda inner: st.builds("product({},{})".format, inner, inner), max_leaves=4
)

# real group tables, relabelled so the identity may sit anywhere
GROUP_TABLES = [
    make_group(s).table
    for s in ("cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "product(cyclic:2,cyclic:2)")
]


@st.composite
def relabelled_tables(draw):
    table = draw(st.sampled_from(GROUP_TABLES))
    perm = draw(st.permutations(range(len(table))))
    inv = {v: k for k, v in enumerate(perm)}
    return [[perm[table[inv[x]][inv[y]]] for y in range(len(table))] for x in range(len(table))]


table_docs = st.fixed_dictionaries(
    {"table": relabelled_tables() | matrices | json_values},
    optional={"order": small_ints | json_values, "renumber": st.booleans(), "name": short_text},
)
groups = descriptors | table_docs


@st.composite
def near_systems(draw):
    """Documents on real groups with identity actions and arbitrary cocycles."""
    h = draw(st.sampled_from(["cyclic:1", "cyclic:2", "cyclic:3", "product(cyclic:2,cyclic:2)"]))
    g = draw(st.sampled_from(["cyclic:1", "cyclic:2", "cyclic:3"]))
    n, m = make_group(h).order, make_group(g).order
    value = st.integers(-1, n)
    return {
        "h": h,
        "g": g,
        "alpha": [list(range(n))] * m,
        "f": draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=m, max_size=m)),
    }


system_docs = near_systems() | json_values | st.fixed_dictionaries(
    {},
    optional={"h": groups, "g": groups, "alpha": matrices | json_values, "f": matrices | json_values},
)
sizes = small_ints.map(str) | st.integers(7, 10**9).map(str) | short_text
caps = st.integers(-2, 64).map(str) | short_text  # bounds the work of a valid request


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


# properties ---------------------------------------------------------------------


@SETTINGS
@given(spec=descriptors)
@example(spec="product(cyclic:200,cyclic:200)")
@example(spec="product(" * 2000 + "cyclic:1" + ",cyclic:1)" * 2000)
def test_descriptors_never_escape(spec):
    run(["decompose", "--group", spec, *CAP])


@SETTINGS
@given(doc=table_docs | json_values)
@example(doc={"order": 2, "table": [[0], [1, 0]], "renumber": True})
@example(doc={"order": 3, "table": [[1, 0, 7], [0, 1, 2], [7, 2, 0]], "renumber": True})
def test_table_documents_never_escape(doc_path, doc):
    doc_path.write_text(json.dumps(doc))
    run(["enumerate", "--h", f"table:@{doc_path}", "--g", "cyclic:1", *CAP])


@SETTINGS
@given(doc=system_docs)
@example(doc=[1, 2])
@example(doc={"h": "cyclic:2", "g": "cyclic:2", "alpha": 5, "f": [[0, 0], [0, 0]]})
def test_system_documents_never_escape(doc_path, doc):
    doc_path.write_text(json.dumps(doc))
    run(["build", "--system", f"@{doc_path}", *CAP])


@SETTINGS
@given(n=sizes, m=sizes, cap=caps)
@example(n="0", m="2", cap="8")
def test_size_flags_never_escape(n, m, cap):
    run(["holder", "--n", n, "--m", m, "--max-order", cap])


def test_deep_and_unreadable_documents_are_input_errors(doc_path):
    doc_path.write_text("[" * 100_000 + "]" * 100_000)
    for args in (
        ["build", "--system", f"@{doc_path}"],
        ["enumerate", "--h", f"table:@{doc_path}", "--g", "cyclic:1"],
        ["build", "--system", f"@{doc_path.parent}"],
        ["enumerate", "--h", f"table:@{doc_path.parent}", "--g", "cyclic:1"],
    ):
        assert run(args) == 1

