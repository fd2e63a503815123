"""Property tests of the CLI's JSON readers: any JSON object handed to
`validate --in`, `eta --in` or `search --resume` is either read or rejected
with one `error:` line."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from eisenfold.cli import cli_main
from eisenfold.eisenstein import EisensteinInt
from eisenfold.search import SearchBudget, min_fold_search
from eisenfold.surface import build_complex

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

# near-valid documents, so that the field checks past the schema are reached
coloring_like = st.fixed_dictionaries({
    "schema": st.just("coloring.v1") | json_values,
    "complex_ref": st.fixed_dictionaries({
        "beta": st.lists(st.integers(-2, 2) | st.from_regex(r"-?[0-9]{1,2}", fullmatch=True)
                         | json_values, max_size=3),
    }) | json_values,
    "colors": st.text("01", max_size=16) | json_values,
})


def _readable(beta):
    faces = 2 * (beta[0] ** 2 + beta[0] * beta[1] + beta[1] ** 2)
    return st.fixed_dictionaries({
        "schema": st.just("coloring.v1"),
        "complex_ref": st.just({"beta": list(beta)}),
        "colors": st.text("01", min_size=faces, max_size=faces),
    })


# well-formed documents, good or not, so that the read path is reached too
readable = st.sampled_from([(1, 0), (1, 1), (0, 2), (1, 2)]).flatmap(_readable)


def _run(argv, doc):
    """Exit code and stdout of the command, with doc in a file after argv."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv + [path])
    finally:
        os.unlink(path)
    if code != 0:
        assert code == 1 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    return code, out.getvalue()


any_object = st.dictionaries(st.text(max_size=8), json_values, max_size=4)


@given(any_object | coloring_like | readable)
@settings(max_examples=300, deadline=None)
def test_validate_reads_or_rejects_any_json_object(doc):
    code, out = _run(["validate", "--in"], doc)
    if code == 0:
        assert json.loads(out)["schema"] == "validate.v1"


@given(any_object | coloring_like | readable)
@settings(max_examples=300, deadline=None)
def test_eta_reads_or_rejects_any_json_object(doc):
    code, out = _run(["eta", "--in"], doc)
    if code == 0:
        assert json.loads(out)["schema"] == "eta.v1"


def _checkpoint_1_2() -> dict:
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        min_fold_search(build_complex(EisensteinInt(1, 2)), mode="exact",
                        budget=SearchBudget(max_nodes=40), checkpoint_out=path)
        with open(path) as fh:
            return json.load(fh)
    finally:
        os.unlink(path)


# a real checkpoint with up to two fields replaced and up to one dropped, so
# that each field check of the reader is reached and so is a resumed search
CHECKPOINT = _checkpoint_1_2()
REPLACEMENTS = {
    "format": json_values,
    "beta": st.lists(st.integers(-1, 3), max_size=3) | json_values,
    "order": st.permutations(CHECKPOINT["order"]) | json_values,
    "incumbent_fold": st.integers(0, 20) | json_values,
    "incumbent_colors": st.text("01", max_size=16) | json_values,
    "frontier": st.lists(
        st.fixed_dictionaries({"prefix": st.text("01", max_size=16) | json_values})
        | json_values, max_size=3) | json_values,
    "nodes_explored": st.integers(-2, 100) | json_values,
}
checkpoint_like = st.tuples(
    st.lists(st.sampled_from(sorted(REPLACEMENTS)), max_size=2, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: REPLACEMENTS[k] for k in keys})),
    st.sets(st.sampled_from(sorted(CHECKPOINT)), max_size=1),
).map(lambda t: {k: t[0].get(k, v) for k, v in CHECKPOINT.items() if k not in t[1]})


@given(any_object | checkpoint_like)
@settings(max_examples=300, deadline=None)
def test_search_resume_reads_or_rejects_any_json_object(doc):
    code, out = _run(["search", "--beta", "1,2", "--resume"], doc)
    if code == 0:
        assert json.loads(out)["status"] == "ProvedOptimal"
