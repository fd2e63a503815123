"""Property tests of the CLI's JSON readers: any JSON object handed to
`validate --in` is either read or rejected with one `error:` line."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from eisenfold.cli import cli_main

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


@given(st.dictionaries(st.text(max_size=8), json_values, max_size=4) | coloring_like | readable)
@settings(max_examples=300, deadline=None)
def test_validate_reads_or_rejects_any_json_object(doc):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["validate", "--in", path])
    finally:
        os.unlink(path)
    if code == 0:
        assert json.loads(out.getvalue())["schema"] == "validate.v1"
    else:
        assert code == 1 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
