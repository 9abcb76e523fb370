"""Fuzzing of the CLI's input boundary: any spec text and any matrix-file
content gives a result or a UsageError (exit 2), never another exception.

Examples are not stored (no example database), Hypothesis's other caches go
to a temporary directory, so the run writes no `.hypothesis/` directory, and
there is no deadline, so timing noise cannot fail it.
"""

import json
import shutil
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from anyonlat.cli import UsageError, load_matrix_file, parse_spec  # noqa: E402
from anyonlat.metric_groups import MetricGroup  # noqa: E402

# Hypothesis caches the constants it finds in the code under test in its home
# directory, `.hypothesis/` unless set otherwise; it writes there before any
# fixture of this module runs, so the home is set on import.
_HOME = tempfile.mkdtemp(prefix="hypothesis-home-")
set_hypothesis_home_dir(_HOME)


@pytest.fixture(autouse=True, scope="module")
def _remove_hypothesis_home():
    yield
    set_hypothesis_home_dir(None)
    shutil.rmtree(_HOME, ignore_errors=True)


FUZZ = settings(database=None, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# parse_spec bounds the digits of p, r and a bare n and the size of p^r before
# any trial division or power, so long digit runs are drawn too.
_FACTOR = r"[A-G]\[-?[0-9]{1,3}(\^-?[0-9]{1,2})?\]"
_LONG_FACTOR = r"[A-F]\[[0-9]{1,25}(\^[0-9]{1,25})?\]"
SPEC_TEXT = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="ABCDEFG[]^*0123456789 -+_.", max_size=24),
    st.from_regex(rf"{_FACTOR}(\*{_FACTOR}){{0,2}}", fullmatch=True),
    st.from_regex(rf"{_LONG_FACTOR}(\*{_LONG_FACTOR}){{0,2}}", fullmatch=True),
)

_ENTRY = st.integers(min_value=-50, max_value=50)
_ROWS = st.lists(st.lists(_ENTRY, min_size=1, max_size=4), min_size=1, max_size=4)
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)
MATRIX_TEXT = st.one_of(
    st.text(max_size=60),
    _ROWS.map(lambda rows: "\n".join(" ".join(map(str, row)) for row in rows)),
    st.builds(
        lambda gram, extra: json.dumps({"gram": gram, **extra}),
        st.one_of(_ROWS, _JSON_VALUE),
        st.dictionaries(st.sampled_from(["target", "comment", "other"]), _JSON_VALUE, max_size=2),
    ),
    _JSON_VALUE.map(lambda v: json.dumps(v)),
)


@FUZZ
@given(SPEC_TEXT)
def test_parse_spec_returns_a_group_or_raises_usage_error(text):
    try:
        group = parse_spec(text)
    except UsageError:
        return
    assert isinstance(group, MetricGroup)


@FUZZ
@given(st.one_of(MATRIX_TEXT.map(lambda t: t.encode("utf-8")), st.binary(max_size=40)))
def test_load_matrix_file_returns_a_matrix_or_raises_usage_error(tmp_path, data):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    try:
        gram, target = load_matrix_file(str(path))
    except UsageError:
        return
    assert gram and all(len(row) == len(gram) for row in gram)
    assert all(type(x) is int for row in gram for x in row)
    assert target is None or isinstance(target, str)
