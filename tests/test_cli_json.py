"""The CLI's JSON renderer against ``json.dumps(sort_keys=True, indent=2)``.

``triring ... --emit json`` writes its report through ``cli._json_text``,
which renders str-keyed dicts, lists, tuples and scalars itself and
hands any other payload to ``json.dumps`` whole.  Every payload must
come out byte for byte as ``json.dumps(payload, sort_keys=True,
indent=2)`` writes it, the fallback included.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from triring import cli
from triring.cli import run

#: characters ``json`` escapes or writes as \\u escapes
SPECIAL = '"\\/\x00\x01\x1f\x7f\b\f\n\r\t é€ \ud800😀'
text = st.text(alphabet=st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=12)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300, 5e-324]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(1 << 2000), 1 << 2000),
    floats,
    text,
)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(text, children, max_size=5),
        # int keys are not rendered; the whole payload goes to json.dumps
        st.dictionaries(st.integers(-5, 5), children, max_size=3),
    ),
    max_leaves=30,
)


def dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


@settings(max_examples=200, deadline=None)
@given(payload=trees)
def test_renderer_writes_what_json_dumps_writes(payload):
    assert cli._json_text(payload) == dumps(payload)


def test_empty_containers_and_fallbacks():
    for payload in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], {"k": [{}]}):
        assert cli._json_text(payload) == dumps(payload)
    # int keys, a str subclass and a bool key each go to json.dumps
    class Name(str):
        pass

    for payload in ({1: "a", -2: [1.5]}, {"x": Name("y\n")}, {True: None}, [{"a": 1}, {3: 4}]):
        assert cli._json_text(payload) == dumps(payload)


def test_verify_json_report_renders_as_json_dumps(capsys, monkeypatch):
    # the verify report holds floats, so no golden pins its bytes
    seen = []
    render = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda payload: seen.append(payload) or render(payload))
    code = run(["hyper", "verify", "--params", "1/5,1/4,1/2", "--order", "50", "--emit", "json"])
    out = capsys.readouterr().out
    assert code == 0 and len(seen) == 1
    assert isinstance(seen[0]["omega_residuals"][0], float)
    assert out == dumps(seen[0]) + "\n"
