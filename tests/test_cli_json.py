"""The CLI's JSON renderer against ``json.dumps(sort_keys=True, indent=2)``.

``triring ... --emit json`` writes its report through ``cli._json_text``,
which renders str-keyed dicts, lists, tuples, scalars and series itself
and raises ``TypeError`` on anything else.  A series, rational
(``PuiseuxSeries``) or symbolic (``SymbolicSeries``), stands for its
``to_json_obj()`` and is written by its ``json_text`` straight from the
numerators.  Every payload must come out byte for byte as
``json.dumps(payload, sort_keys=True, indent=2)`` writes it with each
series replaced by its ``to_json_obj()``.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_series_kernel import exact_series
from triring import cli
from triring.cli import run
from triring.hypergeom import SymbolicSeries
from triring.series import PuiseuxSeries

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
    ),
    max_leaves=30,
)


def dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


@st.composite
def symbolic_series(draw):
    """Parts on several grids over 0 to 3 symbols; scaled copies share every step."""
    symbols = draw(st.sampled_from([(), ("s",), ("theta", "theta1"), ("a", "b", "c")]))
    monomials = draw(st.lists(
        st.tuples(*[st.integers(0, 3)] * len(symbols)), min_size=1, max_size=4, unique=True))
    base = draw(exact_series())
    parts = {}
    for m in monomials:
        scale = draw(st.sampled_from([None, 1, -2, Fraction(3, 7)]))
        parts[m] = draw(exact_series()) if scale is None else base.scale(scale)
    return SymbolicSeries(symbols, parts)


series = st.one_of(exact_series(), symbolic_series())
#: series nested in str-keyed dicts, lists and tuples among scalars
series_trees = st.recursive(
    st.one_of(series, scalars),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(text, children, max_size=4),
    ),
    max_leaves=8,
)


def plain(payload):
    """``payload`` with every series replaced by its ``to_json_obj()``."""
    if isinstance(payload, (PuiseuxSeries, SymbolicSeries)):
        return payload.to_json_obj()
    if isinstance(payload, dict):
        return {k: plain(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return type(payload)(plain(v) for v in payload)
    return payload


@settings(max_examples=200, deadline=None)
@given(payload=trees)
def test_renderer_writes_what_json_dumps_writes(payload):
    assert cli._json_text(payload) == dumps(payload)


@settings(max_examples=300, deadline=None)
@given(payload=series_trees)
def test_series_write_what_json_dumps_writes_of_their_json_obj(payload):
    assert cli._json_text(payload) == dumps(plain(payload))


def test_empty_and_off_grid_series():
    # an empty series is written with its prec as the base exponent
    for s in (PuiseuxSeries(3, {}, Fraction(5, 7)), PuiseuxSeries(2, {-3: 1, 4: 2}, Fraction(1, 3)),
              SymbolicSeries(("s",), {(1,): PuiseuxSeries(1, {}, 2)})):
        assert s.json_text() == dumps(s.to_json_obj())
        assert cli._json_text({"x": [s]}) == dumps({"x": [s.to_json_obj()]})


def test_empty_containers_and_fallbacks():
    for payload in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], {"k": [{}]}):
        assert cli._json_text(payload) == dumps(payload)
    # int keys, a str subclass and a bool key are not rendered
    class Name(str):
        pass

    for payload in ({1: "a", -2: [1.5]}, {"x": Name("y\n")}, {True: None}, [{"a": 1}, {3: 4}]):
        with pytest.raises(TypeError):
            cli._json_text(payload)


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


@pytest.mark.parametrize("argv", [
    ["params", "check", "1/5", "1/4", "1/2"],
    ["params", "eta", "--max-denominator", "8"],
    ["params", "residuals", "1/5", "1/4", "1/2"],
    ["ideal", "stable", "--params", "1/5,1/4,1/2", "--gen", "y0"],  # the unstable verdict
], ids=" ".join)
def test_unpinned_json_reports_render_as_json_dumps(capsys, argv):
    code = run([*argv, "--emit", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == dumps(json.loads(out)) + "\n"
