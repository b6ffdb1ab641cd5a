"""Wire-protocol unit tests: decoding, parameter binding, read/write
classification, response shapes."""

import json
import math

import pytest
from hypothesis import given, settings

from repro.api import connect
from repro.core.serialize import value_to_json
from repro.core.values import Arr, MultiSet
from repro.excess import pipeline
from repro.excess.pipeline import Result
from repro.server.protocol import (ProtocolError, bind_params,
                                   classify_source, decode_request,
                                   encode_response, error_response,
                                   result_response)
from repro.storage import Database
from tests.storage.test_persist import wire_values


# -- decode_request ---------------------------------------------------------

def test_decode_minimal_query():
    request = decode_request(b'{"q": "retrieve (1)"}')
    assert request.q == "retrieve (1)"
    assert request.params == {}
    assert request.txn is None
    assert request.timeout is None


def test_decode_full_request():
    request = decode_request(
        b'{"q": "x", "params": {"a": 1}, "txn": "begin", '
        b'"timeout": 2.5, "id": 7}')
    assert request.params == {"a": 1}
    assert request.txn == "begin"
    assert request.timeout == 2.5
    assert request.id == 7


@pytest.mark.parametrize("line", [
    b"not json",
    b'"just a string"',
    b"[1, 2]",
    b'{"q": 42}',
    b"{}",
    b'{"q": "x", "params": [1]}',
    b'{"q": "x", "timeout": -1}',
    b'{"q": "x", "timeout": "soon"}',
])
def test_decode_rejects_malformed(line):
    with pytest.raises(ProtocolError):
        decode_request(line)


def test_decode_rejects_bad_txn_verb():
    with pytest.raises(ProtocolError) as err:
        decode_request(b'{"txn": "yolo"}')
    assert err.value.code == "txn"


def test_atomic_requires_a_script():
    with pytest.raises(ProtocolError):
        decode_request(b'{"txn": "atomic"}')


# -- bind_params ------------------------------------------------------------

def test_bind_int_float_str_bool():
    out = bind_params("retrieve (x) from x in C where x = $a and "
                      "y = $b and n = $name and f = $flag",
                      {"a": 3, "b": 2.5, "name": "ann", "flag": True})
    assert "x = 3" in out
    assert "y = 2.5" in out
    assert 'n = "ann"' in out
    assert "f = true" in out


def test_bind_string_quote_selection():
    assert bind_params("$s", {"s": 'say "hi"'}) == "'say \"hi\"'"
    with pytest.raises(ProtocolError):
        bind_params("$s", {"s": "both \" and '"})


def test_bind_unbound_and_unused_params():
    with pytest.raises(ProtocolError):
        bind_params("where x = $missing", {})
    # Unused params are fine (scripts are often templated).
    assert bind_params("retrieve (1)", {"spare": 1}) == "retrieve (1)"


def test_bind_dollar_inside_string_literal_is_data():
    out = bind_params('where n = "$notaparam" and k = $k', {"k": 9})
    assert '"$notaparam"' in out
    assert "k = 9" in out


def test_bind_rejects_exotic_types():
    with pytest.raises(ProtocolError):
        bind_params("$x", {"x": [1, 2]})


@pytest.mark.parametrize("value", [1e-05, 1e20, 1e300, -0.0, 0.1, 5e-324,
                                   -1.5e-07, 2.5])
def test_bind_float_round_trips_through_the_lexer(value):
    source = bind_params("retrieve ($p)", {"p": value})
    row, = connect(Database()).execute(source).rows()
    (_, got), = row.fields
    assert type(got) is float
    assert got == value
    assert math.copysign(1.0, got) == math.copysign(1.0, value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_bind_rejects_non_finite_floats(value):
    with pytest.raises(ProtocolError) as err:
        bind_params("retrieve ($p)", {"p": value})
    assert err.value.code == "protocol"


# -- classify_source --------------------------------------------------------

@pytest.mark.parametrize("source", [
    "retrieve (x) from x in C",
    "range of e is Emps retrieve (e.name)",
    "retrieve (x) from x in C retrieve (y) from y in D",
    "retrieve unique value (x.f) from x in C where x.f > 1",
])
def test_reads_classify_as_read(source):
    assert classify_source(source) == "read"


@pytest.mark.parametrize("source", [
    "append to C value (1)",
    "delete x where x > 1",
    "replace x (f = 1)",
    "create C: { int4 }",
    "define type T: (x: int4)",
    "retrieve (x) from x in C into Saved",
    "retrieve (x) from x in C append to D value (1)",
    "this is not a program",
])
def test_writes_and_garbage_classify_as_write(source):
    assert classify_source(source) == "write"


def test_classify_source_parses_a_text_once(monkeypatch):
    """The verdict is memoized on the text: read, write, DDL and
    unparseable scripts keep their verdicts, and a repeat is not
    lexed again."""
    import repro.server.protocol as protocol
    lexed = []

    def counting(source):
        lexed.append(source)
        return pipeline.statements(source)

    monkeypatch.setattr(protocol, "statements", counting)
    classify_source.cache_clear()
    verdicts = {"retrieve (x) from x in Memo": "read",
                "append to Memo value (1)": "write",
                "create Memo: { int4 }": "write",
                "retrieve ( from": "write"}
    for _ in range(3):
        for source, verdict in verdicts.items():
            assert classify_source(source) == verdict
    assert sorted(lexed) == sorted(verdicts)


# -- responses --------------------------------------------------------------

def test_error_response_shape():
    payload = error_response("timeout", "too slow", request_id=3)
    assert payload == {"ok": False, "id": 3,
                       "error": {"code": "timeout", "message": "too slow"}}
    line = encode_response(payload)
    assert line.endswith(b"\n")
    assert json.loads(line) == payload


def test_result_response_empty():
    payload = result_response([], request_id="r1")
    assert payload["ok"] is True
    assert payload["rows"] == []
    assert payload["kind"] == "empty"
    assert payload["id"] == "r1"


@settings(max_examples=300, deadline=None)
@given(wire_values)
def test_response_rows_are_the_tagged_encoding_byte_for_byte(value):
    """The text encoder writes exactly what ``json.dumps`` of
    ``value_to_json`` wrote, per row and in ``Result.rows()`` order,
    whether the value is a retrieve's multiset, an array or a scalar."""
    for shaped in (value, MultiSet(counts={value: 3}), Arr([value, value])):
        result = Result("retrieve", None, shaped)
        want = [value_to_json(row) for row in result.rows()]
        payload = result_response([result], request_id=1)
        texts = list(payload["rows"])
        assert texts == [json.dumps(row, separators=(",", ":"))
                         for row in want]
        line = encode_response(payload)
        decoded = json.loads(line)["rows"]
        # NaN != NaN, so compare the decoded rows through their text.
        assert ([json.dumps(row) for row in decoded]
                == [json.dumps(row) for row in want])
