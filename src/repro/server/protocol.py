"""The wire protocol: newline-delimited JSON requests and responses.

One request per line, one response per line, in order.  A request is a
JSON object::

    {"q": "retrieve (e.name) from e in Emp", "params": {...},
     "txn": "begin"|"commit"|"abort"|"atomic", "timeout": 2.5, "id": 7}

* ``q`` — an EXCESS/EXTRA script (any mix of DDL and DML statements);
* ``params`` — optional ``$name`` substitutions (int/float/str/bool),
  spliced as literals before parsing;
* ``txn`` — optional transaction control.  ``begin``/``commit``/
  ``abort`` bracket an explicit transaction held across requests
  (``q`` may ride along with ``begin``/``commit``); ``atomic`` runs
  this request's ``q`` as one transaction;
* ``timeout`` — per-query seconds, capped by the server's limit;
* ``explain`` — ``true`` (or ``"analyze"``): run a read-only script
  under tracing and return the last statement's EXPLAIN ANALYZE text
  (access-path annotations included) as ``explain`` in the response;
* ``id`` — opaque, echoed back.

The response::

    {"ok": true, "rows": [...], "kind": "retrieve", "statements": 2,
     "seconds": 0.0012, "stats": {...}, "id": 7}
    {"ok": false, "error": {"code": "timeout", "message": "..."}, "id": 7}

``rows`` is the last statement's result rendered with the storage
layer's tagged value encoding (:func:`repro.core.serialize.value_to_json`),
so references, tuples, arrays, and multisets survive the wire exactly.
The rows are written as JSON text directly, without building the tagged
dicts, and each distinct element of a multiset result is encoded once
and repeated per occurrence (the multiset is a map from element to
cardinality, §3.2.1).  The text is byte-for-byte
``json.dumps(value_to_json(row), separators=(",", ":"))``.

Error codes (:data:`ERROR_CODES`): ``protocol`` (malformed request),
``parse`` (bad EXCESS/EXTRA source), ``execute`` (runtime failure),
``txn`` (illegal transaction control), ``timeout``, ``admission``
(queue full / too many clients), ``shutdown`` (server draining).
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.serialize import value_to_json
from ..core.values import Arr, MultiSet, Null, Ref, Tup
from ..excess.pipeline import reads_only, statements

__all__ = ["ERROR_CODES", "EncodedRows", "ProtocolError", "Request",
           "decode_request", "encode_response", "error_response",
           "result_response", "classify_source", "bind_params"]

#: Every ``error.code`` a response can carry.
ERROR_CODES = ("protocol", "parse", "execute", "txn", "timeout",
               "admission", "shutdown")

#: Transaction-control verbs accepted in the ``txn`` field.
TXN_VERBS = ("begin", "commit", "abort", "atomic")


class ProtocolError(ValueError):
    """A malformed or illegal request; ``code`` picks the error code."""

    def __init__(self, message: str, code: str = "protocol"):
        super().__init__(message)
        assert code in ERROR_CODES
        self.code = code


class Request:
    """One decoded request line."""

    __slots__ = ("q", "params", "txn", "timeout", "id", "explain")

    def __init__(self, q: Optional[str], params: Dict[str, Any],
                 txn: Optional[str], timeout: Optional[float],
                 request_id: Any, explain: bool = False):
        self.q = q
        self.params = params
        self.txn = txn
        self.timeout = timeout
        self.id = request_id
        self.explain = explain


def decode_request(line: bytes) -> Request:
    """Parse one request line; raises :class:`ProtocolError`."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("request is not valid JSON: %s" % exc)
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    q = payload.get("q")
    if q is not None and not isinstance(q, str):
        raise ProtocolError('"q" must be a string')
    txn = payload.get("txn")
    if txn is not None and txn not in TXN_VERBS:
        raise ProtocolError('"txn" must be one of %s' % (TXN_VERBS,),
                            code="txn")
    if q is None and txn is None:
        raise ProtocolError('request needs "q" and/or "txn"')
    if txn == "atomic" and q is None:
        raise ProtocolError('"txn": "atomic" needs a "q" to run',
                            code="txn")
    params = payload.get("params") or {}
    if not isinstance(params, dict):
        raise ProtocolError('"params" must be an object')
    timeout = payload.get("timeout")
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            raise ProtocolError('"timeout" must be a positive number')
        timeout = float(timeout)
    explain = payload.get("explain", False)
    if explain not in (False, True, "analyze"):
        raise ProtocolError('"explain" must be true or "analyze"')
    return Request(q, params, txn, timeout, payload.get("id"),
                   explain=bool(explain))


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------

_encode = json.JSONEncoder(separators=(",", ":")).encode


class EncodedRows(list):
    """Response rows already rendered as JSON text, one string per row;
    :func:`encode_response` splices them into the line verbatim."""

    __slots__ = ()


def encode_response(payload: Dict[str, Any]) -> bytes:
    """The response line: ``json.dumps(payload, separators=(",", ":"))``
    with :class:`EncodedRows` written as the JSON array they spell."""
    rows = payload.get("rows")
    if not isinstance(rows, EncodedRows):
        return _encode(payload).encode("utf-8") + b"\n"
    members = ",".join(
        "%s:%s" % (_quote(key),
                   "[%s]" % ",".join(rows) if value is rows
                   else _encode(value))
        for key, value in payload.items())
    return ("{%s}\n" % members).encode("utf-8")


def error_response(code: str, message: str,
                   request_id: Any = None) -> Dict[str, Any]:
    assert code in ERROR_CODES, code
    out: Dict[str, Any] = {"ok": False,
                           "error": {"code": code, "message": message}}
    if request_id is not None:
        out["id"] = request_id
    return out


def result_response(results: List[Any], request_id: Any = None,
                    explain: Optional[str] = None) -> Dict[str, Any]:
    """Render a list of :class:`~repro.excess.pipeline.Result` objects
    (one script's worth) as the wire response; the last one's rows
    become :class:`EncodedRows` in :meth:`Result.rows` order.
    *explain* (the last statement's EXPLAIN ANALYZE text, when the
    request asked for it) rides along so remote ``.analyze`` output
    matches local."""
    out: Dict[str, Any] = {"ok": True, "statements": len(results)}
    if results:
        last = results[-1]
        out["kind"] = last.kind
        out["rows"] = _row_texts(last.value)
        out["seconds"] = sum(r.seconds for r in results)
        out["stats"] = last.stats.as_dict()
    else:
        out["kind"] = "empty"
        out["rows"] = []
        out["seconds"] = 0.0
        out["stats"] = {}
    if explain is not None:
        out["explain"] = explain
    if request_id is not None:
        out["id"] = request_id
    return out


def _row_texts(value: Any) -> EncodedRows:
    """*value*'s rows as :meth:`Result.rows` lists them — a multiset's
    occurrences, an array's items, else the value itself — each
    distinct multiset element encoded once."""
    rows = EncodedRows()
    if value is None:
        return rows
    if isinstance(value, MultiSet):
        for element, count in value.items():
            rows.extend([_row_text(element)] * count)
    elif isinstance(value, Arr):
        rows.extend(map(_row_text, value))
    else:
        rows.append(_row_text(value))
    return rows


class _NoRule(Exception):
    """The text encoder has no rule for a (sub)value."""


def _row_text(value: Any) -> str:
    try:
        return _text(value)
    except _NoRule:
        return _encode(value_to_json(value))


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


#: JSON text of each plain scalar type, as ``json.dumps`` writes it.
#: Exact types only: a subclass may override ``__repr__``.
_SCALARS: Dict[type, Callable[[Any], str]] = {
    str: _quote,
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    float: _float_text,
}


def _scalar(value: Any) -> str:
    """A JSON scalar inside the tagged encoding (names, oids, counts)."""
    if value is None:
        return "null"
    rule = _SCALARS.get(type(value))
    if rule is None:
        raise _NoRule
    return rule(value)


def _text(value: Any) -> str:
    """``_encode(value_to_json(value))``, written without the dicts."""
    kind = type(value)
    rule = _SCALARS.get(kind)
    if rule is not None:
        return '{"t":"val","v":%s}' % rule(value)
    if kind is Tup:
        return '{"t":"tup","type":%s,"fields":[%s]}' % (
            _scalar(value.type_name),
            ",".join(["[%s,%s]" % (_scalar(name), _text(item))
                      for name, item in value.fields]))
    if kind is MultiSet:
        return '{"t":"set","counts":[%s]}' % ",".join(
            ["[%s,%s]" % (_text(element), _scalar(count))
             for element, count in value.items()])
    if kind is Arr:
        return '{"t":"arr","items":[%s]}' % ",".join(map(_text, value))
    if kind is Ref:
        return '{"t":"ref","oid":%s,"type":%s}' % (
            _scalar(value.oid), _scalar(value.type_name))
    if kind is Null:
        return '{"t":"null","kind":%s}' % _quote(value.kind)
    raise _NoRule


# ---------------------------------------------------------------------------
# Parameter binding
# ---------------------------------------------------------------------------

def bind_params(source: str, params: Dict[str, Any]) -> str:
    """Splice ``$name`` placeholders as EXCESS literals.

    Values may be int, float, bool, or str.  The lexer has no string
    escapes, so a string is quoted with whichever quote character it
    does not contain; one containing both kinds is rejected.
    """
    if not params and "$" not in source:
        return source
    rendered: Dict[str, str] = {}
    for name, value in params.items():
        if not isinstance(name, str) or not name.isidentifier():
            raise ProtocolError("bad parameter name %r" % (name,))
        rendered[name] = _render_literal(name, value)
    out = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "$":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            name = source[i + 1:j]
            if name not in rendered:
                raise ProtocolError("unbound parameter $%s" % name)
            out.append(rendered[name])
            i = j
            continue
        if ch in "\"'":
            # Skip string literals so a $ inside one stays data.
            j = source.find(ch, i + 1)
            if j < 0:
                j = n - 1
            out.append(source[i:j + 1])
            i = j + 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _render_literal(name: str, value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # The lexer reads digits with an optional fraction: no exponent,
        # no nan/inf.  Write the shortest round-tripping digits
        # positionally, keeping a "." so the token stays a FLOAT.
        if not math.isfinite(value):
            raise ProtocolError("parameter $%s must be a finite number"
                                % name)
        text = repr(value)
        if "e" in text:
            text = format(Decimal(text), "f")
            if "." not in text:
                text += ".0"
        return text
    if isinstance(value, str):
        if '"' not in value:
            return '"%s"' % value
        if "'" not in value:
            return "'%s'" % value
        raise ProtocolError(
            "parameter $%s mixes both quote characters" % name)
    raise ProtocolError("parameter $%s has unsupported type %s"
                        % (name, type(value).__name__))


# ---------------------------------------------------------------------------
# Read/write classification
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def classify_source(source: str) -> str:
    """``"read"`` when every statement is side-effect-free (retrieves
    without ``into`` plus range declarations), else ``"write"``.

    Walks the pipeline's own statement iterator, so the verdict is the
    one :func:`repro.excess.pipeline.run_script` reaches when it
    decides whether a script's steps may be cached.  Anything
    unparseable classifies as a write, so the error surfaces on the
    serialized path with full session state available.  The verdict is
    a pure function of the text, so it is memoized on it: a repeated
    script is not parsed again.
    """
    try:
        return ("read" if all(map(reads_only, statements(source)))
                else "write")
    except Exception:
        return "write"
