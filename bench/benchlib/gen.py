"""Seeded input generators and answer checkers.

The program under test only ever sees what this module generates: the
rows of ``Big``, and per-client lists of :class:`Op` (statement text
plus ``$k`` parameter).  Everything derives from the ``--seed``
argument through string-seeded :class:`random.Random` instances, so
the same seed gives the same inputs in any process, and
:func:`inputs_sha256` proves it.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional

POINT = "retrieve (t.v) from t in Big where t.k = $k"
RANGE = "retrieve (t.v) from t in Big where t.k < $k"
APPEND_LOG = "append to Log value ($k)"
APPEND_BIG = "append to Big (k = $k, v = 1)"

#: Rows of ``Big`` per wire workload.
BIG_ROWS = {"wire_hot": 30000, "wire_cold": 30000, "wire_mixed_rw": 2500}

#: Ops generated per closed-loop client; drivers cycle past the end,
#: which no workload reaches at today's speeds.
BLOCK = 32768

#: The paced writer's rate and its (never cycled) stream length:
#: 60 s, the longest window the contract allows, plus slack.
WRITE_RATE = 20.0
WRITER_OPS = 1500

#: One round of ``embedded_analytic``, in execution order.
ANALYTIC = (
    ("fig3", "retrieve (TopTen[5].name, TopTen[5].salary)"),
    ("fig4", 'retrieve (Employees.dept.name) '
             'where Employees.city = "Madison"'),
    ("fig5_boss", "retrieve (p.boss) from p in P"),
    ("fig5_rich", "retrieve (p.rich_subords) from p in P"),
    ("ex2_grp", "range of S is Students retrieve (S.name) "
                "by S.dept.division where S.dept.floor = 2"),
    ("nested_kids", "range of E is Employees retrieve (C.name) "
                    "from C in E.kids where E.dept.floor = 2"),
    ("unique_advisor", "retrieve unique (S.advisor.name) "
                       "from S in Students"),
)

#: ``build_university`` arguments of ``embedded_analytic`` (seed added
#: per run): P = 17 500 people, 7 520 stored objects — more than the
#: 4 096-entry deref cache holds.
UNIVERSITY = dict(n_departments=20, n_employees=5000, n_students=2500,
                  subords_per_employee=12, advisor_pool=50)


class Op(NamedTuple):
    kind: str          # point | range | log | big
    q: str
    k: int


def value_of(k: int) -> int:
    """``Big.v`` of the row with key *k* (set-up rows only)."""
    return k % 97


def _rng(workload: str, seed: int, who: str) -> random.Random:
    return random.Random("%s/%d/%s" % (workload, seed, who))


def _hot_keys(workload: str, seed: int) -> List[int]:
    return _rng(workload, seed, "keys").sample(
        range(BIG_ROWS[workload]), 8)


def streams(workload: str, seed: int) -> Dict[str, List[Op]]:
    """Client name -> that client's op list, for a wire workload."""
    rows = BIG_ROWS[workload]
    out: Dict[str, List[Op]] = {}
    if workload == "wire_hot":
        hot = _hot_keys(workload, seed)
        # ~1 % selectivity: one bound from each of 8 strata around
        # rows/100, so every seed returns ~300 rows on average.
        rng = _rng(workload, seed, "bounds")
        bounds = [rows // 100 - 16 + 4 * stratum + rng.randrange(4)
                  for stratum in range(8)]
        rng = _rng(workload, seed, "c0")
        out["c0"] = [
            Op("point", POINT, rng.choice(hot)) if rng.random() < 0.8
            else Op("range", RANGE, rng.choice(bounds))
            for _ in range(BLOCK)]
    elif workload == "wire_cold":
        rng = _rng(workload, seed, "c0")
        out["c0"] = [Op("point", POINT, rng.randrange(rows))
                     for _ in range(BLOCK)]
    elif workload == "wire_mixed_rw":
        hot = _hot_keys(workload, seed)
        rng = _rng(workload, seed, "reader")
        out["reader"] = [Op("point", POINT, rng.choice(hot))
                         for _ in range(BLOCK)]
        rng = _rng(workload, seed, "writer")
        # Every tenth append goes to Big, at a phase the seed picks: one
        # every half second, so equal time slices of the window hold
        # equally many of them.
        big_at = rng.randrange(10)
        out["writer"] = [Op("big", APPEND_BIG, rows + i)
                         if i % 10 == big_at else Op("log", APPEND_LOG, i)
                         for i in range(WRITER_OPS)]
    else:
        raise ValueError("no wire streams for workload %r" % workload)
    return out


def inputs_sha256(workload: str, seed: int,
                  ops: Optional[Dict[str, List[Op]]] = None) -> str:
    """Digest of everything the program is handed for this run."""
    if workload == "embedded_analytic":
        document: Any = [workload, dict(UNIVERSITY, seed=seed),
                         list(ANALYTIC)]
    else:
        ops = ops if ops is not None else streams(workload, seed)
        document = [workload, BIG_ROWS[workload],
                    {name: [list(op) for op in stream]
                     for name, stream in sorted(ops.items())}]
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Answer checking
# ---------------------------------------------------------------------------

_RANGE_ANSWERS: Dict[int, Counter] = {}


def reply_values(raw_rows: Any) -> Optional[List[Any]]:
    """The ``v`` of every ``(v: ...)`` row of a wire reply, or None
    when the reply is not shaped like one."""
    try:
        return [row["fields"][0][1]["v"] for row in raw_rows
                if row["fields"][0][0] == "v" and len(row["fields"]) == 1]
    except (KeyError, IndexError, TypeError):
        return None


def reply_ok(op: Op, raw_rows: Any) -> bool:
    """Is *raw_rows* the right answer to read *op*?  Point lookups must
    return exactly ``[k % 97]``; ranges the right cardinality and the
    right multiset of values."""
    values = reply_values(raw_rows)
    if values is None or len(values) != len(raw_rows):
        return False
    if op.kind == "point":
        return values == [value_of(op.k)]
    if op.kind == "range":
        expected = _RANGE_ANSWERS.get(op.k)
        if expected is None:
            expected = _RANGE_ANSWERS[op.k] = Counter(
                value_of(k) for k in range(op.k))
        return len(values) == op.k and Counter(values) == expected
    raise ValueError("op %r has no checkable reply" % (op,))
