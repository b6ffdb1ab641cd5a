"""Execution options: one immutable bag for every knob that shapes how
a statement runs, and the only way to pass one:

* construct once, pass to :func:`repro.connect` as ``options=``;
* derive variants with :meth:`ExecutionOptions.replace`;
* override per statement via ``Connection.execute(source, options=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from dataclasses import replace as _dc_replace
from typing import Any, Dict, Optional

__all__ = ["CHECKS", "ENGINES", "ExecutionOptions"]

#: The recognized execution engines, in increasing order of machinery:
#: tree-walking interpreter, streaming compiled pipelines, and columnar
#: batch pipelines.
ENGINES = ("interpreted", "compiled", "batched")

#: The static-check levels, in increasing order; each runs every level
#: before it.  ``"verify"`` gates execution on type inference (and hands
#: the compiled engine duplicate-freedom licences); ``"analyze"`` also
#: abstract-interprets the plan (prune statically-empty subtrees, clamp
#: the cost model with proven bounds, license bounds-check elision);
#: ``"sanitize"`` asserts every proven fact at runtime instead of
#: trusting it.
CHECKS = ("off", "verify", "analyze", "sanitize")


@dataclass(frozen=True)
class ExecutionOptions:
    """How statements execute: engine choice plus every cross-cutting
    switch that used to be its own keyword argument.

    * ``engine`` — ``"interpreted"``, ``"compiled"``, or ``"batched"``.
    * ``checks`` — static-check level, one of :data:`CHECKS`:
      ``"off"``, ``"verify"``, ``"analyze"``, or ``"sanitize"``.
    * ``trace`` — record per-operator spans on every statement.
    * ``access_paths`` — index probe policy handed to the compiled
      engines: ``"auto"`` (cost-gated), ``"force"``, or ``"off"``.
    * ``readers`` — size of the network server's snapshot-reader
      thread pool (``None`` = the server's default); local connections
      ignore it.
    """

    engine: str = "compiled"
    checks: str = "off"
    trace: bool = False
    access_paths: str = "auto"
    readers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError("engine must be one of %s, got %r"
                             % ("/".join(ENGINES), self.engine))
        if self.checks not in CHECKS:
            raise ValueError("checks must be one of %s, got %r"
                             % ("/".join(CHECKS), self.checks))
        if self.access_paths not in ("auto", "force", "off"):
            raise ValueError("access_paths must be 'auto', 'force', or "
                             "'off', got %r" % (self.access_paths,))
        if self.readers is not None and self.readers < 1:
            raise ValueError("readers must be >= 1, got %r"
                             % (self.readers,))

    def replace(self, **changes: Any) -> "ExecutionOptions":
        """A copy with *changes* applied (validation re-runs)."""
        return _dc_replace(self, **changes)

    def as_dict(self) -> Dict[str, Any]:
        """Field name → value (a fresh plain dict)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
