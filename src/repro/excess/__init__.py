"""The EXCESS query language (Section 2.2) and its algebra bridge.

* :mod:`repro.excess.parser` — QUEL-style surface syntax;
* :mod:`repro.excess.translate` — EXCESS → algebra (theorem, part i);
* :mod:`repro.excess.printer` — algebra → EXCESS (theorem, part ii);
* :mod:`repro.excess.pipeline` — the one statement path: parse →
  translate → optimize → analyze/verify → lower → run;
* :mod:`repro.excess.session` — execution sessions mixing DDL and DML.
"""

from .builtins import BUILTINS, register_builtins
from .parser import Parser, parse
from .session import Result, Session
from .translate import TranslationError, Translator

__all__ = ["Parser", "parse", "Session", "Result",
           "Translator", "TranslationError", "BUILTINS",
           "register_builtins"]
