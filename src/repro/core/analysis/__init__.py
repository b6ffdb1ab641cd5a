"""Static analysis over algebra plans: inference, soundness, linting.

* :mod:`~repro.core.analysis.inference` — the one type checker:
  per-operator sort discipline plus inheritance-aware schema inference
  (DOM(S) substitutability, typed SET_APPLY narrowing, declared
  function signatures, method dispatch);
* :mod:`~repro.core.analysis.soundness` — the rewrite-soundness gate
  ("debug mode" for the optimizer) plus the offline rule sweep of
  :mod:`~repro.core.analysis.rulecheck`;
* :mod:`~repro.core.analysis.lint` — coded plan diagnostics (dead
  projections, redundant DE, dangling DEREF, dne-discard hazards,
  incomplete dispatch), fed by :mod:`~repro.core.analysis.nullflow`
  and :mod:`~repro.core.analysis.facts`;
* :mod:`~repro.core.analysis.absint` — a whole-plan abstract
  interpreter over cardinality, array-length, and value-range
  intervals; proves the L200-series diagnostics, extends
  :class:`PlanFacts` with engine/optimizer licenses, and powers the
  runtime sanitizer mode.

This package must stay importable without :mod:`repro.excess` —
the excess layer imports it, so anything excess-side is imported
lazily inside functions.
"""

from .absint import (AbsValue, Interval, PlanAnalysis, SanitizerError,
                     analyze)
from .diagnostics import (LINT_CODES, Diagnostic, Severity, SourceMap,
                          Span, sort_diagnostics)
from .facts import PlanFacts, duplicate_free, facts_for_database
from .inference import (AlgebraTypeError, TypeInference,
                        inference_for_database, substitutable)
from .lint import Linter, lint
from .nullflow import (NullFlow, NullInfo, info_of_value,
                       nullflow_for_database)
from .rulecheck import RuleCheckReport, verify_all_rules
from .soundness import (RewriteSoundnessError, SoundnessChecker,
                        schemas_compatible)

__all__ = [
    "AbsValue", "Interval", "PlanAnalysis", "SanitizerError", "analyze",
    "Diagnostic", "Severity", "Span", "SourceMap", "LINT_CODES",
    "sort_diagnostics",
    "PlanFacts", "duplicate_free", "facts_for_database",
    "AlgebraTypeError", "TypeInference", "inference_for_database",
    "substitutable",
    "Linter", "lint",
    "NullFlow", "NullInfo", "info_of_value", "nullflow_for_database",
    "RuleCheckReport", "verify_all_rules",
    "RewriteSoundnessError", "SoundnessChecker", "schemas_compatible",
]
