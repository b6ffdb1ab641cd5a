"""The compiled execution engine: streaming physical plans for EXCESS.

Public surface:

* :func:`compile_plan` — lower an algebra tree into a reusable
  :class:`Pipeline` of fused, streaming physical operators.
* :func:`compile_batch_plan` — the same physical algebra exchanging
  columnar :class:`Batch` objects between operators (tight-loop fused
  chains, per-OID suffix memoization, grouped method dispatch).
* :class:`Pipeline` — the compiled plan; ``execute(ctx)`` runs it,
  ``explain()`` shows the physical choices made.
* :class:`DerefCache` — the per-query OID → value LRU consulted by
  compiled DEREF (lives on ``EvalContext.deref_cache``).
* :func:`match_hash_join` / :class:`HashJoinMatch` — recognition of the
  rel_join (SET_APPLY ∘ σ ∘ ×) shape with an equality atom; shared with
  the optimizer's cost model so ranking matches what actually runs.

Select the engine at any entry point with ``mode="compiled"`` or
``mode="batched"`` — see :func:`repro.core.expr.evaluate`,
``excess.session.Session``, and the CLI's ``.engine`` meta-command.
"""

from .batch import (DEFAULT_BATCH_SIZE, Batch, BatchPlanCompiler,
                    compile_batch_plan)
from .cache import DEFAULT_CAPACITY, DerefCache
from .compiler import (HashJoinMatch, Pipeline, PlanCompiler, cached_deref,
                       compile_plan, match_hash_join)

__all__ = [
    "Batch",
    "BatchPlanCompiler",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_CAPACITY",
    "DerefCache",
    "HashJoinMatch",
    "Pipeline",
    "PlanCompiler",
    "cached_deref",
    "compile_batch_plan",
    "compile_plan",
    "match_hash_join",
]
