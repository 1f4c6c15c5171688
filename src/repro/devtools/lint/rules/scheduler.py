"""Scheduler rules (``SCH0xx``).

The fused settlement path is a correctness *and* performance contract:
every platform purchase made by scheduler code must flow through the
tick's settle loop (``_settle_requests`` → ``_flush_fused``) so that
cache visibility, journal group framing, admission-order charging, and
the ``batch_fused`` telemetry all stay consistent.  A direct
``compare_batch`` / ``submit_batch`` call sprinkled into scheduler code
silently bypasses all four.

The one sanctioned bypass — ``_serve_serial``, which buys the requests
the platform fast path cannot take (gold probes, fault plans, capped
ledgers, fallback pools) in their place in the settle loop — carries a
justified same-line suppression, which doubles as documentation that
the bypass is deliberate.
"""

from __future__ import annotations

import ast

from ..framework import Rule, register_rule

__all__ = ["DirectPlatformBatchRule"]

#: Platform entry points that buy judgments outside fused settlement.
_BATCH_CALLS = frozenset({"compare_batch", "submit_batch"})


@register_rule
class DirectPlatformBatchRule(Rule):
    """Direct platform batch call in scheduler code, bypassing fused
    settlement."""

    rule_id = "SCH001"
    summary = "direct platform batch call bypasses the scheduler settle loop"
    rationale = (
        "Scheduler code that calls compare_batch/submit_batch directly "
        "skips the tick's fused settlement: its spend is invisible to "
        "the cross-job cache overlap check, lands outside the journal "
        "group framing, and breaks the admission-order charge "
        "discipline the bit-identity contract rests on. Route requests "
        "through the settle loop; only the serial path for "
        "fast-path-ineligible requests justifies a suppression."
    )
    contexts = frozenset({"src"})

    def check(self) -> list:
        # Scoped to the scheduler package: elsewhere these calls are
        # the normal platform API.
        if "repro/scheduler/" not in self.source.path.as_posix():
            return []
        self.visit(self.source.tree)
        return self.violations

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _BATCH_CALLS:
            self.report(
                node,
                f".{func.attr}() called directly from scheduler code; "
                "route the request through the settle loop instead (or "
                "justify a suppression for a fast-path-ineligible request)",
            )
        self.generic_visit(node)
