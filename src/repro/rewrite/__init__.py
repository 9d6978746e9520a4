"""Query rewriting over summary tables, plus the matching fast path (AST
candidate index + rewrite decision cache)."""

from repro.rewrite.cache import RewriteStats
from repro.rewrite.index import (
    SummarySignature,
    graph_signature,
    prune_candidates,
    summary_signature,
)
from repro.rewrite.rewriter import AppliedRewrite, RewriteResult, apply_match, rewrite_query

__all__ = [
    "AppliedRewrite",
    "RewriteResult",
    "RewriteStats",
    "SummarySignature",
    "apply_match",
    "graph_signature",
    "prune_candidates",
    "rewrite_query",
    "summary_signature",
]
