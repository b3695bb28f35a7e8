"""Stub left where the compiled dominance kernel family used to live.

The family was removed: it never won end to end on a host that could
measure it.  This module exists only because ``e2e/`` reads
:func:`unavailable_reason` for its host tag; delete it when the
benchmark stops doing so.
"""

from __future__ import annotations

__all__ = ["unavailable_reason"]


def unavailable_reason() -> str:
    """Why ``core.native`` reports no timings: the family was removed."""
    return "removed: the compiled kernel family was deleted"
