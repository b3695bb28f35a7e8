"""The screen thread budget: every screen is serial.

Pool workers parallelise across processes; inside a process each
``screen_block`` runs one serial kernel.  :func:`effective_budget`
remains only because the end-to-end benchmark's host tag reads it.
"""

from __future__ import annotations

__all__ = ["effective_budget"]


def effective_budget() -> int:
    """The number of threads one screen uses: always 1."""
    return 1
