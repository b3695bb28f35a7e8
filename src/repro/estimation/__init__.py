"""Output-size estimation (paper Section 8)."""

from .cardinality import (estimate_by_extrapolation, estimate_pskyline_size,
                          harmonic_skyline_size,
                          harmonic_skyline_size_approx)

__all__ = [
    "harmonic_skyline_size",
    "harmonic_skyline_size_approx",
    "estimate_pskyline_size",
    "estimate_by_extrapolation",
]
