"""Second-order polynomial regression, as drawn in Figure 4 (right).

The paper summarises the output-size experiment by fitting a 2nd-order
polynomial per algorithm through the (output size, response time) points
and plotting the fitted curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["PolynomialFit", "fit_polynomial"]


@dataclass(frozen=True)
class PolynomialFit:
    """Least-squares fit ``time = c0 + c1 x + c2 x^2`` with its quality."""

    coefficients: tuple[float, ...]
    r_squared: float

    def predict(self, x: Sequence[float] | np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.polyval(self.coefficients[::-1], x)


def fit_polynomial(x: Sequence[float], y: Sequence[float],
                   degree: int = 2) -> PolynomialFit:
    """Fit ``y ~ poly(x)`` of the given degree; returns the coefficients
    in ascending-power order along with the R² of the fit."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if x.size < degree + 1:
        raise ValueError(
            f"need at least {degree + 1} points for a degree-{degree} fit"
        )
    coeffs_desc = np.polyfit(x, y, degree)
    predictions = np.polyval(coeffs_desc, x)
    residual = float(((y - predictions) ** 2).sum())
    total = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return PolynomialFit(tuple(coeffs_desc[::-1]), r_squared)

