"""Special functions and deterministic quadrature primitives.

Everything here is pure and stateless apart from a read-mostly cache of
Gauss-Hermite rules keyed by order, so all functions are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError, NumericError

__all__ = [
    "QuadratureRule",
    "gauss_hermite_rule",
    "laguerre_assoc_half",
    "laguerre_general",
    "gamma_half_integer",
]

SQRT_PI = math.sqrt(math.pi)

MAX_GH_ORDER = 512


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an n-point Gauss-Hermite rule.

    The rule approximates (exactly, for polynomials of degree <= 2n-1)

        integral e^{-t^2} f(t) dt  ~=  sum_i weights[i] * f(nodes[i])

    Nodes are strictly increasing and exactly antisymmetric about zero;
    weights are positive and sum to sqrt(pi).
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=None)
def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Build the Gauss-Hermite rule of the given order (1 <= order <= 512).

    Nodes come from the symmetric-tridiagonal companion matrix of the
    Hermite recurrence (Golub-Welsch, as implemented by numpy) and are then
    symmetrized exactly so that nodes[i] == -nodes[order-1-i] bitwise.

    Raises:
        ConfigError: order out of range.
        NumericError: construction produced non-increasing nodes or weights
            that are not positive (float64 underflow at extreme orders).
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ConfigError(f"quadrature order must be an integer, got {order!r}")
    if order < 1 or order > MAX_GH_ORDER:
        raise ConfigError(f"quadrature order must be in [1, {MAX_GH_ORDER}], got {order}")

    with np.errstate(all="ignore"):
        nodes, weights = np.polynomial.hermite.hermgauss(order)

    # Enforce the symmetry invariants exactly; hermgauss is symmetric only
    # to roundoff, and downstream parity arguments rely on exactness.
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])

    if np.any(np.diff(nodes) <= 0.0):
        raise NumericError(f"Gauss-Hermite nodes not strictly increasing at order {order}")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
        raise NumericError(
            f"Gauss-Hermite weights over/underflowed at order {order}; "
            "float64 cannot represent the extreme-node weights (order <= ~370 is safe)"
        )
    if abs(float(weights.sum()) - SQRT_PI) > 1e-12:
        raise NumericError(f"Gauss-Hermite weight sum off sqrt(pi) at order {order}")

    return QuadratureRule(order=order, nodes=nodes, weights=weights)


def laguerre_general(m: int, alpha: float, x):
    """Associated Laguerre polynomial L_m^alpha(x) by the three-term recurrence.

    (n+1) L_{n+1}^a = (2n+1+a-x) L_n^a - (n+a) L_{n-1}^a,
    L_0 = 1, L_1 = 1 + a - x.

    Accepts scalar or ndarray ``x``; returns a matching float/array.
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 0:
        raise DomainError(f"polynomial degree must be a non-negative integer, got {m!r}")
    x_arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x_arr)):
        raise DomainError("Laguerre argument must be finite")

    if m == 0:
        result = np.ones_like(x_arr)
    else:
        prev = np.ones_like(x_arr)
        cur = 1.0 + alpha - x_arr
        for n in range(1, m):
            prev, cur = cur, ((2 * n + 1 + alpha - x_arr) * cur - (n + alpha) * prev) / (n + 1)
        result = cur
    return float(result) if np.isscalar(x) or x_arr.ndim == 0 else result


def laguerre_assoc_half(m: int, x):
    """L_m^{-1/2}(x), the half-integer associated Laguerre polynomial."""
    return laguerre_general(m, -0.5, x)


def gamma_half_integer(m: int) -> float:
    """Gamma(m + 1/2) = ((2m-1)!! / 2^m) * sqrt(pi), exact in closed form."""
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 0:
        raise DomainError(f"half-integer gamma needs a non-negative integer, got {m!r}")
    # Exact integer double factorial, one float rounding at the very end.
    dfact = 1
    for k in range(3, 2 * m, 2):
        dfact *= k
    return (dfact / (2**m)) * SQRT_PI

