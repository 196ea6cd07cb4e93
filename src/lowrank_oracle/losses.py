"""Quadratic-type losses with the curvature constants that drive the bounds.

A loss is of quadratic type on the prediction interval [-a, a] when it is
twice continuously differentiable and convex in the prediction with second
derivative bounded away from zero.  Two scalar constants summarize it:

* ``L(a)``: sup over responses y and predictions u of
  |d/du loss(y; u=0)| + d^2/du^2 loss(y; u) * a,
* ``tau(a)``: inf over the same range of the second derivative.

Both are computed by grid search over the response domain and [-a, a],
with exact closed forms overriding the grid for the built-in losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

GRID_SIZE_DEFAULT = 10_000
_Y_CHUNK = 128  # bounds peak memory of the (y, u) outer-product grids


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def points(self, n: int) -> np.ndarray:
        if self.hi < self.lo:
            raise ValidationError(f"empty interval [{self.lo}, {self.hi}]")
        if self.hi == self.lo:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, max(int(n), 2))


@dataclass(frozen=True)
class FiniteSet:
    values: tuple[float, ...]

    def points(self, n: int) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


ResponseDomain = Interval | FiniteSet


@dataclass(frozen=True)
class LossModel:
    """A loss with derivatives, its response-domain convention and optional
    closed forms.

    ``value``, ``d1``, ``d2`` are numpy-vectorized callables of (y, u).
    ``default_domain(a)`` gives the conventional response domain once the
    prediction bound ``a`` is fixed: the squared loss assumes responses in
    [-a, a], the exponential loss lives on {-1, +1}.  ``closed_form(a)``
    returns exact (L(a), tau(a)) when known.  ``quadratic_in_response``
    declares value = (y - u)^2 + C(u), so that d1 and d2 are affine in y
    and the empirical risk depends on each atom's responses only through
    their count, mean and centered sum of squares.
    """

    name: str
    value: Callable
    d1: Callable
    d2: Callable
    default_domain: Callable[[float], ResponseDomain]
    closed_form: Callable[[float], tuple[float, float]] | None = None
    quadratic_in_response: bool = False


@dataclass(frozen=True)
class LossConstants:
    """Curvature summary of a loss on predictions bounded by ``a``."""

    a: float
    smoothness: float  # L(a)
    curvature: float   # tau(a)


# -- squared loss -------------------------------------------------------------

def _squared_value(y, u):
    return (np.asarray(y, dtype=float) - u) ** 2


def _squared_d1(y, u):
    return -2.0 * (np.asarray(y, dtype=float) - u)


def _squared_d2(y, u):
    return np.full(np.broadcast_shapes(np.shape(y), np.shape(u)), 2.0)


def _squared_domain(a: float) -> Interval:
    return Interval(-a, a)


def _squared_closed_form(a: float) -> tuple[float, float]:
    return 4.0 * a, 2.0


def squared_loss() -> LossModel:
    """Regression loss (y - u)^2 with responses bounded like predictions."""
    return LossModel(
        name="squared",
        value=_squared_value,
        d1=_squared_d1,
        d2=_squared_d2,
        default_domain=_squared_domain,
        closed_form=_squared_closed_form,
        quadratic_in_response=True,
    )


# -- exponential loss ---------------------------------------------------------

def _exponential_value(y, u):
    return np.exp(-np.asarray(y, dtype=float) * u)


def _exponential_d1(y, u):
    y = np.asarray(y, dtype=float)
    return -y * np.exp(-y * u)


def _exponential_d2(y, u):
    y = np.asarray(y, dtype=float)
    return y * y * np.exp(-y * u)


def _exponential_domain(a: float) -> FiniteSet:
    return FiniteSet((-1.0, 1.0))


def _exponential_closed_form(a: float) -> tuple[float, float]:
    return 1.0 + a * math.exp(a), math.exp(-a)


def exponential_loss() -> LossModel:
    """Margin loss exp(-y u) for labels y in {-1, +1}."""
    return LossModel(
        name="exponential",
        value=_exponential_value,
        d1=_exponential_d1,
        d2=_exponential_d2,
        default_domain=_exponential_domain,
        closed_form=_exponential_closed_form,
    )


# -- registry -----------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], LossModel]] = {
    "squared": squared_loss,
    "exponential": exponential_loss,
}


def get_loss(name: str) -> LossModel:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown loss {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    return factory()


def register_loss(name: str, factory: Callable[[], LossModel]) -> None:
    """Register a custom loss for selection by name."""
    _REGISTRY[name] = factory


# -- constants ----------------------------------------------------------------

def loss_constants(
    loss: LossModel,
    a: float,
    grid_size: int = GRID_SIZE_DEFAULT,
    method: str = "auto",
) -> LossConstants:
    """Compute (L(a), tau(a)) for ``loss`` on predictions in [-a, a].

    ``method="auto"`` returns the loss's closed form when one exists;
    ``method="grid"`` forces the grid sup/inf over the loss's default
    response domain.  A nonpositive curvature infimum means the loss is not of
    quadratic type and is rejected.
    """
    if a < 0:
        raise ValidationError("prediction bound a must be nonnegative")
    if grid_size < 2:
        raise ValidationError("grid_size must be at least 2")
    if method not in ("auto", "grid"):
        raise ValidationError(f"unknown method {method!r}")

    if method == "auto" and loss.closed_form is not None:
        smoothness, curvature = loss.closed_form(a)
    else:
        ys = loss.default_domain(a).points(grid_size)
        us = np.array([0.0]) if a == 0 else np.linspace(-a, a, grid_size)
        smoothness = -np.inf
        curvature = np.inf
        for start in range(0, len(ys), _Y_CHUNK):
            y = ys[start : start + _Y_CHUNK, None]
            d2 = np.asarray(loss.d2(y, us[None, :]), dtype=float)
            bracket = np.abs(np.asarray(loss.d1(y, 0.0), dtype=float)) + d2 * a
            smoothness = max(smoothness, float(np.max(bracket)))
            curvature = min(curvature, float(np.min(d2)))

    if curvature <= 0:
        raise ValidationError(
            f"loss {loss.name!r} is not of quadratic type on [-{a}, {a}]: "
            f"curvature infimum {curvature:g} <= 0"
        )
    return LossConstants(a=a, smoothness=float(smoothness), curvature=float(curvature))


def q_value(loss: LossModel, domain: ResponseDomain, grid_size: int = GRID_SIZE_DEFAULT) -> float:
    """Sup over the response domain of the loss at prediction zero.

    Bounds the objective value at the zero matrix; drives the a-priori
    nuclear-norm bound Q / epsilon on any penalized minimizer.
    """
    ys = domain.points(grid_size)
    return float(np.max(np.asarray(loss.value(ys, 0.0), dtype=float)))
