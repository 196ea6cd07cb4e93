import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_oracle import (
    FiniteSet,
    Interval,
    LossModel,
    ValidationError,
    exponential_loss,
    get_loss,
    loss_constants,
    q_value,
    register_loss,
    squared_loss,
)

from helpers import curvature_lower_bound_check

LOSSES = [squared_loss(), exponential_loss()]


def test_squared_closed_form_constants():
    for a in (0.5, 1.0, 2.5):
        constants = loss_constants(squared_loss(), a)
        assert constants.smoothness == 4.0 * a
        assert constants.curvature == 2.0


def test_squared_grid_agrees_with_closed_form():
    for a in (0.5, 1.0, 2.5):
        grid = loss_constants(squared_loss(), a, grid_size=1001, method="grid")
        assert grid.smoothness == pytest.approx(4.0 * a, rel=1e-12)
        assert grid.curvature == pytest.approx(2.0, rel=1e-12)


def test_squared_loss_values():
    loss = squared_loss()
    for y in (-1.0, 0.3, 2.0):
        assert loss.value(y, y) == 0.0
    assert loss.value(3.0, 1.0) == pytest.approx(4.0)
    assert loss.d1(3.0, 1.0) == pytest.approx(-4.0)


def test_exponential_constants_match_analytic_form():
    for a in (0.5, 1.0, 2.0):
        grid = loss_constants(exponential_loss(), a, method="grid")
        assert grid.smoothness == pytest.approx(1.0 + a * math.exp(a), rel=1e-6)
        assert grid.curvature == pytest.approx(math.exp(-a), rel=1e-6)
    closed = loss_constants(exponential_loss(), 1.0)
    assert closed.smoothness == pytest.approx(1.0 + math.e, rel=1e-12)
    assert closed.curvature == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_exponential_degenerate_interval():
    constants = loss_constants(exponential_loss(), 0.0, method="grid")
    assert constants.smoothness == pytest.approx(1.0)
    assert constants.curvature == pytest.approx(1.0)


def test_exponential_values():
    loss = exponential_loss()
    assert loss.value(1.0, 0.0) == pytest.approx(1.0)
    assert q_value(loss, loss.default_domain(1.0)) == pytest.approx(1.0)
    u = np.linspace(-2.0, 2.0, 9)
    assert np.all(loss.d2(-1.0, u) > 0)


def test_q_value_squared():
    loss = squared_loss()
    assert q_value(loss, Interval(-1.0, 1.0)) == pytest.approx(1.0)
    assert q_value(loss, Interval(-2.5, 2.5)) == pytest.approx(6.25)
    assert q_value(loss, FiniteSet((-1.0, 0.5))) == pytest.approx(1.0)


def test_registry():
    assert get_loss("squared").name == "squared"
    assert get_loss("exponential").name == "exponential"
    with pytest.raises(ValidationError):
        get_loss("hinge")
    register_loss("squared-alias", squared_loss)
    assert get_loss("squared-alias").name == "squared"


def _flat_loss() -> LossModel:
    # piecewise-linear surrogate: zero curvature everywhere
    return LossModel(
        name="flat",
        value=lambda y, u: np.abs(np.asarray(y, dtype=float) - u),
        d1=lambda y, u: -np.sign(np.asarray(y, dtype=float) - u),
        d2=lambda y, u: np.zeros(np.broadcast_shapes(np.shape(y), np.shape(u))),
        default_domain=lambda a: Interval(-a, a),
    )


def test_zero_curvature_loss_rejected():
    with pytest.raises(ValidationError):
        loss_constants(_flat_loss(), 1.0)


def test_loss_constants_input_validation():
    with pytest.raises(ValidationError):
        loss_constants(squared_loss(), -1.0)
    with pytest.raises(ValidationError):
        loss_constants(squared_loss(), 1.0, grid_size=1)
    with pytest.raises(ValidationError):
        loss_constants(squared_loss(), 1.0, method="exact")


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.name)
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_derivatives_match_finite_differences(loss, a):
    rng = np.random.default_rng(21)
    domain = loss.default_domain(a)
    if isinstance(domain, FiniteSet):
        ys = rng.choice(domain.values, size=64)
    else:
        ys = rng.uniform(domain.lo, domain.hi, size=64)
    us = rng.uniform(-a, a, size=64)
    h = 1e-6
    d1_fd = (loss.value(ys, us + h) - loss.value(ys, us - h)) / (2 * h)
    d2_fd = (loss.d1(ys, us + h) - loss.d1(ys, us - h)) / (2 * h)
    scale1 = np.maximum(np.abs(loss.d1(ys, us)), 1e-8)
    scale2 = np.maximum(np.abs(loss.d2(ys, us)), 1e-8)
    assert np.all(np.abs(loss.d1(ys, us) - d1_fd) / scale1 <= 1e-4)
    assert np.all(np.abs(loss.d2(ys, us) - d2_fd) / scale2 <= 1e-4)


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.name)
def test_constants_monotone_in_prediction_bound(loss):
    grid_a = np.linspace(0.1, 3.0, 12)
    smooth = [loss_constants(loss, a, grid_size=2001, method="grid").smoothness for a in grid_a]
    curv = [loss_constants(loss, a, grid_size=2001, method="grid").curvature for a in grid_a]
    assert np.all(np.diff(smooth) >= -1e-12)
    assert np.all(np.diff(curv) <= 1e-12)


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: l.name)
def test_curvature_lower_bound_many_samples(loss):
    rng = np.random.default_rng(22)
    a = 1.0
    domain = loss.default_domain(a)
    if isinstance(domain, FiniteSet):
        ys = rng.choice(domain.values, size=10_000)
    else:
        ys = rng.uniform(domain.lo, domain.hi, size=10_000)
    us = rng.uniform(-a, a, size=10_000)
    vs = rng.uniform(-a, a, size=10_000)
    samples = np.column_stack([ys, us, vs])
    assert curvature_lower_bound_check(loss, a, samples)


def test_curvature_bound_equality_at_same_point():
    loss = squared_loss()
    samples = np.array([[0.5, 0.3, 0.3], [-1.0, -0.2, -0.2]])
    assert curvature_lower_bound_check(loss, 1.0, samples, slack=0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
def test_curvature_bound_property_exponential(y, u, v):
    label = 1.0 if y >= 0 else -1.0
    assert curvature_lower_bound_check(
        exponential_loss(), 1.0, np.array([[label, u, v]])
    )
