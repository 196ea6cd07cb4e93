import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_oracle import (
    OperatorNormBall,
    Unconstrained,
    ValidationError,
    best_rank_approximation,
    composite_prox,
    cone_gap,
    frobenius_norm,
    load_matrix,
    nuclear_norm,
    operator_norm,
    optimality_residuals,
    rank_at_tol,
    save_matrix,
    sign_and_support,
    spectral_decompose,
)
from lowrank_oracle.matrices import (
    SupportProjector,
    default_zero_tol,
    nuclear_norm_and_rank,
    validate_symmetric,
)

from helpers import prox_scalar_oracle, random_low_rank, random_symmetric


@st.composite
def symmetric(draw, min_dim=1, max_dim=6):
    m = draw(st.integers(min_dim, max_dim))
    entries = draw(
        st.lists(
            st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
            min_size=m * m,
            max_size=m * m,
        )
    )
    a = np.array(entries).reshape(m, m)
    return 0.5 * (a + a.T)


def test_validate_rejects_asymmetric_and_nonfinite():
    with pytest.raises(ValidationError):
        validate_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        validate_symmetric(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        validate_symmetric(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "bad", [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[np.inf, 0.0], [0.0, 0.0]])],
    ids=["asymmetric", "non-finite"],
)
@pytest.mark.parametrize(
    "call",
    [nuclear_norm, nuclear_norm_and_rank, spectral_decompose, operator_norm, rank_at_tol,
     sign_and_support, lambda a: best_rank_approximation(a, 1)],
    ids=["nuclear_norm", "nuclear_norm_and_rank", "spectral_decompose", "operator_norm",
         "rank_at_tol", "sign_and_support", "best_rank_approximation"],
)
def test_public_matrix_functions_reject_bad_matrices(call, bad):
    # the solver's loop calls an unchecked eigh, so every public entry must check
    with pytest.raises(ValidationError):
        call(bad)


def test_save_matrix_rejects_bad_matrices(tmp_path):
    for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[np.nan, 0.0], [0.0, 0.0]])):
        with pytest.raises(ValidationError):
            save_matrix(tmp_path / "bad.mtx", bad)
    assert not (tmp_path / "bad.mtx").exists()


@settings(max_examples=50, deadline=None)
@given(symmetric())
def test_nuclear_norm_and_rank_is_both_functions(s):
    assert nuclear_norm_and_rank(s) == (nuclear_norm(s), rank_at_tol(s))


def test_spectral_decompose_diagonal():
    dec = spectral_decompose(np.diag([3.0, 1.0]))
    assert np.allclose(dec.eigenvalues, [3.0, 1.0])
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))


def test_spectral_decompose_zero_matrix():
    dec = spectral_decompose(np.zeros((4, 4)))
    assert np.allclose(dec.eigenvalues, 0.0)
    assert np.allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(4))


def test_spectral_decompose_reconstruction():
    rng = np.random.default_rng(5)
    s = random_symmetric(rng, 5)
    dec = spectral_decompose(s)
    assert np.all(np.diff(dec.eigenvalues) <= 0)
    residual = np.linalg.norm(dec.reconstruct() - s)
    assert residual <= 1e-9 * (1 + np.linalg.norm(s))
    assert np.linalg.norm(dec.eigenvectors.T @ dec.eigenvectors - np.eye(5)) <= 1e-9


def test_norms_on_fixed_matrices():
    s = np.diag([1.0, -2.0, 0.0])
    assert nuclear_norm(s) == pytest.approx(3.0)
    assert frobenius_norm(s) == pytest.approx(np.sqrt(5.0))
    assert operator_norm(s) == pytest.approx(2.0)
    eye = np.eye(3)
    assert nuclear_norm(eye) == pytest.approx(3.0)
    assert frobenius_norm(eye) == pytest.approx(np.sqrt(3.0))
    assert operator_norm(eye) == pytest.approx(1.0)


def test_frobenius_matches_spectral_oracle():
    rng = np.random.default_rng(6)
    s = random_symmetric(rng, 6)
    # independent spectral route for the entrywise implementation
    lam = spectral_decompose(s).eigenvalues
    assert frobenius_norm(s) ** 2 == pytest.approx(float(np.sum(s * s)), rel=1e-12)
    assert frobenius_norm(s) == pytest.approx(float(np.sqrt(np.sum(lam**2))), rel=1e-9)


def test_sign_and_support_diagonal():
    sign, support = sign_and_support(np.diag([2.0, -3.0, 0.0]), zero_tol=1e-10)
    assert np.allclose(sign, np.diag([1.0, -1.0, 0.0]))
    assert support.rank == 2
    span = support.basis @ support.basis.T
    assert np.allclose(span, np.diag([1.0, 1.0, 0.0]))


def test_sign_and_support_zero_matrix():
    sign, support = sign_and_support(np.zeros((3, 3)))
    assert np.allclose(sign, 0.0)
    assert support.rank == 0
    a = np.arange(9.0).reshape(3, 3)
    a = 0.5 * (a + a.T)
    assert np.allclose(support.apply(a), 0.0)
    assert np.allclose(support.apply_complement(a), a)


def test_sign_times_matrix_gives_absolute_value():
    rng = np.random.default_rng(7)
    s = random_low_rank(rng, 5, 2)
    sign, _ = sign_and_support(s)
    product = sign @ s
    lam = np.sort(np.linalg.eigvalsh(0.5 * (product + product.T)))[::-1]
    expected = np.sort(np.abs(spectral_decompose(s).eigenvalues))[::-1]
    assert np.allclose(lam, expected, atol=1e-9)


def test_projectors_two_by_two_formula():
    support = SupportProjector(dim=2, basis=np.array([[1.0], [0.0]]))
    a = np.array([[1.5, -0.3], [-0.3, 2.0]])
    low = support.apply(a)
    comp = support.apply_complement(a)
    assert np.allclose(low, [[1.5, -0.3], [-0.3, 0.0]])
    assert np.allclose(comp, [[0.0, 0.0], [0.0, 2.0]])


def test_projector_full_rank_is_identity_map():
    support = SupportProjector(dim=3, basis=np.eye(3))
    rng = np.random.default_rng(8)
    a = random_symmetric(rng, 3)
    assert np.allclose(support.apply(a), a)
    assert np.allclose(support.apply_complement(a), 0.0)


def test_projector_idempotence():
    rng = np.random.default_rng(19)
    s = random_low_rank(rng, 6, 2)
    _, support = sign_and_support(s)
    a = random_symmetric(rng, 6)
    once = support.apply(a)
    assert np.allclose(support.apply(once), once, atol=1e-9)
    comp = support.apply_complement(a)
    assert np.allclose(support.apply_complement(comp), comp, atol=1e-9)


def test_projector_rank_bound():
    rng = np.random.default_rng(9)
    s = random_low_rank(rng, 8, 2)
    _, support = sign_and_support(s)
    a = random_symmetric(rng, 8)
    low = support.apply(a)
    assert rank_at_tol(low, 1e-9 * max(1.0, operator_norm(low))) <= 4


@settings(max_examples=50, deadline=None)
@given(symmetric())
def test_rank_default_tolerance_is_default_zero_tol(s):
    assert rank_at_tol(s) == rank_at_tol(s, default_zero_tol(np.linalg.eigvalsh(s)))


def test_projector_dimension_mismatch():
    support = SupportProjector(dim=2, basis=np.array([[1.0], [0.0]]))
    with pytest.raises(ValidationError):
        support.apply(np.zeros((3, 3)))


def test_cone_gap_examples():
    support = SupportProjector(dim=2, basis=np.array([[1.0], [0.0]]))
    assert cone_gap(np.diag([1.0, 6.0]), support, 5.0) == pytest.approx(-1.0)
    assert cone_gap(np.diag([1.0, 5.0]), support, 5.0) == pytest.approx(0.0)
    inside = np.array([[2.0, 1.0], [1.0, 0.0]])  # complement part vanishes
    gap = cone_gap(inside, support, 5.0)
    assert gap == pytest.approx(5.0 * nuclear_norm(inside))
    with pytest.raises(ValidationError):
        cone_gap(inside, support, 0.0)


def test_prox_nuclear_examples():
    assert np.allclose(
        composite_prox(np.diag([3.0, -1.0, 0.5]), 1.0, Unconstrained()),
        np.diag([2.0, 0.0, 0.0]),
    )
    rng = np.random.default_rng(10)
    s = random_symmetric(rng, 4)
    assert np.allclose(composite_prox(s, 0.0, Unconstrained()), s, atol=1e-12)
    assert np.allclose(
        composite_prox(s, operator_norm(s) * 1.01, Unconstrained()), 0.0, atol=1e-12
    )


def test_prox_nuclear_matches_scalar_grid_oracle():
    rng = np.random.default_rng(11)
    lams = rng.uniform(-3.0, 3.0, size=4)
    theta = 0.7
    shrunk = np.sort(np.linalg.eigvalsh(composite_prox(np.diag(lams), theta, Unconstrained())))
    expected = np.sort([prox_scalar_oracle(l, theta, -5.0, 5.0) for l in lams])
    assert np.allclose(shrunk, expected, atol=1e-5)


def test_best_rank_approximation():
    rng = np.random.default_rng(12)
    s = random_symmetric(rng, 6)
    approx = best_rank_approximation(s, 2)
    assert rank_at_tol(approx) <= 2
    lam = np.abs(spectral_decompose(s).eigenvalues)
    kept = np.sort(lam)[-2:]
    assert nuclear_norm(approx) == pytest.approx(float(np.sum(kept)), rel=1e-9)


def test_subdifferential_residuals_examples():
    rng = np.random.default_rng(13)
    # zero estimate with small gradient: zero matrix is optimal
    g = random_symmetric(rng, 4, scale=0.05)
    g *= 0.5 / max(operator_norm(g), 1e-12)
    low, excess = optimality_residuals(g, np.zeros((4, 4)), epsilon=1.0)
    assert low == 0.0
    assert excess == 0.0

    s = random_low_rank(rng, 4, 2)
    sign, _ = sign_and_support(s)
    low, excess = optimality_residuals(-1.3 * sign, s, epsilon=1.3)
    assert low == pytest.approx(0.0, abs=1e-9)
    assert excess == pytest.approx(0.0, abs=1e-9)

    s1 = random_low_rank(rng, 4, 1, spectrum=[2.0])
    sign1, _ = sign_and_support(s1)
    low, excess = optimality_residuals(-2.0 * 0.7 * sign1, s1, epsilon=0.7)
    assert low == pytest.approx(1.0, abs=1e-9)

    # the operator-norm ball of radius 0 is {0}: its normal cone absorbs any gradient
    assert optimality_residuals(10.0 * g, np.zeros((4, 4)), 1.0, OperatorNormBall(0.0)) == (0.0, 0.0)

    # epsilon = 0 leaves only the stationarity residual; a negative one is invalid
    assert optimality_residuals(g, np.zeros((4, 4)), epsilon=0.0) == (0.0, np.linalg.norm(g))
    with pytest.raises(ValidationError):
        optimality_residuals(g, np.zeros((4, 4)), epsilon=-1.0)


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    s = random_symmetric(rng, 5)
    path = tmp_path / "mat.mtx"
    save_matrix(path, s)
    assert load_matrix(path).tolist() == s.tolist()
    text = path.read_text().splitlines()
    assert text[0] == "m 5"
    bad = tmp_path / "bad.mtx"
    bad.write_text("m 2\n1.0 2.0\n3.0 4.0\n")
    with pytest.raises(ValidationError):
        load_matrix(bad)


# -- properties ------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(symmetric(), symmetric())
def test_duality_inequality(a, b):
    if a.shape != b.shape:
        m = min(a.shape[0], b.shape[0])
        a, b = a[:m, :m], b[:m, :m]
    inner = float(np.sum(a * b))
    bound = operator_norm(a) * nuclear_norm(b)
    assert abs(inner) <= bound + 1e-9 * (1.0 + bound)


@settings(max_examples=60, deadline=None)
@given(symmetric(min_dim=2), st.integers(1, 3))
def test_projection_decomposition_and_bounds(a, rank):
    m = a.shape[0]
    rank = min(rank, m)
    rng = np.random.default_rng(42)
    s = random_low_rank(rng, m, rank)
    _, support = sign_and_support(s)
    low = support.apply(a)
    comp = support.apply_complement(a)
    assert np.allclose(low + comp, a, atol=1e-12 * max(1.0, np.abs(a).max()))
    # low part rank and norm bounds
    r_low = rank_at_tol(low, 1e-9 * max(1.0, operator_norm(low)))
    assert r_low <= 2 * support.rank
    assert frobenius_norm(low) <= 2 * np.sqrt(max(r_low, 0)) * operator_norm(a) + 1e-9


@settings(max_examples=40, deadline=None)
@given(symmetric(min_dim=2, max_dim=5), st.floats(0.0, 3.0))
def test_prox_firmly_nonexpansive(a, theta):
    rng = np.random.default_rng(3)
    b = a + random_symmetric(rng, a.shape[0], scale=0.5)
    lhs = frobenius_norm(
        composite_prox(a, theta, Unconstrained()) - composite_prox(b, theta, Unconstrained())
    )
    assert lhs <= frobenius_norm(a - b) + 1e-9


@settings(max_examples=60, deadline=None)
@given(symmetric())
def test_nuclear_norm_spectral_consistency(a):
    lam = spectral_decompose(a).eigenvalues
    assert nuclear_norm(a) == pytest.approx(float(np.sum(np.abs(lam))), abs=1e-9)
    assert nuclear_norm(a) == pytest.approx(nuclear_norm(-a), abs=1e-9)
