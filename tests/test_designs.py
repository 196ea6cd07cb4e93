import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_oracle import (
    ClassificationLink,
    Dataset,
    DesignDistribution,
    FrobeniusBall,
    GaussianNoise,
    Interval,
    OperatorNormBall,
    TruthModel,
    Unconstrained,
    ValidationError,
    bayes_risk_per_atom,
    custom_design,
    excess_risk,
    LossModel,
    exponential_loss,
    functional_l2_norm,
    get_loss,
    load_dataset,
    orthonormal_basis_design,
    population_risk,
    prediction_bound,
    register_loss,
    response_domain,
    sample_dataset,
    save_dataset,
    squared_loss,
)
from lowrank_oracle.designs import _truncated_gaussian, truth_predictions

from helpers import bayes_risk_oracle, random_low_rank, random_symmetric


def test_basis_design_m2_atoms():
    design = orthonormal_basis_design(2)
    assert design.num_atoms == 3
    assert design.is_orthonormal_basis
    expected = [
        np.diag([1.0, 0.0]),
        np.diag([0.0, 1.0]),
        np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0),
    ]
    for atom, want in zip(design.atoms, expected):
        assert np.allclose(atom, want)


def test_basis_design_m1_and_gram():
    assert orthonormal_basis_design(1).atoms.tolist() == [[[1.0]]]
    design = orthonormal_basis_design(4)
    assert design.num_atoms == 10
    gram = np.einsum("aij,bij->ab", design.atoms, design.atoms)
    assert np.max(np.abs(gram - np.eye(10))) <= 1e-12


def test_orthonormal_basis_flag_is_checked():
    basis = orthonormal_basis_design(2).atoms
    uniform = np.full(3, 1.0 / 3.0)
    rotated = np.stack(
        [(basis[0] + basis[1]) / np.sqrt(2.0), (basis[0] - basis[1]) / np.sqrt(2.0), basis[2]]
    )
    DesignDistribution(dim=2, atoms=rotated, probs=uniform, is_orthonormal_basis=True)
    skewed = np.stack([basis[0], basis[1], (basis[2] + 1e-6 * basis[0])])
    for atoms in (skewed, basis * (1.0 + 1e-6)):
        with pytest.raises(ValidationError, match="orthonormal"):
            DesignDistribution(dim=2, atoms=atoms, probs=uniform, is_orthonormal_basis=True)
    with pytest.raises(ValidationError, match="uniform"):
        DesignDistribution(
            dim=2, atoms=basis, probs=np.array([0.5, 0.25, 0.25]), is_orthonormal_basis=True
        )


@st.composite
def design_and_rng(draw):
    """A basis design or a random dense custom design, with a seeded rng."""
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return orthonormal_basis_design(m), rng
    k = draw(st.integers(1, 8))
    atoms = np.stack([random_symmetric(rng, m) for _ in range(k)])
    return custom_design(atoms, rng.dirichlet(np.ones(k))), rng


@settings(max_examples=60, deadline=None)
@given(design_and_rng())
def test_forward_and_adjoint_match_dense_reference(case):
    design, rng = case
    s = random_symmetric(rng, design.dim)
    w = rng.standard_normal(design.num_atoms)
    batch = rng.standard_normal((3, design.num_atoms))
    forward = design.forward(s)
    assert forward.shape == (design.num_atoms,)
    np.testing.assert_allclose(
        forward, np.einsum("kij,ij->k", design.atoms, s), rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(
        design.adjoint(w), np.tensordot(w, design.atoms, axes=1), rtol=1e-12, atol=1e-12
    )
    batched = design.adjoint(batch)
    assert batched.shape == (3, design.dim, design.dim)
    np.testing.assert_allclose(
        batched, np.tensordot(batch, design.atoms, axes=1), rtol=1e-12, atol=1e-12
    )
    # <forward(S), w> = <S, adjoint(w)>
    assert float(np.dot(forward, w)) == pytest.approx(
        float(np.sum(s * design.adjoint(w))), rel=1e-10, abs=1e-10
    )


@pytest.mark.parametrize("noise", [GaussianNoise(sigma=0.3), ClassificationLink()])
def test_sample_dataset_matches_dense_stack_formula(noise):
    design = orthonormal_basis_design(5)
    truth = TruthModel(s_star=random_low_rank(np.random.default_rng(8), 5, 2), noise=noise)
    n = 2_000
    data = sample_dataset(design, truth, n, seed=21)
    rng = np.random.default_rng(21)
    idx = rng.choice(design.num_atoms, size=n, p=design.probs)
    s = np.einsum("kij,ij->k", design.atoms[idx], truth.s_star)
    if isinstance(noise, ClassificationLink):
        y = np.where(rng.random(n) < noise.link(s), 1.0, -1.0)
    else:
        y = s + _truncated_gaussian(noise, rng, n)
    assert np.array_equal(data.atom_indices, idx)
    assert np.array_equal(data.y, y)


def test_sample_dataset_builds_no_covariate_stack():
    design = orthonormal_basis_design(40)
    truth = TruthModel(
        s_star=random_low_rank(np.random.default_rng(9), 40, 2), noise=GaussianNoise(0.1)
    )
    tracemalloc.start()
    try:
        sample_dataset(design, truth, 10_000, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (n, m, m) stack of sampled atoms alone would take 10_000 * 40 * 40 * 8 B = 128 MB
    assert peak < 16 * 2**20


def test_custom_design_validation():
    atoms = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(ValidationError):
        custom_design(atoms, np.array([0.7, 0.7]))
    with pytest.raises(ValidationError):
        custom_design(np.stack([np.array([[0.0, 1.0], [0.0, 0.0]])]), np.array([1.0]))
    design = custom_design(atoms, np.array([0.5, 0.5]))
    assert design.num_atoms == 2


def test_functional_l2_norm_values():
    design = orthonormal_basis_design(2)
    assert functional_l2_norm(np.diag([1.0, 0.0]), design) == pytest.approx(1 / np.sqrt(3))
    assert functional_l2_norm(np.zeros((2, 2)), design) == 0.0
    rng = np.random.default_rng(31)
    a = rng.standard_normal((2, 2))
    a = 0.5 * (a + a.T)
    parseval = np.linalg.norm(a) / np.sqrt(design.num_atoms)
    assert functional_l2_norm(a, design) == pytest.approx(parseval, abs=1e-9)
    with pytest.raises(ValidationError):
        functional_l2_norm(np.zeros((3, 3)), design)


def test_sample_dataset_deterministic_and_noiseless():
    design = orthonormal_basis_design(3)
    rng = np.random.default_rng(32)
    s_star = random_low_rank(rng, 3, 2)
    truth = TruthModel(s_star=s_star, noise=GaussianNoise(sigma=0.0))
    d1 = sample_dataset(design, truth, 50, seed=99)
    d2 = sample_dataset(design, truth, 50, seed=99)
    assert d1.atom_indices.tolist() == d2.atom_indices.tolist()
    assert d1.y.tolist() == d2.y.tolist()
    predictions = truth_predictions(truth, design)
    assert np.allclose(d1.y, predictions[d1.atom_indices])


def test_sample_dataset_law_of_large_numbers():
    design = orthonormal_basis_design(2)
    rng = np.random.default_rng(33)
    s_star = random_low_rank(rng, 2, 1, spectrum=[1.3])
    truth = TruthModel(s_star=s_star, noise=GaussianNoise(sigma=0.1))
    data = sample_dataset(design, truth, 100_000, seed=7)
    mask = data.atom_indices == 0
    sample_mean = float(np.mean(data.y[mask]))
    tolerance = 3 * 0.1 / np.sqrt(data.n / 3)
    assert abs(sample_mean - s_star[0, 0]) <= tolerance


def test_noise_truncation_bounds_responses():
    design = orthonormal_basis_design(2)
    truth = TruthModel(s_star=np.zeros((2, 2)), noise=GaussianNoise(sigma=0.5))
    data = sample_dataset(design, truth, 20_000, seed=3)
    assert np.max(np.abs(data.y)) <= 3.0 + 1e-12  # 6 sigma cutoff
    domain = response_domain(truth, design)
    assert isinstance(domain, Interval)
    assert domain.hi == pytest.approx(3.0)


def test_classification_sampling():
    design = orthonormal_basis_design(2)
    truth = TruthModel(s_star=np.zeros((2, 2)), noise=ClassificationLink())
    data = sample_dataset(design, truth, 10_000, seed=4)
    assert set(np.unique(data.y)) == {-1.0, 1.0}
    # symmetric link at zero predictions: labels are fair coin flips
    assert abs(float(np.mean(data.y))) <= 5 / np.sqrt(data.n)


def test_dataset_csv_round_trip(tmp_path):
    design = orthonormal_basis_design(3)
    truth = TruthModel(s_star=np.eye(3), noise=GaussianNoise(sigma=0.2))
    data = sample_dataset(design, truth, 40, seed=12)
    path = tmp_path / "dataset.csv"
    save_dataset(path, data)
    back = load_dataset(path, design)
    assert back.atom_indices.tolist() == data.atom_indices.tolist()
    assert back.y.tolist() == data.y.tolist()
    assert back.seed is None


def test_prediction_bound_values():
    design = orthonormal_basis_design(2)
    assert prediction_bound(OperatorNormBall(1.0), design) == pytest.approx(np.sqrt(2.0))
    diag_only = custom_design(
        np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), np.array([0.5, 0.5])
    )
    assert prediction_bound(OperatorNormBall(2.5), diag_only) == pytest.approx(2.5)
    assert prediction_bound(OperatorNormBall(0.0), diag_only) == 0.0
    assert prediction_bound(FrobeniusBall(2.0), design) == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        prediction_bound(Unconstrained(), design)


def test_population_risk_noiseless_truth_is_bayes():
    design = orthonormal_basis_design(3)
    rng = np.random.default_rng(34)
    s_star = random_low_rank(rng, 3, 2)
    truth = TruthModel(s_star=s_star, noise=GaussianNoise(sigma=0.0))
    assert excess_risk(s_star, design, truth, squared_loss()) == pytest.approx(0.0, abs=1e-12)


def test_excess_risk_closed_form_m2():
    design = orthonormal_basis_design(2)
    truth = TruthModel(s_star=np.zeros((2, 2)), noise=GaussianNoise(sigma=0.0))
    value = excess_risk(np.diag([1.0, 0.0]), design, truth, squared_loss())
    assert value == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_excess_risk_equals_l2_distance_for_squared_loss():
    design = orthonormal_basis_design(4)
    rng = np.random.default_rng(35)
    s_star = random_low_rank(rng, 4, 2)
    truth = TruthModel(s_star=s_star, noise=GaussianNoise(sigma=0.3))
    for _ in range(4):
        s = random_low_rank(rng, 4, 3)
        want = functional_l2_norm(s - s_star, design) ** 2
        assert excess_risk(s, design, truth, squared_loss()) == pytest.approx(want, abs=1e-8)


def test_excess_risk_classification_symmetric_link_zero_is_bayes():
    design = orthonormal_basis_design(2)
    truth = TruthModel(s_star=np.zeros((2, 2)), noise=ClassificationLink(link=lambda s: np.full_like(np.asarray(s, dtype=float), 0.5)))
    value = excess_risk(np.zeros((2, 2)), design, truth, exponential_loss())
    assert value == pytest.approx(0.0, abs=1e-10)


def test_excess_risk_classification_truth_is_bayes_for_matched_link():
    # default link is calibrated so the truth minimizes the exponential loss
    design = orthonormal_basis_design(3)
    rng = np.random.default_rng(36)
    s_star = random_low_rank(rng, 3, 1, spectrum=[0.8])
    truth = TruthModel(s_star=s_star, noise=ClassificationLink())
    assert excess_risk(s_star, design, truth, exponential_loss()) == pytest.approx(0.0, abs=1e-9)
    other = random_low_rank(rng, 3, 2)
    assert excess_risk(other, design, truth, exponential_loss()) > 0


def test_quadrature_matches_adaptive_integration():
    from scipy.integrate import quad
    from scipy.stats import norm

    design = orthonormal_basis_design(2)
    rng = np.random.default_rng(62)
    s_star = random_low_rank(rng, 2, 1, spectrum=[0.8])
    noise = GaussianNoise(sigma=0.4)
    truth = TruthModel(s_star=s_star, noise=noise)
    loss = squared_loss()
    s = random_low_rank(rng, 2, 1, spectrum=[0.3])
    computed = population_risk(s, design, truth, loss)

    c = noise.cutoff
    mass = norm.cdf(c / noise.sigma) - norm.cdf(-c / noise.sigma)
    s_true = truth_predictions(truth, design)
    s_pred = np.einsum("kij,ij->k", design.atoms, s)
    expected = 0.0
    for p, mu, u in zip(design.probs, s_true, s_pred):
        integral, _ = quad(
            lambda xi: float(loss.value(mu + xi, u)) * norm.pdf(xi, scale=noise.sigma),
            -c,
            c,
            epsabs=1e-13,
        )
        expected += p * integral / mass
    assert computed == pytest.approx(expected, abs=1e-10)


def test_quadrature_self_check():
    design = orthonormal_basis_design(3)
    rng = np.random.default_rng(37)
    s_star = random_low_rank(rng, 3, 2)
    truth = TruthModel(s_star=s_star, noise=GaussianNoise(sigma=0.4))
    s = random_low_rank(rng, 3, 1)
    r64 = population_risk(s, design, truth, squared_loss(), quadrature_nodes=64)
    r128 = population_risk(s, design, truth, squared_loss(), quadrature_nodes=128)
    assert abs(r64 - r128) < 1e-10


def _log_cosh_loss() -> LossModel:
    # smooth, convex, no closed form for its conditional minimizer
    def value(y, u):
        r = np.asarray(y, dtype=float) - u
        return np.logaddexp(r, -r) - np.log(2.0)

    def d1(y, u):
        return -np.tanh(np.asarray(y, dtype=float) - u)

    def d2(y, u):
        return 1.0 - np.tanh(np.asarray(y, dtype=float) - u) ** 2

    return LossModel("log-cosh", value, d1, d2, default_domain=lambda a: Interval(-a, a))


@pytest.mark.parametrize(
    "loss_name, noise, spectrum",
    [
        ("squared", GaussianNoise(sigma=0.3), [1.0, -0.7]),
        ("exponential", ClassificationLink(), [0.8, 0.5]),
        ("squared", GaussianNoise(sigma=0.0), [1.0, -0.7]),
        ("log-cosh", GaussianNoise(sigma=0.4), [1.0, -0.7]),
        ("log-cosh", ClassificationLink(), [1.5, -0.6]),
    ],
    ids=["squared-gaussian", "exponential-labels", "noiseless", "log-cosh-gaussian", "log-cosh-labels"],
)
def test_bayes_risk_matches_dense_reference(loss_name, noise, spectrum):
    register_loss("log-cosh", _log_cosh_loss)
    loss = get_loss(loss_name)
    design = orthonormal_basis_design(4)
    rng = np.random.default_rng(63)
    truth = TruthModel(s_star=random_low_rank(rng, 4, 2, spectrum=spectrum), noise=noise)
    fast = bayes_risk_per_atom(design, truth, loss)
    reference = bayes_risk_oracle(design, truth, loss)
    assert fast.shape == (design.num_atoms,)
    assert np.max(np.abs(fast - reference)) <= 1e-12


def test_empirical_risk_converges_to_population():
    from lowrank_oracle import empirical_risk

    design = orthonormal_basis_design(2)
    rng = np.random.default_rng(38)
    s_star = random_low_rank(rng, 2, 1, spectrum=[0.9])
    truth = TruthModel(s_star=s_star, noise=GaussianNoise(sigma=0.2))
    s = random_low_rank(rng, 2, 1, spectrum=[0.5])
    data = sample_dataset(design, truth, 100_000, seed=10)
    loss = squared_loss()
    emp = empirical_risk(s, data, loss)
    pop = population_risk(s, design, truth, loss)
    u = truth_predictions(TruthModel(s_star=s, noise=truth.noise), design)
    values = loss.value(data.y, u[data.atom_indices])
    stderr = float(np.std(values, ddof=1) / np.sqrt(data.n))
    assert abs(emp - pop) <= 5 * stderr


def test_bayes_cache_matches_direct_computation():
    design = orthonormal_basis_design(3)
    rng = np.random.default_rng(39)
    truth = TruthModel(s_star=random_low_rank(rng, 3, 2), noise=GaussianNoise(sigma=0.3))
    loss = squared_loss()
    bayes = bayes_risk_per_atom(design, truth, loss)
    s = random_low_rank(rng, 3, 1)
    direct = excess_risk(s, design, truth, loss)
    cached = excess_risk(s, design, truth, loss, bayes=bayes)
    assert cached == pytest.approx(direct, rel=1e-12)


def test_population_curvature_inequality_squared():
    # the directional-derivative lower bound at the population level, with the
    # conditional derivative expectation taken in closed form
    design = orthonormal_basis_design(3)
    rng = np.random.default_rng(60)
    s_star = random_low_rank(rng, 3, 2)
    truth = TruthModel(s_star=s_star, noise=GaussianNoise(sigma=0.3))
    loss = squared_loss()
    tau = 2.0
    s_vals = truth_predictions(truth, design)
    for _ in range(10):
        s1 = random_low_rank(rng, 3, 2)
        s2 = random_low_rank(rng, 3, 1)
        u1 = np.einsum("kij,ij->k", design.atoms, s1)
        u2 = np.einsum("kij,ij->k", design.atoms, s2)
        # E[d1(Y; u) | X] = -2 (E[Y|X] - u) and E[Y|X] is the truth prediction
        lhs = float(np.dot(design.probs, -2.0 * (s_vals - u1) * (u1 - u2)))
        gap = population_risk(s1, design, truth, loss) - population_risk(s2, design, truth, loss)
        dist = functional_l2_norm(s1 - s2, design)
        assert lhs >= gap + 0.5 * tau * dist**2 - 1e-9


def test_population_curvature_inequality_exponential():
    design = orthonormal_basis_design(3)
    rng = np.random.default_rng(61)
    s_star = random_low_rank(rng, 3, 1, spectrum=[0.6])
    truth = TruthModel(s_star=s_star, noise=ClassificationLink())
    loss = exponential_loss()
    a = 1.0
    from lowrank_oracle import loss_constants

    tau = loss_constants(loss, a).curvature
    p = 1.0 / (1.0 + np.exp(-2.0 * truth_predictions(truth, design)))
    for _ in range(10):
        s1 = random_low_rank(rng, 3, 2)
        s2 = random_low_rank(rng, 3, 1)
        u1 = np.einsum("kij,ij->k", design.atoms, s1)
        u2 = np.einsum("kij,ij->k", design.atoms, s2)
        u1 = np.clip(u1, -a, a)
        u2 = np.clip(u2, -a, a)
        # E[d1(Y; u) | X] = -p e^{-u} + (1 - p) e^{u}
        d1_cond = -p * np.exp(-u1) + (1.0 - p) * np.exp(u1)
        lhs = float(np.dot(design.probs, d1_cond * (u1 - u2)))
        risk1 = float(np.dot(design.probs, p * np.exp(-u1) + (1 - p) * np.exp(u1)))
        risk2 = float(np.dot(design.probs, p * np.exp(-u2) + (1 - p) * np.exp(u2)))
        dist_sq = float(np.dot(design.probs, (u1 - u2) ** 2))
        assert lhs >= risk1 - risk2 + 0.5 * tau * dist_sq - 1e-9


def test_dataset_validation():
    design = orthonormal_basis_design(2)
    with pytest.raises(ValidationError):
        Dataset(design=design, atom_indices=np.array([5]), y=np.array([0.0]), seed=0)
    with pytest.raises(ValidationError):
        Dataset(design=design, atom_indices=np.array([], dtype=int), y=np.array([]), seed=0)
    with pytest.raises(ValidationError):
        Dataset(design=design, atom_indices=np.array([1]), y=np.array([np.nan]), seed=0)
    with pytest.raises(ValidationError):
        sample_dataset(design, TruthModel(np.zeros((2, 2)), GaussianNoise(0.1)), 0, seed=1)
