import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

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
    exponential_loss,
    functional_l2_norm,
    get_loss,
    load_dataset,
    orthonormal_basis_design,
    population_risk,
    register_loss,
    response_domain,
    sample_dataset,
    squared_loss,
)
from lowrank_oracle import designs
from lowrank_oracle.bounds import design_moment_bounds
from lowrank_oracle.designs import BasisDesign
from lowrank_oracle.matrices import frobenius_norm, nuclear_norm, operator_norm

from helpers import bayes_risk_oracle, log_cosh_loss, random_low_rank, random_symmetric, save_dataset


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


@pytest.mark.parametrize("m", [1, 2, 5])
def test_basis_design_matches_loop_reference(m):
    reference = []
    for i in range(m):
        e = np.zeros((m, m))
        e[i, i] = 1.0
        reference.append(e)
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros((m, m))
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            reference.append(e)
    assert np.array_equal(orthonormal_basis_design(m).atoms, np.stack(reference))


def test_basis_design_m1_and_gram():
    assert orthonormal_basis_design(1).atoms.tolist() == [[[1.0]]]
    design = orthonormal_basis_design(4)
    assert design.num_atoms == 10
    gram = np.einsum("aij,bij->ab", design.atoms, design.atoms)
    assert np.max(np.abs(gram - np.eye(10))) <= 1e-12


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



def _dense_copy(design):
    return DesignDistribution(design.atoms, design.probs)


def _assert_maps_bit_identical(design, rng):
    dense = _dense_copy(design)
    s = random_symmetric(rng, design.dim)
    w = rng.standard_normal(design.num_atoms)
    batch = rng.standard_normal((3, design.num_atoms))
    assert design.forward(s).tobytes() == dense.forward(s).tobytes()
    assert design.adjoint(w).tobytes() == dense.adjoint(w).tobytes()
    assert design.adjoint(batch).tobytes() == dense.adjoint(batch).tobytes()
    assert design.adjoint(batch).shape == (3, design.dim, design.dim)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_basis_maps_are_bit_identical_to_dense_maps(m, seed):
    _assert_maps_bit_identical(orthonormal_basis_design(m), np.random.default_rng(seed))


def test_basis_maps_are_bit_identical_to_dense_maps_m40():
    design = orthonormal_basis_design(40)
    rng = np.random.default_rng(40)
    for _ in range(5):
        _assert_maps_bit_identical(design, rng)
    assert design.forward(np.eye(40)).tobytes() == _dense_copy(design).forward(np.eye(40)).tobytes()


@pytest.mark.parametrize("m", [1, 2, 5, 8, 9, 40])
def test_basis_closed_form_norms_match_the_dense_atoms(m):
    design = orthonormal_basis_design(m)
    dense = _dense_copy(design)
    atoms = design.atoms
    assert design.atom_norms.sq_frobenius.tobytes() == dense.atom_norms.sq_frobenius.tobytes()
    assert design.atom_norms.nuclear.tolist() == [nuclear_norm(a) for a in atoms]
    assert design.atom_norms.operator.tolist() == [operator_norm(a) for a in atoms]
    assert design.atom_norms.nuclear.tolist() == dense.atom_norms.nuclear.tolist()
    assert design.atom_norms.operator.tolist() == dense.atom_norms.operator.tolist()
    assert math.sqrt(max(design.atom_norms.sq_frobenius)) == max(frobenius_norm(a) for a in atoms)
    assert design.second_moment.tobytes() == dense.second_moment.tobytes()
    assert design_moment_bounds(design) == design_moment_bounds(dense)
    for constraint in (OperatorNormBall(2.0), FrobeniusBall(2.0)):
        bound = constraint.prediction_bound
        assert bound(design.atom_norms) == bound(dense.atom_norms)


def test_basis_closed_form_constants_are_pinned():
    design = orthonormal_basis_design(40)
    # the nuclear norm of an off-diagonal atom is 2 fl(1/sqrt 2), one ulp
    # below fl(sqrt 2); the squared Frobenius norm is 2 fl(1/2 - ulp)
    assert set(design.atom_norms.nuclear.tolist()) == {1.0, 1.414213562373095}
    assert 1.414213562373095 != math.sqrt(2.0)
    assert set(design.atom_norms.sq_frobenius.tolist()) == {1.0, 0.9999999999999998}
    assert set(design.atom_norms.operator.tolist()) == {1.0, 0.7071067811865475}
    assert OperatorNormBall(2.0).prediction_bound(design.atom_norms) == 2.82842712474619
    assert FrobeniusBall(2.0).prediction_bound(design.atom_norms) == 2.0
    assert float(np.max(design.atom_norms.sq_frobenius)) == 1.0
    # sigma is one ulp above 1/sqrt(40), the rounding of the summed second moment
    assert design_moment_bounds(design) == (0.158113883008419, 1.0)
    assert orthonormal_basis_design(1).atom_norms.nuclear.tolist() == [1.0]


def test_basis_design_holds_no_dense_atoms():
    tracemalloc.start()
    try:
        design = orthonormal_basis_design(200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense (k, m, m) atoms at m = 200 would take 20_100 * 200 * 200 * 8 B = 6.4 GB
    assert peak < 16 * 2**20
    assert "atoms" not in vars(design)
    assert design.num_atoms == 20_100


def test_basis_index_arrays_are_checked():
    m = 3
    good = orthonormal_basis_design(m)
    fields = dict(ia=good.ia, ib=good.ib, wa=good.wa, wb=good.wb)
    BasisDesign(m, **fields)
    twice_a, twice_b = good.ia.copy(), good.ib.copy()
    twice_a[-1], twice_b[-1] = twice_a[-2], twice_b[-2]
    broken = [
        dict(fields, ia=twice_a, ib=twice_b),           # a position hit twice, one never
        dict(fields, ib=good.ia),                       # off-diagonal atoms not symmetric
        dict(fields, ia=good.ib, ib=good.ia),           # lower-triangle positions
        dict(fields, wa=good.wa * (1.0 + 1e-6)),        # not unit norm
        dict(fields, wb=np.full(good.num_atoms, 0.5)),  # weight on a diagonal's transpose
        dict(fields, ia=good.ia[:-1]),                  # an atom missing
        dict(fields, wa=np.r_[good.wa[:m], 0.6, good.wa[m + 1 :]],
             wb=np.r_[good.wb[:m], 0.8, good.wb[m + 1 :]]),  # unit norm, but not symmetric
        dict(fields, wa=np.r_[0.6, good.wa[1:]], wb=np.r_[0.8, good.wb[1:]]),  # diagonal weight twice
    ]
    for case in broken:
        with pytest.raises(ValidationError, match="orthonormal basis"):
            BasisDesign(m, **case)


@pytest.mark.parametrize("noise", [GaussianNoise(sigma=0.3), ClassificationLink()])
def test_sample_dataset_matches_dense_stack_formula(noise):
    # the same generator calls in plain numpy: one multinomial for the atom
    # counts, then the noise or one binomial per atom, then each atom's block
    design = orthonormal_basis_design(5)
    truth = TruthModel(s_star=random_low_rank(np.random.default_rng(8), 5, 2), noise=noise)
    n = 2_000
    data = sample_dataset(design, truth, n, seed=21)
    rng = np.random.default_rng(21)
    counts = rng.multinomial(n, design.probs)
    idx = np.repeat(np.arange(design.num_atoms), counts)
    s = np.einsum("kij,ij->k", design.atoms[idx], truth.s_star)
    if isinstance(noise, ClassificationLink):
        pos = rng.binomial(counts, noise.link(np.einsum("kij,ij->k", design.atoms, truth.s_star)))
        y = np.concatenate([np.repeat([1.0, -1.0], [p, c - p]) for p, c in zip(pos, counts)])
    else:
        y = s + noise.sigma * _truncated_normals(rng, n, noise.truncation)
    assert np.array_equal(data.atom_indices, idx)
    assert np.array_equal(data.y, y)


def test_sample_dataset_fits_a_non_uniform_design():
    # atom counts against the probabilities, and each atom's +1 count
    # against the link at its prediction, by chi-square statistics
    atoms = np.stack([
        np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
        np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0), np.eye(2) / np.sqrt(2.0),
    ])
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    design = custom_design(atoms, probs)
    truth = TruthModel(s_star=np.array([[0.9, -0.4], [-0.4, -0.3]]), noise=ClassificationLink())
    n = 200_000
    data = sample_dataset(design, truth, n, seed=17)
    counts = np.bincount(data.atom_indices, minlength=design.num_atoms)
    assert stats.chisquare(counts, n * probs).pvalue > 1e-3
    p = truth.noise.link(design.forward(truth.s_star))
    pos = np.bincount(data.atom_indices, weights=data.y > 0, minlength=design.num_atoms)
    z = (pos - counts * p) / np.sqrt(counts * p * (1.0 - p))
    assert stats.chi2.sf(float(z @ z), design.num_atoms) > 1e-3
    # grouped by atom, each block's +1s first
    assert np.all(np.diff(data.atom_indices) >= 0)
    assert np.all(np.diff(data.y)[np.diff(data.atom_indices) == 0] <= 0)


def test_sampled_labels_have_at_most_two_law_rows_per_atom():
    design = orthonormal_basis_design(8)
    truth = TruthModel(s_star=random_low_rank(np.random.default_rng(5), 8, 2), noise=ClassificationLink())
    data = sample_dataset(design, truth, 3_000_000, seed=6)
    law = data.response_law(exponential_loss())
    assert law.atoms.size <= 2 * design.num_atoms
    assert np.allclose(
        np.bincount(law.atoms, weights=law.w, minlength=design.num_atoms),
        np.bincount(data.atom_indices, minlength=design.num_atoms) / data.n,
        rtol=0.0, atol=1e-15,
    )


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


def _truncated_normals(rng, n, truncation):
    """The first n standard normals of the generator's stream that lie
    within +-truncation: the stream with its out-of-range values skipped."""
    kept = np.zeros(0)
    while kept.size < n:
        x = rng.standard_normal(n)
        kept = np.concatenate([kept, x[np.abs(x) <= truncation]])
    return kept[:n]


def _per_sample_draws(design, truth, n, seed):
    """The sample as n-long arrays, drawn by the same generator calls in
    plain numpy: the atom counts, then one binomial per atom or all n noise
    values at once."""
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, design.probs)
    idx = np.repeat(np.arange(design.num_atoms), counts)
    s = design.forward(truth.s_star)
    if isinstance(truth.noise, ClassificationLink):
        pos = rng.binomial(counts, truth.noise.link(s))
        y = np.concatenate([np.repeat([1.0, -1.0], [p, c - p]) for p, c in zip(pos, counts)])
    elif truth.noise.sigma == 0:
        y = s[idx]
    else:
        y = s[idx] + truth.noise.sigma * _truncated_normals(rng, n, truth.noise.truncation)
    return counts, idx, y


def _assert_laws_match(data, reference):
    """The counted sample's squared-loss law against the per-sample one: rows
    to 1e-12 of their atom's mean |y|, const to 1e-12 of the mean y^2 (the
    risk at zero), and the response sums to 1e-12 of their sums of |y|."""
    k = data.design.num_atoms
    abs_sums = np.bincount(reference.atom_indices, np.abs(reference.y), minlength=k)
    assert np.all(np.abs(data.response_sums - reference.response_sums) <= 1e-12 * abs_sums)
    law, want = data.response_law(squared_loss()), reference.response_law(squared_loss())
    assert np.array_equal(law.atoms, want.atoms) and np.array_equal(law.w, want.w)
    scale = abs_sums[want.atoms] / (want.w * reference.n)  # mean |y| per row
    assert np.all(np.abs(law.y - want.y) <= 1e-12 * scale)
    assert np.all(np.abs(law.d1_remainder - want.d1_remainder) <= 2e-12 * want.w * scale)
    assert abs(law.const - want.const) <= 1e-12 * float(np.mean(reference.y ** 2))


@st.composite
def counted_instance(draw):
    """(design, truth, n, seed, chunk): a basis design or a custom one with a
    zero-probability atom, labels or truncated Gaussian noise (sigma = 0
    included) about predictions of scale 1 or 100, and a noise chunk larger
    than n, smaller than the largest atom block, or ending at an atom's end."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        design = orthonormal_basis_design(m)
    else:
        k = draw(st.integers(2, 6))
        probs = rng.random(k)
        probs[draw(st.integers(0, k - 1))] = 0.0
        design = custom_design(np.stack([random_symmetric(rng, m) for _ in range(k)]), probs / probs.sum())
    noise = draw(st.sampled_from([ClassificationLink(), GaussianNoise(0.0), GaussianNoise(0.1), GaussianNoise(1.0)]))
    truth = TruthModel(s_star=draw(st.sampled_from([1.0, 100.0])) * random_symmetric(rng, m), noise=noise)
    n = draw(st.integers(1, 3000))
    seed = draw(st.integers(0, 2**32 - 1))
    counts = np.random.default_rng(seed).multinomial(n, design.probs)
    chunk = {
        "above n": n + 1,
        "inside a block": max(1, int(counts.max()) // 2),
        "at a block end": int(np.cumsum(counts)[np.flatnonzero(counts)[0]]),
    }[draw(st.sampled_from(["above n", "inside a block", "at a block end"]))]
    return design, truth, n, seed, chunk


@settings(max_examples=300, deadline=None)
@given(counted_instance())
@example(  # labels at a prediction of -400, where exp(-2 s) overflows to inf
    (orthonormal_basis_design(1), TruthModel(np.array([[-400.0]]), ClassificationLink()), 10, 0, 11)
)
def test_counted_sample_matches_per_sample_reference(instance):
    design, truth, n, seed, chunk = instance
    with mock.patch.object(designs, "_NOISE_CHUNK", chunk):
        data = sample_dataset(design, truth, n, seed)
    assert not {"atom_indices", "y"} & set(vars(data))  # nothing n-long yet
    counts, idx, y = _per_sample_draws(design, truth, n, seed)
    assert data.n == n and np.array_equal(data.counts, counts)
    if isinstance(truth.noise, ClassificationLink):  # the label row law comes from the counts
        data.response_law(log_cosh_loss())
        assert not {"atom_indices", "y"} & set(vars(data))
    reference = Dataset(design, data.atom_indices, data.y, seed)
    assert np.array_equal(data.atom_indices, idx) and np.array_equal(data.y, y)
    _assert_laws_match(data, reference)
    rows = data.response_law(log_cosh_loss())  # labels: counted rows, else per sample
    want = reference.response_law(log_cosh_loss())
    assert all(np.array_equal(getattr(rows, f), getattr(want, f)) for f in ("atoms", "y", "w"))


def test_forced_rejection_keeps_the_stream_and_the_law():
    # truncated at 0.5 sigma, three draws in five are rejected: the noise
    # stays in range and follows the truncated normal law, and the samples
    # and the counted sums do not depend on the chunk the draws come in
    noise = GaussianNoise(sigma=0.3)
    design = orthonormal_basis_design(3)
    truth = TruthModel(s_star=random_low_rank(np.random.default_rng(3), 3, 2), noise=noise)
    n = 3_000
    with mock.patch.object(GaussianNoise, "truncation", 0.5):
        x = noise._sample(np.random.default_rng(4), 20_000)
        assert np.all(np.abs(x) <= 0.5 * noise.sigma)
        assert stats.kstest(x / noise.sigma, stats.truncnorm(-0.5, 0.5).cdf).pvalue > 1e-3
        counts, idx, y = _per_sample_draws(design, truth, n, seed=9)
        for chunk in (1, 7, designs._NOISE_CHUNK):
            with mock.patch.object(designs, "_NOISE_CHUNK", chunk):
                data = sample_dataset(design, truth, n, seed=9)
            assert np.array_equal(data.counts, counts) and np.array_equal(data.y, y)
            _assert_laws_match(data, Dataset(design, idx, y, seed=9))


@pytest.mark.parametrize("noise", [GaussianNoise(sigma=0.2), ClassificationLink()])
def test_saved_counted_sample_loads_the_same_law(tmp_path, noise):
    design = orthonormal_basis_design(4)
    truth = TruthModel(s_star=random_low_rank(np.random.default_rng(2), 4, 2), noise=noise)
    data = sample_dataset(design, truth, 5_000, seed=13)
    save_dataset(tmp_path / "dataset.csv", data)
    _assert_laws_match(data, load_dataset(tmp_path / "dataset.csv", design))


@pytest.mark.parametrize(
    "noise, n, limit",
    [
        (ClassificationLink(), 10**9, 2**20),                         # O(k)
        (GaussianNoise(0.1), 4_000_000, 3 * 8 * designs._NOISE_CHUNK),  # a few chunks
    ],
)
def test_counted_sample_peak_memory(noise, n, limit):
    # sampling and both laws without the per-sample arrays, which would take
    # 16 B per sample: 16 GB of labels, 64 MB of regression samples
    design = orthonormal_basis_design(8)
    truth = TruthModel(s_star=random_low_rank(np.random.default_rng(4), 8, 2), noise=noise)
    tracemalloc.start()
    try:
        data = sample_dataset(design, truth, n, seed=5)
        data.response_law(squared_loss())
        data.response_sums
        if isinstance(noise, ClassificationLink):
            assert data.response_law(exponential_loss()).atoms.size <= 2 * design.num_atoms
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit
    assert not {"atom_indices", "y"} & set(vars(data))


def test_counted_sample_repr_and_equality_read_no_samples():
    # repr and == must not build the 16 B per sample arrays: 160 MB here
    design = orthonormal_basis_design(8)
    truth = TruthModel(s_star=random_low_rank(np.random.default_rng(4), 8, 2), noise=ClassificationLink())
    data = sample_dataset(design, truth, 10**7, seed=5)
    tracemalloc.start()
    try:
        repr(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert data == data
    assert isinstance(data == sample_dataset(design, truth, 10**7, seed=5), bool)
    assert not {"atom_indices", "y"} & set(vars(data))


def test_design_and_truth_equality_is_identity():
    # == used to compare the dense atoms, building both (k, m, m) stacks
    # (2.1 MB here, 6.4 GB each at m = 200) and then raising on the array
    a, b = orthonormal_basis_design(20), orthonormal_basis_design(20)
    tracemalloc.start()
    try:
        assert (a == b, a == a, hash(a) == hash(a)) == (False, True, True)
        repr(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert "atoms" not in vars(a) and "atoms" not in vars(b)
    s_star = random_low_rank(np.random.default_rng(3), 20, 2)
    t, u = TruthModel(s_star, GaussianNoise(0.1)), TruthModel(s_star, GaussianNoise(0.1))
    assert (t == u, t == t, hash(t) == hash(t)) == (False, True, True)


def test_truth_model_rejects_bad_matrices():
    for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[np.inf, 0.0], [0.0, 0.0]])):
        for noise in (GaussianNoise(0.1), ClassificationLink()):
            with pytest.raises(ValidationError):
                TruthModel(bad, noise)


def test_custom_design_validation():
    atoms = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(ValidationError):
        custom_design(atoms, np.array([0.7, 0.7]))
    with pytest.raises(ValidationError):
        custom_design(np.stack([np.array([[0.0, 1.0], [0.0, 0.0]])]), np.array([1.0]))
    design = custom_design(atoms, np.array([0.5, 0.5]))
    assert design.num_atoms == 2


def test_dense_design_takes_its_size_from_its_atoms_and_is_uniform_by_default():
    # the uniform weights are the ones a config without probs always had
    for k in (1, 3, 7):
        atoms = np.stack([np.diag([float(i), 1.0, -1.0]) for i in range(k)])
        design = DesignDistribution(atoms)
        assert design.dim == 3 and design.num_atoms == k
        assert design.probs.tobytes() == np.full(k, 1.0 / k).tobytes()
    for bad in (np.eye(2), np.ones((2, 2, 3))):
        with pytest.raises(ValidationError, match=r"^atoms must be a \(k, m, m\) stack$"):
            custom_design(bad)
    with pytest.raises(ValidationError, match=r"^probabilities must be nonnegative and sum to 1$"):
        custom_design(np.zeros((0, 2, 2)))


def test_custom_design_validation_names_the_first_failing_atom():
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    inf = np.array([[np.inf, 0.0], [0.0, 0.0]])
    uniform = np.full(3, 1.0 / 3.0)
    with pytest.raises(ValidationError, match=r"^atom 1: matrix is not symmetric within tolerance$"):
        custom_design(np.stack([np.eye(2), skew, inf]), uniform)
    with pytest.raises(ValidationError, match=r"^atom 1: matrix has non-finite entries$"):
        custom_design(np.stack([np.eye(2), inf, skew]), uniform)
    # the tolerance scales with each atom's own largest entry, not the stack's
    big = np.array([[1e6, 1e6], [1e6 + 1e-7, 0.0]])
    custom_design(np.stack([big, np.eye(2)]), np.full(2, 0.5))
    slightly_skew = np.eye(2) + np.array([[0.0, 1e-11], [0.0, 0.0]])
    with pytest.raises(ValidationError, match=r"^atom 1: matrix is not symmetric"):
        custom_design(np.stack([big, slightly_skew]), np.full(2, 0.5))


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
    predictions = design.forward(truth.s_star)
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
    # save -> load -> save writes the same bytes and loads the same arrays
    design = orthonormal_basis_design(4)
    s_star = random_low_rank(np.random.default_rng(3), 4, 2)
    for noise in (ClassificationLink(), GaussianNoise(sigma=0.1)):
        data = sample_dataset(design, TruthModel(s_star=s_star, noise=noise), 20_000, seed=8)
        save_dataset(tmp_path / "first.csv", data)
        back = load_dataset(tmp_path / "first.csv", design)
        save_dataset(tmp_path / "second.csv", back)
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
        assert np.array_equal(back.atom_indices, data.atom_indices) and np.array_equal(back.y, data.y)
        assert back.seed is None


def test_prediction_bound_values():
    design = orthonormal_basis_design(2)
    norms = design.atom_norms
    assert OperatorNormBall(1.0).prediction_bound(norms) == pytest.approx(np.sqrt(2.0))
    diag_only = custom_design(
        np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), np.array([0.5, 0.5])
    )
    assert OperatorNormBall(2.5).prediction_bound(diag_only.atom_norms) == pytest.approx(2.5)
    assert OperatorNormBall(0.0).prediction_bound(diag_only.atom_norms) == 0.0
    assert FrobeniusBall(2.0).prediction_bound(norms) == pytest.approx(2.0)
    with pytest.raises(ValidationError, match=r"\[constraint\] a"):
        Unconstrained().prediction_bound(norms)


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
    s_true = design.forward(truth.s_star)
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
    # the squared loss takes its risk from the moments: sum over the quadrature nodes
    loss = dataclasses.replace(squared_loss(), quadratic_in_response=False)
    r64 = population_risk(s, design, truth, loss)
    calls = []
    nodes = designs._legendre_nodes
    with mock.patch.object(designs, "QUADRATURE_NODES", 128), \
            mock.patch.object(designs, "_legendre_nodes", lambda num: calls.append(num) or nodes(num)):
        r128 = population_risk(s, design, truth, loss)
    assert calls == [128]
    assert abs(r64 - r128) < 1e-10


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
    register_loss("log-cosh", log_cosh_loss)
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
    u = design.forward(s)
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


def _full_law(noise, s):
    # the whole (k, q) response law: support points and their weights
    if isinstance(noise, ClassificationLink):
        p = noise.link(s)
        return np.array([1.0, -1.0]), np.stack([p, 1.0 - p], axis=-1)
    if noise.sigma == 0:
        return s[:, None], np.ones(1)
    nodes, weights = np.polynomial.legendre.leggauss(designs.QUADRATURE_NODES)
    xi = noise.cutoff * nodes
    density = np.exp(-0.5 * (xi / noise.sigma) ** 2) / (noise.sigma * np.sqrt(2.0 * np.pi))
    mass = 1.0 - math.erfc(noise.truncation / math.sqrt(2.0))
    return s[:, None] + xi, noise.cutoff * weights * density / mass


@pytest.mark.parametrize("case", ["gaussian", "gaussian-log-cosh", "noiseless", "labels"])
@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 1500),
    part=st.sampled_from(["value", "d1", "d2"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_expect_matches_full_law(case, k, part, seed):
    # each noise model's expectation against the sum over its whole (k, q)
    # law: bit for bit for labels and a noiseless truth, whose sums have at
    # most two terms.  Gaussian noise adds its nodes in order, np.sum
    # pairwise, so each atom may differ by the rounding of two 64-term sums:
    # at most 2 * 63 ulp of the sum of the terms' magnitudes
    noise, loss = {
        "gaussian": (GaussianNoise(sigma=0.3), squared_loss()),
        "gaussian-log-cosh": (GaussianNoise(sigma=0.3), log_cosh_loss()),
        "noiseless": (GaussianNoise(sigma=0.0), squared_loss()),
        "labels": (ClassificationLink(), exponential_loss()),
    }[case]
    fn = getattr(loss, part)
    rng = np.random.default_rng(seed)
    s, u = rng.uniform(-3.0, 3.0, size=k), rng.uniform(-3.0, 3.0, size=k)
    ys, w = _full_law(noise, s)
    terms = w * np.asarray(fn(ys, u[:, None]), dtype=float)
    got = noise.expect(fn, s, u)
    if case.startswith("gaussian"):
        tol = 2 * 63 * np.finfo(float).eps * np.sum(np.abs(terms), axis=-1)
        assert np.all(np.abs(got - np.sum(terms, axis=-1)) <= tol)
    else:
        assert got.tobytes() == np.sum(terms, axis=-1).tobytes()


def test_bayes_and_excess_risk_peak_memory():
    # at m = 100 (k = 5 050) the whole (k, 64) quadrature law and its
    # temporaries would take about 8 MB; node by node the Newton loop and
    # the population risk hold only k-long arrays.  The squared loss takes
    # the moments path and builds no law; without its flag it sums the
    # quadrature nodes
    design = orthonormal_basis_design(100)
    rng = np.random.default_rng(64)
    truth = TruthModel(s_star=random_low_rank(rng, 100, 2), noise=GaussianNoise(sigma=0.3))
    s = random_low_rank(rng, 100, 1)
    for loss in (squared_loss(), dataclasses.replace(squared_loss(), quadratic_in_response=False)):
        tracemalloc.start()
        try:
            excess_risk(s, design, truth, loss, bayes=bayes_risk_per_atom(design, truth, loss))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * designs.BLOCK_BYTES + 16 * 8 * design.num_atoms


def test_population_curvature_inequality_squared():
    # the directional-derivative lower bound at the population level, with the
    # conditional derivative expectation taken in closed form
    design = orthonormal_basis_design(3)
    rng = np.random.default_rng(60)
    s_star = random_low_rank(rng, 3, 2)
    truth = TruthModel(s_star=s_star, noise=GaussianNoise(sigma=0.3))
    loss = squared_loss()
    tau = 2.0
    s_vals = design.forward(truth.s_star)
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
    p = 1.0 / (1.0 + np.exp(-2.0 * design.forward(truth.s_star)))
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
    for dtype in (np.int32, np.uint8):  # any integer dtype is stored as int64
        data = Dataset(design=design, atom_indices=np.array([0, 2], dtype=dtype), y=np.array([1.0, 2.0]), seed=0)
        assert data.atom_indices.dtype == np.int64 and data.atom_indices.tolist() == [0, 2]


@pytest.mark.parametrize(
    "indices", [np.array([0.7, 2.9]), np.array([0.0, 2.0]), np.array([True, False])],
    ids=["fractional", "integral-floats", "booleans"],
)
def test_dataset_rejects_non_integer_indices(indices):
    # a cast would store [0, 2] or [1, 0] without a word
    design = orthonormal_basis_design(2)
    with pytest.raises(ValidationError, match="atom indices must be integers"):
        Dataset(design=design, atom_indices=indices, y=np.array([1.0, 2.0]), seed=0)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("", "dataset must contain at least one sample"),
        ("0,0.7,1.0\n", "malformed row"),
        ("0,True,1.0\n", "malformed row"),
        ("0,3,1.0\n", "atom index out of range"),
        ("0,1,1.0\n0,1\n", "malformed row"),
        ("0,1,1.0,2\n", "malformed row"),
        ("0,1,1.0\n\n0,1,2.0\n", "malformed row"),
    ],
    ids=["empty", "fractional-index", "boolean-index", "out-of-range", "two-fields", "four-fields", "blank-line"],
)
def test_load_dataset_names_the_file(tmp_path, rows, message):
    path = tmp_path / "dataset.csv"
    path.write_text("j,atom_index,y\n" + rows, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {message}"):
        load_dataset(path, orthonormal_basis_design(2))


# measured at most 2.3e-15 over 600 random draws at m = 1-6 (population and
# Bayes risks relative to themselves, the excess risk relative to the
# population risk, since it is the difference of two risks)
MOMENTS_RTOL = 1e-14


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 6),
    noise=st.sampled_from(
        [GaussianNoise(sigma=0.0), GaussianNoise(sigma=0.1), GaussianNoise(sigma=1.0), ClassificationLink()]
    ),
    rank=st.integers(0, 6),
    scale=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadratic_risks_from_moments_match_quadrature(m, noise, rank, scale, seed):
    # the squared loss takes its risks from each atom's response mean and
    # variance; the same loss without the flag sums the 64-node quadrature
    # law (two points for labels), the reference
    rng = np.random.default_rng(seed)
    rank = min(rank, m)
    spectrum = list(rng.uniform(-2.0, 2.0, rank))
    s_star = random_low_rank(rng, m, rank, spectrum=spectrum) if rank else np.zeros((m, m))
    truth = TruthModel(s_star=s_star, noise=noise)
    design = orthonormal_basis_design(m)
    s = random_symmetric(rng, m, scale=scale)
    fast, reference = squared_loss(), dataclasses.replace(squared_loss(), quadratic_in_response=False)
    risk = population_risk(s, design, truth, reference)
    assert population_risk(s, design, truth, fast) == pytest.approx(risk, rel=MOMENTS_RTOL, abs=0.0)
    bayes = bayes_risk_per_atom(design, truth, reference)
    np.testing.assert_allclose(bayes_risk_per_atom(design, truth, fast), bayes, rtol=MOMENTS_RTOL, atol=0.0)
    excess = excess_risk(s, design, truth, reference, bayes=bayes)
    assert abs(excess_risk(s, design, truth, fast) - excess) <= MOMENTS_RTOL * risk


def test_truncated_normal_variance_matches_scipy():
    noise = GaussianNoise(sigma=0.7)
    c = noise.truncation
    mean, variance = noise.moments(np.array([0.3, -1.2]))
    assert np.array_equal(mean, [0.3, -1.2])
    assert variance == pytest.approx(0.7**2 * stats.truncnorm(-c, c).var(), rel=1e-14)
    assert GaussianNoise(sigma=0.0).moments(np.zeros(2))[1] == 0.0
    # labels: mean 2p - 1, variance 1 - (2p - 1)^2
    p = ClassificationLink().link(np.array([0.4]))
    mean, variance = ClassificationLink().moments(np.array([0.4]))
    assert mean == pytest.approx(2 * p - 1, rel=1e-15)
    assert variance == pytest.approx(1 - (2 * p - 1) ** 2, rel=1e-14)
