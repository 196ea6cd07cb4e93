"""Finite-support design distributions, data generation and exact risks.

A design is a finite list of symmetric atom matrices with sampling
probabilities.  The estimator sees it only through its linear map
``forward``, S -> (<S, X_k>)_k, and ``adjoint``, w -> sum_k w_k X_k; samples
are atom indices, never a stack of covariates.  Finite support makes the L2
norm of a linear functional, the population risk and the excess risk exactly
computable, which the verification harness relies on.  The canonical design
is uniform sampling from the orthonormal basis of the symmetric matrix
space (the completion-style model).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .constraints import ConstraintSet, FrobeniusBall, OperatorNormBall, Unconstrained
from .errors import NumericalError, ValidationError
from .losses import FiniteSet, Interval, LossModel, ResponseDomain
from .matrices import frobenius_norm, nuclear_norm, validate_symmetric

PROB_TOL = 1e-12
ORTHONORMAL_TOL = 1e-9
QUADRATURE_NODES = 64
NOISE_TRUNCATION = 6.0  # truncation at 6 sigma keeps the response domain bounded
BAYES_XTOL = 1e-12     # relative step size at which the Newton iteration stops
BAYES_MAX_ITERS = 100  # enough for bisection alone to reach BAYES_XTOL


@dataclass(frozen=True)
class DesignDistribution:
    """Finite-support law of the matrix covariate."""

    dim: int
    atoms: np.ndarray          # (k, dim, dim)
    probs: np.ndarray          # (k,), sums to 1
    is_orthonormal_basis: bool = False

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if atoms.ndim != 3 or atoms.shape[1:] != (self.dim, self.dim):
            raise ValidationError(f"atoms must be (k, {self.dim}, {self.dim})")
        if probs.shape != (atoms.shape[0],):
            raise ValidationError("one probability per atom required")
        if np.any(probs < 0) or abs(float(np.sum(probs)) - 1.0) > PROB_TOL:
            raise ValidationError("probabilities must be nonnegative and sum to 1")
        for i, atom in enumerate(atoms):
            try:
                validate_symmetric(atom)
            except ValidationError as exc:
                raise ValidationError(f"atom {i}: {exc}") from None
        if self.is_orthonormal_basis:
            flat = atoms.reshape(atoms.shape[0], -1)
            gram = flat @ flat.T
            if float(np.max(np.abs(gram - np.eye(atoms.shape[0])))) > ORTHONORMAL_TOL:
                raise ValidationError("atoms are not pairwise Frobenius-orthonormal")
            if float(np.max(np.abs(probs - 1.0 / atoms.shape[0]))) > PROB_TOL:
                raise ValidationError("orthonormal-basis designs must be uniform")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @property
    def num_atoms(self) -> int:
        return self.atoms.shape[0]

    def forward(self, s: np.ndarray) -> np.ndarray:
        """The design's linear map: S -> (<S, X_k>)_k, shape (k,)."""
        return self.atoms.reshape(self.num_atoms, -1) @ np.ravel(s)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """Adjoint of ``forward``: w -> sum_k w_k X_k, batched over leading axes."""
        flat = np.asarray(w) @ self.atoms.reshape(self.num_atoms, -1)
        return flat.reshape(*np.shape(w)[:-1], self.dim, self.dim)


def orthonormal_basis_design(m: int) -> DesignDistribution:
    """Uniform sampling from the m(m+1)/2 symmetric basis matrices.

    Diagonal units e_i e_i^T come first, then (e_i e_j^T + e_j e_i^T)/sqrt(2)
    for i < j in lexicographic order.
    """
    if m < 1:
        raise ValidationError("dimension must be at least 1")
    atoms = []
    for i in range(m):
        e = np.zeros((m, m))
        e[i, i] = 1.0
        atoms.append(e)
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros((m, m))
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            atoms.append(e)
    k = len(atoms)
    return DesignDistribution(
        dim=m,
        atoms=np.stack(atoms),
        probs=np.full(k, 1.0 / k),
        is_orthonormal_basis=True,
    )


def custom_design(atoms: np.ndarray, probs: np.ndarray) -> DesignDistribution:
    """Finite design from explicit atoms and probabilities."""
    atoms = np.asarray(atoms, dtype=float)
    if atoms.ndim != 3:
        raise ValidationError("atoms must be a (k, m, m) stack")
    return DesignDistribution(dim=atoms.shape[1], atoms=atoms, probs=probs)


def functional_l2_norm(a: np.ndarray, design: DesignDistribution) -> float:
    """Exact L2 norm of x -> <A, x> under the design law.

    For a uniform orthonormal-basis design this equals the Frobenius norm
    of ``a`` divided by sqrt(#atoms).
    """
    a = validate_symmetric(a)
    if a.shape[0] != design.dim:
        raise ValidationError(
            f"dimension mismatch: design dim {design.dim}, matrix dim {a.shape[0]}"
        )
    coeffs = design.forward(a)
    return float(np.sqrt(np.sum(design.probs * coeffs**2)))


# -- truth models --------------------------------------------------------------

@dataclass(frozen=True)
class GaussianNoise:
    """Additive centered Gaussian noise truncated to [-c, c], c = truncation * sigma."""

    sigma: float
    truncation: float = NOISE_TRUNCATION

    def __post_init__(self):
        if self.sigma < 0 or self.truncation < 0:
            raise ValidationError("noise scale and truncation must be nonnegative")

    @property
    def cutoff(self) -> float:
        return self.sigma * self.truncation


def _symmetric_logistic(s):
    # chosen so the population minimizer of the exponential loss is s itself
    return 1.0 / (1.0 + np.exp(-2.0 * np.asarray(s, dtype=float)))


@dataclass(frozen=True)
class ClassificationLink:
    """Binary responses in {-1, +1} with P(Y = 1 | X) = link(<S*, X>)."""

    link: Callable = _symmetric_logistic


@dataclass(frozen=True)
class TruthModel:
    """Ground-truth matrix plus the conditional law of the response."""

    s_star: np.ndarray
    noise: GaussianNoise | ClassificationLink

    def __post_init__(self):
        object.__setattr__(self, "s_star", validate_symmetric(self.s_star))


def truth_predictions(truth: TruthModel, design: DesignDistribution) -> np.ndarray:
    return design.forward(truth.s_star)


def response_domain(truth: TruthModel, design: DesignDistribution) -> ResponseDomain:
    """Range of the response variable under the truth model."""
    if isinstance(truth.noise, ClassificationLink):
        return FiniteSet((-1.0, 1.0))
    s_max = float(np.max(np.abs(truth_predictions(truth, design))))
    half = s_max + truth.noise.cutoff
    return Interval(-half, half)


# -- datasets ------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Sampled (X_j, Y_j) pairs; covariates stored as atom indices."""

    design: DesignDistribution
    atom_indices: np.ndarray  # (n,)
    y: np.ndarray             # (n,)
    seed: int | None

    def __post_init__(self):
        idx = np.asarray(self.atom_indices, dtype=np.int64)
        y = np.asarray(self.y, dtype=float)
        if idx.ndim != 1 or y.shape != idx.shape:
            raise ValidationError("atom_indices and y must be matched 1-d arrays")
        if idx.size == 0:
            raise ValidationError("dataset must contain at least one sample")
        if np.any(idx < 0) or np.any(idx >= self.design.num_atoms):
            raise ValidationError("atom index out of range")
        if not np.all(np.isfinite(y)):
            raise ValidationError("responses must be finite")
        object.__setattr__(self, "atom_indices", idx)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.atom_indices.shape[0]


def _truncated_gaussian(noise: GaussianNoise, rng: np.random.Generator, size: int) -> np.ndarray:
    if noise.sigma == 0:
        return np.zeros(size)
    # inverse-CDF sampling keeps the draw count independent of rejections
    tail = ndtr(-noise.truncation)
    u = rng.random(size)
    return noise.sigma * ndtri(tail + u * (1.0 - 2.0 * tail))


def sample_dataset(
    design: DesignDistribution,
    truth: TruthModel,
    n: int,
    seed: int,
) -> Dataset:
    """Draw n i.i.d. (X, Y) pairs; deterministic given the seed."""
    if n < 1:
        raise ValidationError("sample count must be at least 1")
    rng = np.random.default_rng(seed)
    idx = rng.choice(design.num_atoms, size=n, p=design.probs)
    s = truth_predictions(truth, design)[idx]
    if isinstance(truth.noise, ClassificationLink):
        p = np.asarray(truth.noise.link(s), dtype=float)
        y = np.where(rng.random(n) < p, 1.0, -1.0)
    else:
        y = s + _truncated_gaussian(truth.noise, rng, n)
    return Dataset(design=design, atom_indices=idx, y=y, seed=seed)


def save_dataset(path, dataset: Dataset) -> None:
    """Write the dataset CSV: columns (j, atom_index, y)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "atom_index", "y"])
        for j, (idx, y) in enumerate(zip(dataset.atom_indices, dataset.y)):
            writer.writerow([j, int(idx), repr(float(y))])


def load_dataset(path, design: DesignDistribution) -> Dataset:
    """Read a dataset CSV back against its generating design; every error
    names the file."""
    indices, ys = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["j", "atom_index", "y"]:
            raise ValidationError(f"{path}: expected header j,atom_index,y")
        for row in reader:
            try:
                _, index, y = row
                indices.append(int(index))
                ys.append(float(y))
            except ValueError:
                raise ValidationError(f"{path}: malformed row {row!r}") from None
    try:
        return Dataset(design=design, atom_indices=np.array(indices), y=np.array(ys), seed=None)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


# -- prediction bound ----------------------------------------------------------

def prediction_bound(constraint: ConstraintSet, design: DesignDistribution) -> float:
    """Almost-sure bound on |<S, X>| over feasible S and design atoms.

    Dual-norm evaluation per atom: an operator-norm ball of radius rho gives
    rho * max nuclear norm of an atom, a Frobenius ball rho * max Frobenius
    norm.  Unbounded feasible sets leave the bound undefined.
    """
    if isinstance(constraint, Unconstrained):
        raise ValidationError(
            "prediction bound undefined for an unconstrained feasible set; "
            "supply the bound explicitly"
        )
    if isinstance(constraint, OperatorNormBall):
        return constraint.rho * max(nuclear_norm(atom) for atom in design.atoms)
    if isinstance(constraint, FrobeniusBall):
        return constraint.rho * max(frobenius_norm(atom) for atom in design.atoms)
    raise ValidationError(f"unknown constraint {constraint!r}")


# -- population and excess risk -------------------------------------------------

@lru_cache(maxsize=8)
def _legendre_nodes(num: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(num)


def _response_law(
    design: DesignDistribution, truth: TruthModel, quadrature_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per atom, the conditional law of Y as support points ``ys`` and
    weights ``w`` that broadcast to (k, q): E[f(Y) | X = atom k] is
    sum_q w f(ys).  Classification puts weights (p, 1 - p) on (+1, -1),
    Gaussian noise has Gauss-Legendre nodes on [-cutoff, cutoff], and a
    noiseless truth is the single point of its prediction."""
    s = truth_predictions(truth, design)
    if isinstance(truth.noise, ClassificationLink):
        p = np.asarray(truth.noise.link(s), dtype=float)
        return np.array([1.0, -1.0]), np.stack([p, 1.0 - p], axis=-1)

    noise = truth.noise
    if noise.sigma == 0 or noise.cutoff == 0:
        return s[:, None], np.ones(1)

    nodes, weights = _legendre_nodes(quadrature_nodes)
    c = noise.cutoff
    xi = c * nodes
    density = np.exp(-0.5 * (xi / noise.sigma) ** 2) / (
        noise.sigma * np.sqrt(2.0 * np.pi)
    )
    mass = 1.0 - 2.0 * ndtr(-noise.truncation)
    return s[:, None] + xi, c * weights * density / mass


def _conditional_mean(fn: Callable, law: tuple, u: np.ndarray) -> np.ndarray:
    """Per atom, E[fn(Y; u_k) | X = atom k] under the response law ``law``."""
    ys, w = law
    return np.sum(w * np.asarray(fn(ys, u[:, None]), dtype=float), axis=-1)


def population_risk(
    s: np.ndarray,
    design: DesignDistribution,
    truth: TruthModel,
    loss: LossModel,
    quadrature_nodes: int = QUADRATURE_NODES,
) -> float:
    """Exact risk of the linear rule x -> <S, x> under the truth model: the
    design probabilities times each atom's conditional expected loss, one
    (k, q) array evaluation over the response law."""
    s = validate_symmetric(s)
    law = _response_law(design, truth, quadrature_nodes)
    per_atom = _conditional_mean(loss.value, law, design.forward(s))
    if not np.all(np.isfinite(per_atom)):
        raise NumericalError("population risk overflowed; predictions too large for the loss")
    return float(np.dot(design.probs, per_atom))


def bayes_risk_per_atom(
    design: DesignDistribution, truth: TruthModel, loss: LossModel
) -> np.ndarray:
    """Per-atom minimal conditional risk inf_u E[loss(Y; u) | X = atom].

    The minimizer is the root of E[d1(Y; u) | X].  One vectorized Newton
    iteration finds it for all atoms, started at the truth predictions and
    safeguarded by a per-atom bracket, first [-half, half], that shrinks with
    the sign of the derivative; a step that leaves it is replaced by
    bisection.  The bracket covers every conditional minimizer of the
    registered losses under the finite truth models.  Independent of the
    candidate matrix, so compute it once per truth.
    """
    law = _response_law(design, truth, QUADRATURE_NODES)
    s = truth_predictions(truth, design)
    cutoff = 0.0 if isinstance(truth.noise, ClassificationLink) else truth.noise.cutoff
    half = max(1.0, 10.0 * (float(np.max(np.abs(s))) + cutoff))
    lo, hi = np.full_like(s, -half), np.full_like(s, half)
    u = s.copy()
    for _ in range(BAYES_MAX_ITERS):
        d1 = _conditional_mean(loss.d1, law, u)
        lo, hi = np.where(d1 < 0, u, lo), np.where(d1 > 0, u, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_next = u - d1 / _conditional_mean(loss.d2, law, u)
        u_next = np.where((u_next >= lo) & (u_next <= hi), u_next, 0.5 * (lo + hi))
        done = np.all(np.abs(u_next - u) <= BAYES_XTOL * (1.0 + np.abs(u)))
        u = u_next
        if done:
            return _conditional_mean(loss.value, law, u)
    raise NumericalError(
        f"conditional risk minimization did not converge in {BAYES_MAX_ITERS} "
        "Newton-bisection steps"
    )


def excess_risk(
    s: np.ndarray,
    design: DesignDistribution,
    truth: TruthModel,
    loss: LossModel,
    bayes: np.ndarray | None = None,
) -> float:
    """Risk of <S, .> minus the minimal risk over all prediction rules."""
    if bayes is None:
        bayes = bayes_risk_per_atom(design, truth, loss)
    risk = population_risk(s, design, truth, loss)
    return max(0.0, risk - float(np.dot(design.probs, bayes)))
