"""Finite-support design distributions, data generation and exact risks.

A design is a finite list of symmetric atom matrices with sampling
probabilities.  The estimator sees it only through its linear map
``forward``, S -> (<S, X_k>)_k, its ``adjoint``, per-atom norms and the
second moment; samples are atom indices, never a stack of covariates.
Finite support makes the L2 norm of a linear functional, the population risk
and the excess risk exactly computable, which the verification harness
relies on.  The canonical design is uniform sampling from the orthonormal
basis of the symmetric matrix space (the completion-style model), stored as
two positions and two weights per atom; custom designs store dense atoms.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, ClassVar, NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import NumericalError, ValidationError
from .losses import FiniteSet, Interval, LossModel, ResponseDomain
from .matrices import SYMMETRY_TOL, validate_symmetric

PROB_TOL = 1e-12
ORTHONORMAL_TOL = 1e-9
QUADRATURE_NODES = 64
NOISE_TRUNCATION = 6.0  # truncation at 6 sigma keeps the response domain bounded
BAYES_XTOL = 1e-12     # relative step size at which the Newton iteration stops
BAYES_MAX_ITERS = 100  # enough for bisection alone to reach BAYES_XTOL


class AtomNorms(NamedTuple):  # each of shape (k,)
    sq_frobenius: np.ndarray
    nuclear: np.ndarray
    operator: np.ndarray


@dataclass(frozen=True)
class DesignDistribution:
    """Finite-support law of the matrix covariate, stored as dense atoms."""

    dim: int
    atoms: np.ndarray = field(repr=False)  # (k, dim, dim)
    probs: np.ndarray          # (k,), sums to 1
    is_orthonormal_basis: ClassVar[bool] = False

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if atoms.ndim != 3 or atoms.shape[1:] != (self.dim, self.dim):
            raise ValidationError(f"atoms must be (k, {self.dim}, {self.dim})")
        if probs.shape != (atoms.shape[0],):
            raise ValidationError("one probability per atom required")
        if np.any(probs < 0) or abs(float(np.sum(probs)) - 1.0) > PROB_TOL:
            raise ValidationError("probabilities must be nonnegative and sum to 1")
        finite = np.all(np.isfinite(atoms), axis=(1, 2))  # validate_symmetric, batched
        with np.errstate(invalid="ignore"):  # inf - inf in a non-finite atom
            skew = np.max(np.abs(atoms - atoms.transpose(0, 2, 1)), axis=(1, 2), initial=0.0)
            bad = ~finite | (skew > SYMMETRY_TOL * np.max(np.abs(atoms), axis=(1, 2), initial=1.0))
        if np.any(bad):
            i = int(np.argmax(bad))
            problem = "is not symmetric within tolerance" if finite[i] else "has non-finite entries"
            raise ValidationError(f"atom {i}: matrix {problem}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @property
    def num_atoms(self) -> int:
        return self.probs.shape[0]

    def forward(self, s: np.ndarray) -> np.ndarray:
        """The design's linear map: S -> (<S, X_k>)_k, shape (k,)."""
        return self.atoms.reshape(self.num_atoms, -1) @ np.ravel(s)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """Adjoint of ``forward``: w -> sum_k w_k X_k, batched over leading axes."""
        flat = np.asarray(w) @ self.atoms.reshape(self.num_atoms, -1)
        return flat.reshape(*np.shape(w)[:-1], self.dim, self.dim)

    @cached_property
    def atom_norms(self) -> AtomNorms:
        lam = np.abs(np.linalg.eigvalsh(self.atoms))
        return AtomNorms(np.einsum("kij,kij->k", self.atoms, self.atoms), lam.sum(-1), lam.max(-1))

    @property
    def second_moment(self) -> np.ndarray:
        """E[X^2] = sum_k p_k X_k^2, shape (dim, dim)."""
        return np.einsum("k,kij,kjl->il", self.probs, self.atoms, self.atoms)


class BasisDesign(DesignDistribution):
    """The uniform orthonormal basis stored by index: atom k is wa[k] at flat
    position ia[k] plus wb[k] at its transpose ib[k] (wb = 0 on the diagonal,
    wa = wb off it), checked in O(k).  The maps are a gather and a scatter,
    the norms come from the weights, and ``atoms`` is built only on first use."""

    is_orthonormal_basis: ClassVar[bool] = True

    def __init__(self, dim: int, ia, ib, wa, wb):
        k = dim * (dim + 1) // 2
        rows, cols = np.divmod(ia, dim)
        # one unit-norm symmetric atom per upper-triangle position: orthonormal
        if not (
            all(a.shape == (k,) for a in (ia, ib, wa, wb))
            and np.all((rows >= 0) & (rows <= cols) & (ib == cols * dim + rows))
            and np.unique(ia).size == k
            and np.all(np.where(ia == ib, wb == 0, wa == wb))
            and np.all(np.abs(wa * wa + wb * wb - 1.0) <= ORTHONORMAL_TOL)
        ):
            raise ValidationError("index arrays do not form an orthonormal basis")
        probs = np.full(k, 1.0 / k)  # the base is frozen: fill the instance directly
        vars(self).update(dim=dim, probs=probs, ia=ia, ib=ib, wa=wa, wb=wb)

    @cached_property
    def atoms(self) -> np.ndarray:
        """The dense (k, dim, dim) stack; the maps and norms never read it."""
        return self.adjoint(np.eye(self.num_atoms))

    def forward(self, s: np.ndarray) -> np.ndarray:
        flat = np.ravel(s)
        return flat.take(self.ia) * self.wa + flat.take(self.ib) * self.wb

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        # wa = wb wherever ia != ib, so w * wa fills both positions
        flat = np.zeros((*np.shape(w)[:-1], self.dim * self.dim))
        flat[..., self.ia] = flat[..., self.ib] = w * self.wa
        return flat.reshape(*np.shape(w)[:-1], self.dim, self.dim)

    @cached_property
    def atom_norms(self) -> AtomNorms:
        wa, wb = np.abs(self.wa), np.abs(self.wb)
        return AtomNorms(self.wa * self.wa + self.wb * self.wb, wa + wb, np.maximum(wa, wb))

    @property
    def second_moment(self) -> np.ndarray:
        # X_k^2 is diagonal: each weight, squared, lands on its row
        rows = np.concatenate([self.ia, self.ib]) // self.dim
        weights = np.concatenate([self.probs * self.wa * self.wa, self.probs * self.wb * self.wb])
        return np.diag(np.bincount(rows, weights=weights, minlength=self.dim))


def orthonormal_basis_design(m: int) -> BasisDesign:
    """Uniform sampling from the m(m+1)/2 symmetric basis matrices.

    Diagonal units e_i e_i^T come first, then (e_i e_j^T + e_j e_i^T)/sqrt(2)
    for i < j in lexicographic order.
    """
    if m < 1:
        raise ValidationError("dimension must be at least 1")
    rows, cols = np.triu_indices(m, 1)
    rows, cols = np.r_[np.arange(m), rows], np.r_[np.arange(m), cols]
    wb = np.where(rows == cols, 0.0, 1.0 / np.sqrt(2.0))
    wa = np.where(rows == cols, 1.0, wb)
    return BasisDesign(m, ia=rows * m + cols, ib=cols * m + rows, wa=wa, wb=wb)


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
    truncation: ClassVar[float] = NOISE_TRUNCATION

    def __post_init__(self):
        if self.sigma < 0:
            raise ValidationError("noise scale must be nonnegative")

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


def response_domain(truth: TruthModel, design: DesignDistribution) -> ResponseDomain:
    """Range of the response variable under the truth model."""
    if isinstance(truth.noise, ClassificationLink):
        return FiniteSet((-1.0, 1.0))
    s_max = float(np.max(np.abs(design.forward(truth.s_star))))
    half = s_max + truth.noise.cutoff
    return Interval(-half, half)


# -- datasets ------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalLaw:
    """A sample's response law as weighted rows, the empirical counterpart of
    ``_response_law``: the sample mean of f(Y_j; u at X_j) is
    sum_r w[r] f(y[r]; u[atoms[r]]), plus ``const`` when f is the value of a
    loss that is quadratic in the response.  Every weight is positive, so
    only responses that occur are ever evaluated.

    For such a loss y[r] is an atom's response mean rounded to a double, and
    ``d1_remainder[r]`` = -2 w[r] (mean - y[r]) is what the rounding leaves
    out: it is added to row r of d1, and d1_remainder[r] (u - y[r]) to the
    value.  Without it, y[r] - u cancels when responses are large next to
    their residuals and leaves the rounding as the error."""

    atoms: np.ndarray  # (r,) atom index of each row
    y: np.ndarray      # (r,) response value
    w: np.ndarray      # (r,) positive weights summing to 1
    const: float = 0.0
    d1_remainder: np.ndarray | None = None  # (r,)


@dataclass(frozen=True)
class Dataset:
    """Sampled (X_j, Y_j) pairs; covariates stored as integer atom indices.
    The estimator never reads the sample order, but the squared-loss law is
    built per run of equal consecutive atoms, so it is fastest grouped by
    atom (k runs), as ``sample_dataset`` returns and ``load_dataset`` keeps
    it: at m = 8, n = 10^6 about 4 ms, against 21 ms shuffled.  The per-atom
    statistics and response laws are computed once and cached, so the
    arrays are not to be modified after construction."""

    design: DesignDistribution
    atom_indices: np.ndarray  # (n,)
    y: np.ndarray             # (n,)
    seed: int | None

    def __post_init__(self):
        idx = np.asarray(self.atom_indices)
        y = np.asarray(self.y, dtype=float)
        if idx.ndim != 1 or y.shape != idx.shape:
            raise ValidationError("atom_indices and y must be matched 1-d arrays")
        if idx.size == 0:
            raise ValidationError("dataset must contain at least one sample")
        if idx.dtype.kind not in "iu":  # no truncated floats, no booleans as 0/1
            raise ValidationError(f"atom indices must be integers, not {idx.dtype}")
        if np.any(idx < 0) or np.any(idx >= self.design.num_atoms):
            raise ValidationError("atom index out of range")
        if not np.all(np.isfinite(y)):
            raise ValidationError("responses must be finite")
        object.__setattr__(self, "atom_indices", idx.astype(np.int64, copy=False))
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.atom_indices.shape[0]

    @cached_property
    def _atom_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and length of each run of equal consecutive atom indices."""
        idx = self.atom_indices
        starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
        return starts, np.diff(np.r_[starts, self.n])

    def _per_atom_sums(self, values: np.ndarray) -> np.ndarray:
        starts, _ = self._atom_runs
        sums = np.add.reduceat(values, starts)
        return np.bincount(self.atom_indices[starts], sums, minlength=self.design.num_atoms)

    @cached_property
    def response_sums(self) -> np.ndarray:
        """Per atom, the sum of its sampled responses, shape (k,)."""
        return self._per_atom_sums(self.y)

    def response_law(self, loss: LossModel) -> EmpiricalLaw:
        """The sample's response law for ``loss``, built once per dataset."""
        return self._mean_law if loss.quadratic_in_response else self._row_law

    @cached_property
    def _mean_law(self) -> EmpiricalLaw:
        # (y - u)^2 + C(u) averages over an atom's responses to the loss at
        # their mean plus their centered mean square, whatever u is; centered
        # about the rounded mean, the responses sum to count * (mean - y)
        starts, lengths = self._atom_runs
        run_atoms = self.atom_indices[starts]
        counts = np.bincount(run_atoms, weights=lengths, minlength=self.design.num_atoms)
        mean = np.divide(
            self.response_sums, counts, out=np.zeros(counts.shape), where=counts > 0
        )
        centered = self.y - np.repeat(mean[run_atoms], lengths)
        seen = np.flatnonzero(counts)
        return EmpiricalLaw(
            atoms=seen,
            y=mean[seen],
            w=counts[seen] / self.n,
            const=float(centered @ centered) / self.n,
            d1_remainder=-2.0 * self._per_atom_sums(centered)[seen] / self.n,
        )

    @cached_property
    def _row_law(self) -> EmpiricalLaw:
        # any other loss keeps one row per run of equal consecutive (atom,
        # response) samples, weighted by its length: at most 2k rows for
        # sampled labels, one per sample for distinct responses
        idx, y = self.atom_indices, self.y
        starts = np.flatnonzero(np.r_[True, (idx[1:] != idx[:-1]) | (y[1:] != y[:-1])])
        lengths = np.diff(np.r_[starts, self.n])
        return EmpiricalLaw(atoms=idx[starts], y=y[starts], w=lengths / self.n)


def _truncated_gaussian(noise: GaussianNoise, rng: np.random.Generator, size: int) -> np.ndarray:
    if noise.sigma == 0:
        return np.zeros(size)
    # inverse-CDF sampling keeps the draw count independent of rejections;
    # in place, each value is sigma * ndtri(tail + u * (1 - 2 tail)) exactly
    tail = ndtr(-noise.truncation)
    u = rng.random(size)
    u *= 1.0 - 2.0 * tail
    u += tail
    ndtri(u, out=u)
    u *= noise.sigma
    return u


def sample_dataset(
    design: DesignDistribution,
    truth: TruthModel,
    n: int,
    seed: int,
) -> Dataset:
    """Draw n i.i.d. (X, Y) pairs; deterministic given the seed.

    The atom counts are one multinomial draw, and the samples come grouped
    by atom in index order: i.i.d. as a multiset, which is all the
    estimator reads.  Regression adds truncated Gaussian noise to each
    atom's prediction; labels draw each atom's +1 count as a binomial and
    list its +1s before its -1s.
    """
    if n < 1:
        raise ValidationError("sample count must be at least 1")
    rng = np.random.default_rng(seed)
    k = design.num_atoms
    counts = rng.multinomial(n, design.probs)
    idx = np.repeat(np.arange(k), counts)
    s = design.forward(truth.s_star)
    if isinstance(truth.noise, ClassificationLink):
        pos = rng.binomial(counts, np.asarray(truth.noise.link(s), dtype=float))
        runs = np.stack([pos, counts - pos], axis=1).ravel()
        y = np.repeat(np.tile([1.0, -1.0], k), runs)
    else:
        y = _truncated_gaussian(truth.noise, rng, n)
        y += np.repeat(s, counts)
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
    s = design.forward(truth.s_star)
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
    s = design.forward(truth.s_star)
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
