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

import io
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, ClassVar, NamedTuple

import numpy as np
# numpy loads these submodules on first use: load them here, not inside a run
import numpy.polynomial.legendre
import numpy.random

from .errors import NumericalError, ValidationError
from .losses import FiniteSet, Interval, LossModel, ResponseDomain
from .matrices import validate_symmetric

PROB_TOL = 1e-12
ORTHONORMAL_TOL = 1e-9
QUADRATURE_NODES = 64
BAYES_XTOL = 1e-12     # relative step size at which the Newton iteration stops
BAYES_MAX_ITERS = 100  # enough for bisection alone to reach BAYES_XTOL
BLOCK_BYTES = 1 << 18  # the working-set block that sizes every blocked loop's arrays: 256 kB
_NOISE_CHUNK = BLOCK_BYTES // 8  # noise draws folded at a time: one block


def block_rows(width: int) -> int:
    """Rows per block so that a (rows, width) float array takes about
    ``BLOCK_BYTES``."""
    return max(1, BLOCK_BYTES // (8 * width))


class AtomNorms(NamedTuple):  # each of shape (k,)
    sq_frobenius: np.ndarray
    nuclear: np.ndarray
    operator: np.ndarray


class DesignDistribution:
    """Finite-support law of the matrix covariate, stored as dense atoms:
    ``atoms`` is the (k, dim, dim) stack, each atom checked by
    ``validate_symmetric``, and ``probs`` its (k,) sampling probabilities,
    which sum to 1 (uniform by default).  A fixed sample is the design of
    its own draws, each at weight 1/n.  Equality is identity."""

    is_orthonormal_basis = False

    def __init__(self, atoms, probs=None):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim != 3 or atoms.shape[1] != atoms.shape[2]:
            raise ValidationError("atoms must be a (k, m, m) stack")
        k = atoms.shape[0]
        probs = np.ones(k) / k if probs is None else np.asarray(probs, dtype=float)
        if probs.shape != (k,):
            raise ValidationError("one probability per atom required")
        if np.any(probs < 0) or abs(float(np.sum(probs)) - 1.0) > PROB_TOL:
            raise ValidationError("probabilities must be nonnegative and sum to 1")
        for i, atom in enumerate(atoms):
            try:
                validate_symmetric(atom)
            except ValidationError as exc:
                raise ValidationError(f"atom {i}: {exc}") from None
        self.dim, self.atoms, self.probs = atoms.shape[1], atoms, probs

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

    def trace_moments(self, n: int) -> tuple[float, float]:
        """(E tr W^2, E tr W^4) of the normalized Rademacher average
        W = n^-1/2 sum_j eps_j X_j of n draws: sum_k p_k ||X_k||_F^2, and
        (1 - 1/n)(2 tr M^2 + T) + (1/n) sum_k p_k tr X_k^4, where M is the
        second moment and T = sum_jk p_j p_k tr(X_j X_k X_j X_k)."""
        square, cross, quartic = self._quartic_terms()
        return (
            float(self.probs @ self.atom_norms.sq_frobenius),
            (1.0 - 1.0 / n) * (2.0 * square + cross) + quartic / n,
        )

    def _quartic_terms(self) -> tuple[float, float, float]:
        """(tr M^2, T, sum_k p_k tr X_k^4); T contracts the (dim^2, dim^2)
        matrix Q = sum_k p_k vec X_k vec X_k^T with itself as
        sum_abcd Q[ab, cd] Q[bc, da]."""
        d = self.dim
        flat = self.atoms.reshape(self.num_atoms, -1)
        q = ((flat.T * self.probs) @ flat).reshape(d, d, d, d)
        squares = np.einsum("kij,kjl->kil", self.atoms, self.atoms)
        return (
            float(np.sum(self.second_moment**2)),
            float(np.einsum("abcd,bcda->", q, q)),
            float(self.probs @ np.einsum("kij,kij->k", squares, squares)),
        )


class BasisDesign(DesignDistribution):
    """The uniform orthonormal basis stored by index: atom k is wa[k] at flat
    position ia[k] plus wb[k] at its transpose ib[k] (wb = 0 on the diagonal,
    wa = wb off it), checked in O(k).  The maps are a gather and a scatter,
    the norms come from the weights, and ``atoms`` is built only on first use."""

    is_orthonormal_basis = True

    def __init__(self, dim: int, ia, ib, wa, wb):
        k = dim * (dim + 1) // 2
        rows, cols = np.divmod(ia, dim)
        # one unit-norm symmetric atom per upper-triangle position: orthonormal
        if not (
            all(a.shape == (k,) for a in (ia, ib, wa, wb))
            and np.all((rows >= 0) & (rows <= cols) & (ib == cols * dim + rows))
            and np.all(np.bincount(ia, minlength=dim * dim) <= 1)
            and np.all(np.where(ia == ib, wb == 0, wa == wb))
            and np.all(np.abs(wa * wa + wb * wb - 1.0) <= ORTHONORMAL_TOL)
        ):
            raise ValidationError("index arrays do not form an orthonormal basis")
        self.dim, self.probs = dim, np.full(k, 1.0 / k)
        self.ia, self.ib, self.wa, self.wb = ia, ib, wa, wb

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

    def _quartic_terms(self) -> tuple[float, float, float]:
        # M = (m + 1) / (2K) I; each pair of atoms with a common index adds to
        # T; a diagonal atom has tr X^4 = 1, an off-diagonal one 1/2
        m, k = self.dim, self.num_atoms
        square, cross = m * (m + 1) ** 2 / (4 * k * k), (m * m + 3 * m) / (4 * k * k)
        return square, cross, (m + m * (m - 1) / 4) / k


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


def custom_design(atoms, probs=None) -> DesignDistribution:
    """Finite design from explicit atoms and probabilities, uniform by default."""
    return DesignDistribution(atoms, probs)


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
#
# A noise model is the law of Y given each atom's prediction s_k = <S*, X_k>,
# with its own rules: the response domain, each atom's expectation of a
# function of the response, its response mean and variance, the cutoff of
# the Bayes bracket, a sample's counted draw (shift, per-atom sums of
# y - shift, total of (y - shift)^2, row law or None) and its per-sample
# rebuild.

@lru_cache(maxsize=8)
def _legendre_nodes(num: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(num)


@dataclass(frozen=True)
class GaussianNoise:
    """Additive centered Gaussian noise truncated to [-c, c], c = truncation * sigma."""

    sigma: float
    truncation: ClassVar[float] = 6.0  # in sigmas: keeps the response domain bounded

    def __post_init__(self):
        if self.sigma < 0:
            raise ValidationError("noise scale must be nonnegative")

    @property
    def cutoff(self) -> float:
        return self.sigma * self.truncation

    def domain(self, s: np.ndarray) -> ResponseDomain:
        half = float(np.max(np.abs(s))) + self.cutoff
        return Interval(-half, half)

    def expect(self, fn: Callable, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per atom, E[fn(Y; u_k)] about each prediction s_k, over
        ``QUADRATURE_NODES`` Gauss-Legendre nodes on [-cutoff, cutoff]
        weighted by the truncated normal density, added one node at a time
        into k-long arrays; a noiseless truth is fn(s, u)."""
        if self.sigma == 0:
            return np.asarray(fn(s, u), dtype=float)
        nodes, weights = _legendre_nodes(QUADRATURE_NODES)
        xi = self.cutoff * nodes
        density = np.exp(-0.5 * (xi / self.sigma) ** 2) / (self.sigma * np.sqrt(2.0 * np.pi))
        mass = 1.0 - math.erfc(self.truncation / math.sqrt(2.0))
        out = np.zeros(s.shape)
        for x, w in zip(xi, self.cutoff * weights * density / mass):
            out += w * fn(s + x, u)
        return out

    def moments(self, s: np.ndarray):
        """Each atom's response mean, its prediction, and variance, the
        truncated normal's sigma^2 (1 - 2 c phi(c) / erf(c / sqrt 2)) at
        c = truncation, the same for every atom."""
        c = self.truncation
        phi = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
        return s, self.sigma**2 * (1.0 - 2.0 * c * phi / math.erf(c / math.sqrt(2.0)))

    def _sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.sigma == 0:
            return np.zeros(size)
        # exact rejection on numpy's ziggurat normals: values beyond the
        # truncation are dropped, the kept ones closed up in order and the
        # chunk topped up from the same stream.  The result is the stream
        # with its out-of-range values skipped, whatever the chunk size; the
        # range test makes boolean temporaries only
        x = rng.standard_normal(size)
        kept = 0  # x[:kept] is accepted
        while True:
            rest = x[kept:]
            out = rest > self.truncation
            out |= rest < -self.truncation
            if not out.any():
                break
            inside = rest[~out]
            rest[: inside.size] = inside
            kept += inside.size
            rng.standard_normal(out=x[kept:])
        x *= self.sigma
        return x

    def counted_draw(self, rng: np.random.Generator, counts: np.ndarray, s: np.ndarray):
        """Per atom, the sum of the noise of its block of samples about its
        prediction, and the sum of all squared noise, folded ``_NOISE_CHUNK``
        draws at a time."""
        sums, squares = np.zeros(counts.shape), 0.0
        if self.sigma == 0:
            return s, sums, squares, None
        seen = np.flatnonzero(counts)
        ends = np.cumsum(counts[seen])  # one past each seen atom's block
        block_sums = np.zeros(seen.shape)
        for lo in range(0, int(ends[-1]), _NOISE_CHUNK):
            x = self._sample(rng, min(_NOISE_CHUNK, int(ends[-1]) - lo))
            first = np.searchsorted(ends, lo, side="right")        # the block of sample lo
            last = np.searchsorted(ends, lo + x.size, side="left")  # the block of the chunk's last
            cuts = np.concatenate(([0], ends[first:last] - lo))
            block_sums[first : last + 1] += np.add.reduceat(x, cuts)
            squares += float(x @ x)
        sums[seen] = block_sums
        return s, sums, squares, None

    def responses(self, rng: np.random.Generator, counts: np.ndarray, s: np.ndarray) -> np.ndarray:
        y = self._sample(rng, int(counts.sum()))
        y += np.repeat(s, counts)
        return y


def _symmetric_logistic(s):
    # chosen so the population minimizer of the exponential loss is s itself;
    # exp overflows to inf below s = -355, where the value is exactly 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-2.0 * np.asarray(s, dtype=float)))


@dataclass(frozen=True)
class ClassificationLink:
    """Binary responses in {-1, +1} with P(Y = 1 | X) = link(<S*, X>)."""

    link: Callable = _symmetric_logistic
    cutoff: ClassVar[float] = 0.0  # no noise about the prediction to bracket

    def domain(self, s: np.ndarray) -> ResponseDomain:
        return FiniteSet((-1.0, 1.0))

    def expect(self, fn: Callable, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per atom, E[fn(Y; u_k)] = p fn(+1, u_k) + (1 - p) fn(-1, u_k) at
        p = link(s_k)."""
        p = np.asarray(self.link(s), dtype=float)
        return p * fn(1.0, u) + (1.0 - p) * fn(-1.0, u)

    def moments(self, s: np.ndarray):
        """Each atom's response mean 2p - 1 and variance 1 - (2p - 1)^2,
        as 4p(1 - p), at p = link(s)."""
        p = np.asarray(self.link(s), dtype=float)
        return 2.0 * p - 1.0, 4.0 * p * (1.0 - p)

    def _label_runs(self, rng: np.random.Generator, counts: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Per atom, its +1 count (one binomial) then its -1 count: sample order."""
        pos = rng.binomial(counts, np.asarray(self.link(s), dtype=float))
        return np.stack([pos, counts - pos], axis=1).ravel()

    def counted_draw(self, rng: np.random.Generator, counts: np.ndarray, s: np.ndarray):
        """Sums 2 pos - c about the shift 0, and the row law (k, +1, pos / n),
        (k, -1, (c - pos) / n) without zero weights: O(k) time and memory."""
        runs, n = self._label_runs(rng, counts, s), int(counts.sum())
        rows = np.flatnonzero(runs)
        law = EmpiricalLaw(atoms=rows // 2, y=1.0 - 2.0 * (rows % 2), w=runs[rows] / n)
        return np.zeros(s.shape), (2 * runs[::2] - counts).astype(float), float(n), law

    def responses(self, rng: np.random.Generator, counts: np.ndarray, s: np.ndarray) -> np.ndarray:
        return np.repeat(np.tile([1.0, -1.0], counts.size), self._label_runs(rng, counts, s))


class TruthModel:
    """Ground-truth matrix ``s_star`` plus the conditional law of the
    response, ``noise``.  Equality is identity."""

    def __init__(self, s_star, noise: GaussianNoise | ClassificationLink):
        self.s_star, self.noise = validate_symmetric(s_star), noise


def response_domain(truth: TruthModel, design: DesignDistribution) -> ResponseDomain:
    """Range of the response variable under the truth model."""
    return truth.noise.domain(design.forward(truth.s_star))


# -- datasets ------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalLaw:
    """A sample's response law as weighted rows, the empirical counterpart of
    the noise model's ``expect``: the sample mean of f(Y_j; u at X_j) is
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


def _quadratic_law(counts, shift, sums, squares, n: int) -> EmpiricalLaw:
    """The law of a loss quadratic in the response from per-atom ``counts``
    and ``sums`` of y - shift, and ``squares``, the total of (y - shift)^2:
    about a shift at or near each atom's mean, neither sum cancels.  The
    loss averages over an atom's responses to its value at their mean plus
    their centered mean square; ``rest`` sums y - y[r] about the rounded mean."""
    seen = np.flatnonzero(counts)
    c, shift, sums = counts[seen], shift[seen], sums[seen]
    mean = shift + sums / c
    step = mean - shift
    rest = sums - c * step
    const = (float(np.sum(squares)) - float(step @ (sums + rest))) / n
    return EmpiricalLaw(atoms=seen, y=mean, w=c / n, const=const, d1_remainder=-2.0 * rest / n)


class Dataset:
    """Sampled (X_j, Y_j) pairs; covariates stored as integer atom indices.
    The solver reads a sample only through its per-atom statistics: ``n``,
    the atom ``counts``, the ``response_sums`` and the ``moments`` about a
    per-atom shift.  This per-sample form, as ``load_dataset`` reads it,
    derives them on first use, in any sample order; ``sample_dataset`` draws
    them directly.  They are cached, so the arrays are not to be modified
    after construction."""

    def __init__(self, design: DesignDistribution, atom_indices, y, seed: int | None):
        idx = np.asarray(atom_indices)
        y = np.asarray(y, dtype=float)
        if idx.ndim != 1 or y.shape != idx.shape:
            raise ValidationError("atom_indices and y must be matched 1-d arrays")
        if idx.size == 0:
            raise ValidationError("dataset must contain at least one sample")
        if idx.dtype.kind not in "iu":  # no truncated floats, no booleans as 0/1
            raise ValidationError(f"atom indices must be integers, not {idx.dtype}")
        if np.any(idx < 0) or np.any(idx >= design.num_atoms):
            raise ValidationError("atom index out of range")
        if not np.all(np.isfinite(y)):
            raise ValidationError("responses must be finite")
        self.design, self.seed, self.n = design, seed, idx.shape[0]
        self.atom_indices, self.y = idx.astype(np.int64, copy=False), y

    @cached_property
    def counts(self) -> np.ndarray:
        """Per atom, its number of samples, shape (k,)."""
        return np.bincount(self.atom_indices, minlength=self.design.num_atoms)

    @cached_property
    def response_sums(self) -> np.ndarray:
        """Per atom, the sum of its sampled responses, shape (k,)."""
        return np.bincount(self.atom_indices, self.y, minlength=self.design.num_atoms)

    @cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The shift (here each atom's rounded mean), each atom's sum of
        y - shift and the total of (y - shift)^2."""
        counts = self.counts
        mean = np.divide(self.response_sums, counts, out=np.zeros(counts.shape), where=counts > 0)
        centered = self.y - mean[self.atom_indices]
        sums = np.bincount(self.atom_indices, centered, minlength=self.design.num_atoms)
        return mean, sums, float(centered @ centered)

    def response_law(self, loss: LossModel) -> EmpiricalLaw:
        """The sample's response law for ``loss``, built once per dataset."""
        return self._mean_law if loss.quadratic_in_response else self._row_law

    @cached_property
    def _mean_law(self) -> EmpiricalLaw:
        return _quadratic_law(self.counts, *self.moments, self.n)

    @cached_property
    def _row_law(self) -> EmpiricalLaw:
        # any other loss keeps one row per run of equal consecutive (atom,
        # response) samples, weighted by its length: one per sample for
        # distinct responses
        idx, y = self.atom_indices, self.y
        starts = np.flatnonzero(np.r_[True, (idx[1:] != idx[:-1]) | (y[1:] != y[:-1])])
        lengths = np.diff(np.r_[starts, self.n])
        return EmpiricalLaw(atoms=idx[starts], y=y[starts], w=lengths / self.n)


class CountedDataset(Dataset):
    """n i.i.d. (X, Y) pairs held as per-atom statistics: the atom counts
    (one multinomial draw), then the noise model's ``counted_draw``.  Memory
    is O(k + chunk), and for labels time is O(k).  ``atom_indices`` and ``y``
    are built on first use: the noise model's ``responses`` draws them again
    from the generator state before the response draws.  The rejection
    sampler keeps the normal stream minus its out-of-range values, so one
    draw of all n gives exactly the noise that was summed chunk by chunk.
    Only a non-quadratic loss on continuous responses reads them."""

    def __init__(self, design: DesignDistribution, truth: TruthModel, n: int, seed: int):
        rng = np.random.default_rng(seed)
        self.design, self.truth, self.seed, self.n = design, truth, seed, int(n)
        self.counts = rng.multinomial(n, design.probs)
        self._state = rng.bit_generator.state
        shift, sums, squares, self._rows = truth.noise.counted_draw(
            rng, self.counts, design.forward(truth.s_star)
        )
        self.response_sums = self.counts * shift + sums
        self.moments = shift, sums, squares

    @cached_property
    def atom_indices(self) -> np.ndarray:
        return np.repeat(np.arange(self.design.num_atoms), self.counts)

    @cached_property
    def y(self) -> np.ndarray:
        rng = np.random.default_rng()
        rng.bit_generator.state = self._state
        return self.truth.noise.responses(rng, self.counts, self.design.forward(self.truth.s_star))

    @cached_property
    def _row_law(self) -> EmpiricalLaw:
        # labels draw theirs with the counts; other responses need the samples
        return self._rows or super()._row_law


def sample_dataset(
    design: DesignDistribution, truth: TruthModel, n: int, seed: int
) -> CountedDataset:
    """Draw n i.i.d. (X, Y) pairs as counts; deterministic given the seed."""
    if n < 1:
        raise ValidationError("sample count must be at least 1")
    return CountedDataset(design, truth, n, seed)


_CSV_ROW = np.dtype([("j", "U0"), ("atom_index", np.int64), ("y", float)])  # j is not parsed


def load_dataset(path, design: DesignDistribution) -> Dataset:
    """Read a dataset CSV back against its generating design; every error
    names the file."""
    try:
        with open(path, "rb") as fh:  # a BytesIO shares bytes; a StringIO copies text at 4 B a character
            header, body = fh.readline(), fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror}") from None
    try:
        if header.rstrip(b"\r\n") != b"j,atom_index,y":
            raise ValidationError("expected header j,atom_index,y")
        if body.startswith((b"\n", b"\r")) or b"\n\n" in body or b"\n\r" in body:  # loadtxt skips it
            raise ValidationError("malformed row: a blank line")
        try:
            rows = np.loadtxt(
                io.BytesIO(body), _CSV_ROW, comments=None, delimiter=",", ndmin=1, encoding="utf-8"
            ) if body else np.zeros(0, _CSV_ROW)  # loadtxt warns on no data
        except ValueError as exc:  # a field that is not a number, or other than three fields
            raise ValidationError(f"malformed row: {exc}") from None
        return Dataset(design, rows["atom_index"].copy(), rows["y"].copy(), seed=None)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


# -- population and excess risk -------------------------------------------------

def _response_means(
    loss: LossModel,
    noise: GaussianNoise | ClassificationLink,
    s: np.ndarray,
) -> Callable:
    """(fn, u) -> per atom E[fn(Y; u_k) | X = atom k], for fn one of the
    loss's value, d1 and d2, about the truth's predictions ``s``.

    A loss quadratic in the response, value = (y - u)^2 + C(u), needs only
    each atom's response mean and variance: d1 and d2 are affine in y, so
    their means are their values at the mean, and the value's mean is its
    value at the mean plus the variance.  This is the population
    counterpart of a sample's mean law (``Dataset._mean_law``).  Any other
    loss takes the noise model's own ``expect``."""
    if not loss.quadratic_in_response:
        return lambda fn, u: noise.expect(fn, s, u)
    mean, variance = noise.moments(s)

    def expect(fn, u):
        out = np.asarray(fn(mean, u), dtype=float)
        return out + variance if fn is loss.value else out

    return expect


def population_risk(
    s: np.ndarray,
    design: DesignDistribution,
    truth: TruthModel,
    loss: LossModel,
) -> float:
    """Exact risk of the linear rule x -> <S, x> under the truth model: the
    design probabilities times each atom's conditional expected loss, from
    each atom's response mean and variance for a loss quadratic in the
    response, else from the noise model's ``expect``."""
    s = validate_symmetric(s)
    expect = _response_means(loss, truth.noise, design.forward(truth.s_star))
    per_atom = expect(loss.value, design.forward(s))
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
    registered losses under the finite truth models.  For a loss quadratic
    in the response the mean of d1 is affine in u, so the first step lands
    on the minimizer.  Independent of the candidate matrix, so compute it
    once per truth.
    """
    s, noise = design.forward(truth.s_star), truth.noise
    expect = _response_means(loss, noise, s)
    half = max(1.0, 10.0 * (float(np.max(np.abs(s))) + noise.cutoff))
    lo, hi = np.full_like(s, -half), np.full_like(s, half)
    u = s.copy()
    for _ in range(BAYES_MAX_ITERS):
        d1 = expect(loss.d1, u)
        lo, hi = np.where(d1 < 0, u, lo), np.where(d1 > 0, u, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_next = u - d1 / expect(loss.d2, u)
        u_next = np.where((u_next >= lo) & (u_next <= hi), u_next, 0.5 * (lo + hi))
        done = np.all(np.abs(u_next - u) <= BAYES_XTOL * (1.0 + np.abs(u)))
        u = u_next
        if done:
            return expect(loss.value, u)
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
