"""Parameter-covariance surrogates: Fisher variants, Hessians, and the sandwich.

Scaling convention, fixed once and used everywhere: the empirical Fisher F is
the per-datum mean of log-likelihood gradient outer products, the Hessian H is
taken of the total (summed) negative log-likelihood, the canonical covariance
is inv(F)/N, the curvature (Laplace) covariance is inv(H), and the sandwich is
N * inv(H) F inv(H).

A full Fisher adds one BLAS syrk per example chunk and a dense inverse is
L^-T L^-1 from the Cholesky factor L, one more syrk: both exactly symmetric.
A dense build holds at most about two and a half d x d arrays at once (three
and a half for the sandwich): each step works in place where the bits allow,
and a curvature the builder made itself becomes the inverse's scratch. For
the canonical sigma that is the build with N >= d examples, no ridge, or a
badly conditioned Fisher.

With fewer examples than parameters and a ridge, the canonical sigma is held
in the Woodbury form (Hager 1989) and no d x d array is made: with G the
(N, d) per-example gradients, K = G G' + N reg I = L L' (N x N) and
R = L^-1 G, inv(F + reg I) / N = (I - R'R) / (N reg), and the quadratic form
is (v.v - |R v|^2) / (N reg). That subtraction loses about eps times the
condition number, which is at most 1 + tr(F) / reg because the largest
eigenvalue of F is at most its trace; the form is used only while that
bound is at most WOODBURY_MAX_CONDITION.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .autodiff import HESSIAN_DIM_CAP
from .exceptions import NumericalError, ResourceError, StructuralError
from .models import Dataset, Model, _add_nll_hessian, loglik_grad_batch
from .util import stable_json_dumps

KINDS = ("fisher-full", "fisher-diag", "hessian", "sandwich", "learned")

# Examples are accumulated in fixed-size chunks so the floating-point
# reduction order never depends on thread settings or dataset size.
_CHUNK = 256
_LEAF = 64  # triangular blocks this wide or narrower are inverted by one solve
# largest bound 1 + tr(F) / reg on the condition number of F + reg I for
# which canonical_sigma takes the Woodbury form: its quadratic form then
# loses at most about 1e3 eps, relative
WOODBURY_MAX_CONDITION = 1e3


@dataclass(frozen=True)
class CovarianceEstimate:
    """A curvature or covariance matrix over model parameters.

    `values` is either a dense (d, d) array or a length-d diagonal. `inverted`
    distinguishes covariance-like estimates (True: the stored values multiply
    directly in a quadratic form) from precision-like ones such as a raw
    Fisher or Hessian (False). `reg` records any ridge term that was added
    before an inversion. Block layout is carried along so per-block operations
    and serialization stay aligned with the model's ParameterVector.

    With `woodbury` set, `values` is instead a (rank, d) factor R with
    rank < d, and the covariance is (I - R'R) / (n_points * reg); it needs a
    positive `reg` and is always inverted.
    """

    kind: str
    values: np.ndarray
    n_points: int
    reg: float = 0.0
    inverted: bool = False
    blocks: tuple = ()
    block_scales: dict | None = None
    woodbury: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise StructuralError(f"unknown covariance kind {self.kind!r}")
        vals = np.asarray(self.values, dtype=np.float64)
        if self.woodbury:
            if vals.ndim != 2 or vals.shape[0] >= vals.shape[1]:
                raise StructuralError(
                    "a Woodbury factor must be (rank, dim) with rank < dim")
            if not (self.reg > 0.0 and self.inverted):
                raise StructuralError(
                    "a Woodbury estimate is a covariance with a positive "
                    "regularizer")
        elif vals.ndim == 2 and vals.shape[0] != vals.shape[1]:
            raise StructuralError("full covariance values must be square")
        if vals.ndim not in (1, 2):
            raise StructuralError("covariance values must be a matrix or a diagonal")
        if not np.all(np.isfinite(vals)):
            raise NumericalError("covariance values contain non-finite entries")
        if self.n_points < 1:
            raise StructuralError("n_points must be a positive count")
        if self.reg < 0.0:
            raise StructuralError("regularizer must be nonnegative")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @property
    def is_diagonal(self) -> bool:
        return self.values.ndim == 1

    def matrix(self) -> np.ndarray:
        """The estimate as a dense d x d array.

        A full estimate returns its own `values`. A diagonal or Woodbury one
        is materialized into a new d x d array on every call: no view of the
        estimate, and not cached, so the estimate itself never holds it.
        """
        if self.woodbury:
            m = self.values.T @ self.values
            np.negative(m, out=m)
            m.flat[::m.shape[0] + 1] += 1.0
            m /= self.n_points * self.reg
            return m
        return np.diag(self.values) if self.is_diagonal else self.values

    def quadratic_forms(self, deltas) -> np.ndarray:
        """nu = delta' Sigma delta of a gradient (d,) or each row of (B, d),
        checked once: inverted, the width, finite entries (a stack's first,
        a lone row's only if its form is not finite). One expression per
        layout for one row; a dense or Woodbury stack runs it row by row,
        so a row keeps its lone bits in any stack (a gemm's depends on B)."""
        deltas, values = np.asarray(deltas, dtype=float), self.values
        if not self.inverted:
            raise StructuralError("sigma is a raw curvature estimate; "
                                  "invert it into a covariance first")
        if deltas.ndim not in (1, 2) or deltas.shape[-1] != values.shape[-1]:
            raise StructuralError(f"gradients of shape {deltas.shape} do not "
                                  f"fit a sigma of dimension {self.dim}")
        if deltas.ndim == 2:
            if not np.isfinite(deltas).all():
                raise NumericalError("gradient contains non-finite entries")
            return (np.einsum("bi,i,bi->b", deltas, values, deltas)
                    if values.ndim == 1 else
                    np.array([self.quadratic_forms(row) for row in deltas]))
        if values.ndim == 1:
            form = np.einsum("i,i,i->", deltas, values, deltas)
        elif self.woodbury:
            r = values.dot(deltas)
            form = ((deltas.dot(deltas) - r.dot(r))
                    / (self.n_points * self.reg))
        else:
            form = deltas.dot(values.dot(deltas))
        if not math.isfinite(form) and not np.isfinite(deltas).all():
            raise NumericalError("gradient contains non-finite entries")
        return form

    def diagonal_blocks(self) -> list:
        """One estimate per parameter block: sigma's diagonal block there.
        Refuses a sigma without blocks, or with nonzero entries between
        blocks, where the quadratic form does not split per block."""
        if not self.blocks:
            raise StructuralError("sigma carries no block layout")
        spans = [slice(start, start + n) for _, start, n in self.blocks]
        values = self.values if self.is_diagonal else self.matrix()
        if not self.is_diagonal:
            off = np.ones(values.shape, dtype=bool)
            for span in spans:
                off[span, span] = False
            if np.any(values[off] != 0.0):
                raise StructuralError("sigma has nonzero entries between "
                                      "blocks; the form does not split")
        return [replace(self, values=values[(span,) * values.ndim],
                        blocks=((name, 0, n),), woodbury=False)
                for span, (name, _, n) in zip(spans, self.blocks)]


def _chunks(data: Dataset) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    """(inputs, targets) of consecutive fixed-size example chunks."""
    for start in range(0, data.n, _CHUNK):
        stop = min(start + _CHUNK, data.n)
        yield data.inputs[start:stop], data.targets[start:stop]


def empirical_fisher(model: Model, data: Dataset,
                     mode: str = "full") -> CovarianceEstimate:
    """Mean outer product of per-example log-likelihood gradients.

    Each chunk of gradients g adds g.T @ g, one syrk, exactly symmetric.
    Both modes sum the diagonal by the same einsum in the same order, and
    the full mode writes it over its own, so diag(full) and the diagonal
    estimate agree bit for bit.
    """
    if mode not in ("full", "diag"):
        raise StructuralError(f"fisher mode must be 'full' or 'diag', got {mode!r}")
    d = model.params.dim
    if mode == "full" and d > HESSIAN_DIM_CAP:
        raise ResourceError(
            f"dense covariance of dimension {d} exceeds the cap of "
            f"{HESSIAN_DIM_CAP}; use a diagonal mode")
    diag = np.zeros(d)
    acc = np.zeros((d, d)) if mode == "full" else diag
    for inputs, targets in _chunks(data):
        g = loglik_grad_batch(model, inputs, targets)
        diag += np.einsum("ni,ni->i", g, g)
        if mode == "full":
            acc += g.T @ g
    if mode == "full":
        np.fill_diagonal(acc, diag)
    acc /= data.n
    return CovarianceEstimate(kind=f"fisher-{mode}", values=acc,
                              n_points=data.n, blocks=model.params.blocks)


def loss_hessian(model: Model, data: Dataset) -> CovarianceEstimate:
    """Hessian of the total (summed) negative log-likelihood at the parameters.

    Exact and batched (models.nll_hessian: closed forms for the generalized
    linear kinds, a forward-over-reverse R-op for the mlp), summed over the
    same fixed-size example chunks as the Fisher into one zeroed array, so
    the bits are those of a sum from 0; the result is made exactly
    symmetric. numpy copies the overlapping h.T before adding it, so the
    bits are (h + h.T) / 2.
    """
    d = model.params.dim
    if d > HESSIAN_DIM_CAP:
        raise ResourceError(
            f"dense Hessian of dimension {d} exceeds the cap of {HESSIAN_DIM_CAP}")
    h = np.zeros((d, d))
    for inputs, targets in _chunks(data):
        _add_nll_hessian(h, model, inputs, targets)
    h += h.T
    h /= 2.0
    return CovarianceEstimate(kind="hessian", values=h, n_points=data.n,
                              blocks=model.params.blocks)


def _invert_lower(chol: np.ndarray, out: np.ndarray) -> None:
    """Write inv(chol), chol lower-triangular, into a zeroed out by halving
    as LAPACK's trtri: [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]."""
    n = chol.shape[0]
    if n <= _LEAF:
        out[...] = np.linalg.solve(chol, np.eye(n))
        return
    h = n // 2
    _invert_lower(chol[:h, :h], out[:h, :h])
    _invert_lower(chol[h:, h:], out[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ (chol[h:, :h] @ out[:h, :h]))


def _cholesky(work: np.ndarray, reg: float, what: str) -> np.ndarray:
    """The Cholesky factor of the ridged `work`, which is also the
    positive-definiteness check."""
    try:
        return np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        raise NumericalError(
            f"{what} is not positive definite at reg={reg!r}; "
            "retry with a larger regularizer") from None


def _solve_spd(work: np.ndarray, reg: float, what: str) -> np.ndarray:
    """(work + reg*I)^-1 as L^-T L^-1 (one syrk, exactly symmetric) from
    the Cholesky factor L.

    `work`, a C-ordered matrix the caller gives up, is ridged in place and
    then holds L^-1, so the solve needs two more d x d arrays, not four.
    Adding 0.0 first turns a -0.0 into +0.0 as adding reg * I did.
    """
    work += 0.0
    work.flat[::work.shape[0] + 1] += reg
    chol = _cholesky(work, reg, what)
    work.fill(0.0)
    _invert_lower(chol, work)
    del chol
    return work.T @ work


def invert(sigma: CovarianceEstimate, reg: float = 0.0) -> CovarianceEstimate:
    """(M + reg*I)^-1 via Cholesky for full matrices, reciprocal for diagonals.

    The returned estimate flips `inverted` and records the regularizer;
    `sigma` is left as it was. Without a regularizer, an exact zero on the
    diagonal is refused by name. A Woodbury estimate is inverted through
    its matrix() and gives a dense one.
    """
    return _invert_into(sigma, reg, sigma.matrix() if sigma.woodbury
                        else sigma.values.copy())


def _invert_into(sigma: CovarianceEstimate, reg: float,
                 work: np.ndarray) -> CovarianceEstimate:
    """invert(sigma, reg), with `work` (a C-ordered copy of sigma's dense
    values, or its diagonal) as the dense solve's scratch; a builder passes
    the values of an estimate it made itself and drops, which saves the
    copy."""
    if reg < 0.0:
        raise StructuralError("regularizer must be nonnegative")
    diag = work if sigma.is_diagonal else np.diagonal(work)
    if reg == 0.0 and not diag.all():
        i = int(np.flatnonzero(diag == 0.0)[0])
        where = next((f"{name}[{i - start}]" for name, start, length
                      in sigma.blocks if start <= i < start + length),
                     f"parameter {i}")
        raise NumericalError(
            f"{sigma.kind} curvature is exactly 0 at {where}: no example's "
            "gradient moves that parameter, as in a saturated fit with "
            "fitted probabilities exactly 0 or 1")
    if sigma.is_diagonal:
        ridged = sigma.values + reg
        if np.any(ridged <= 0.0):
            raise NumericalError(
                f"diagonal has non-positive entries at reg={reg!r}; "
                "retry with a larger regularizer")
        inv = 1.0 / ridged
    else:
        inv = _solve_spd(work, reg, f"{sigma.kind} matrix")
    return replace(sigma, values=inv, reg=reg, inverted=not sigma.inverted,
                   woodbury=False)


def sandwich(model: Model, data: Dataset, reg: float = 0.0) -> CovarianceEstimate:
    """The misspecification-robust covariance N * inv(H) F inv(H).

    H is the total-loss Hessian and F the per-datum-mean empirical Fisher;
    `reg` ridges H before the inversions.
    """
    h = loss_hessian(model, data)
    f = empirical_fisher(model, data, mode="full")
    h_inv = _solve_spd(h.values, reg, "loss hessian")
    del h
    values = h_inv @ f.values
    del f
    values = values @ h_inv
    values *= data.n
    values += values.T
    values /= 2.0
    return CovarianceEstimate(kind="sandwich", values=values, n_points=data.n,
                              reg=reg, inverted=True, blocks=model.params.blocks)


def canonical_sigma(model: Model, data: Dataset, mode: str = "full",
                    reg: float = 0.0) -> CovarianceEstimate:
    """The default posterior surrogate inv(F + reg*I) / N.

    The full mode is built in the Woodbury form (see the module docstring)
    when N < d, reg > 0 and 1 + tr(F) / reg <= WOODBURY_MAX_CONDITION;
    every other case is the dense build.
    """
    if (mode == "full" and reg > 0.0
            and data.n < model.params.dim <= HESSIAN_DIM_CAP):
        sigma = _woodbury_sigma(model, data, reg)
        if sigma is not None:
            return sigma
    fisher = empirical_fisher(model, data, mode=mode)
    inv = _invert_into(fisher, reg, fisher.values)
    np.divide(inv.values, data.n, out=inv.values)
    return inv


def _woodbury_sigma(model: Model, data: Dataset,
                    reg: float) -> CovarianceEstimate | None:
    """inv(F + reg*I) / N as the factor R = L^-1 G of K = G G' + N reg I,
    or None when the condition bound exceeds WOODBURY_MAX_CONDITION.

    G is filled chunk by chunk, as the Fisher's syrks read it, and R
    overwrites it in column blocks, so the build holds G, up to two N x N
    arrays and one (N, 256) block, never a d x d array.
    """
    n = data.n
    if n <= _CHUNK:  # one chunk: its own array
        grads = loglik_grad_batch(model, data.inputs, data.targets)
    else:
        grads = np.empty((n, model.params.dim))
        for start, (inputs, targets) in zip(range(0, n, _CHUNK),
                                            _chunks(data)):
            grads[start:start + len(inputs)] = loglik_grad_batch(
                model, inputs, targets)
    bound = 1.0 + float(np.einsum("ni,ni->", grads, grads)) / (n * reg)
    if not bound <= WOODBURY_MAX_CONDITION:
        return None
    gram = grads @ grads.T
    gram.flat[::n + 1] += n * reg
    chol = _cholesky(gram, reg, "fisher-full matrix")
    del gram
    chol_inv = np.zeros_like(chol)
    _invert_lower(chol, chol_inv)
    del chol
    for start in range(0, model.params.dim, _CHUNK):
        cols = slice(start, start + _CHUNK)
        grads[:, cols] = chol_inv @ grads[:, cols]
    return CovarianceEstimate(kind="fisher-full", values=grads,
                              n_points=n, reg=reg, inverted=True,
                              blocks=model.params.blocks, woodbury=True)


def laplace_sigma(model: Model, data: Dataset, reg: float = 0.0) -> CovarianceEstimate:
    """The curvature covariance inv(H + reg*I) of the total loss."""
    h = loss_hessian(model, data)
    return _invert_into(h, reg, h.values)


def save_covariance(path, sigma: CovarianceEstimate) -> None:
    """Write a single-line JSON header, a newline, then float64 payload bytes,
    straight from the array without a bytes copy. A Woodbury estimate adds
    a `rank` key to the header, and its payload is the (rank, dim) factor."""
    header = {
        "kind": sigma.kind,
        "layout": ("woodbury" if sigma.woodbury
                   else "diag" if sigma.is_diagonal else "full"),
        "dim": sigma.dim,
        "n_points": sigma.n_points,
        "reg": sigma.reg,
        "inverted": sigma.inverted,
        "blocks": [[name, start, length] for name, start, length in sigma.blocks],
        "block_scales": sigma.block_scales,
    }
    if sigma.woodbury:
        header["rank"] = sigma.values.shape[0]
    payload = np.ascontiguousarray(sigma.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(stable_json_dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


_HEADER_TYPES = {"kind": (str,), "layout": (str,), "dim": (int,),
                 "n_points": (int,), "reg": (int, float), "inverted": (bool,),
                 "blocks": (list,), "block_scales": (dict, type(None))}


def _header_field(header, key: str, types: tuple):
    if not isinstance(header, dict) or key not in header:
        raise StructuralError(f"covariance header field {key!r} is missing")
    value = header[key]
    if not isinstance(value, types) or (bool not in types
                                        and isinstance(value, bool)):
        raise StructuralError(
            f"covariance header field {key!r} is missing or mistyped")
    return value


def _payload_shape(header: dict) -> tuple:
    """The payload's array shape, from a header whose typed fields are
    checked; a Woodbury layout needs 0 <= rank < dim and a positive reg."""
    layout, dim = header["layout"], header["dim"]
    if layout not in ("diag", "full", "woodbury"):
        raise StructuralError(f"unknown covariance layout {layout!r}")
    if dim < 0:
        raise StructuralError("covariance header field 'dim' is negative")
    if layout == "diag":
        return (dim,)
    if layout == "full":
        return (dim, dim)
    rank = _header_field(header, "rank", (int,))
    if not 0 <= rank < dim:
        raise StructuralError(
            f"covariance header field 'rank' is {rank}, outside [0, {dim})")
    if not header["reg"] > 0.0:
        raise StructuralError(
            "a woodbury covariance needs a positive 'reg' in its header")
    return (rank, dim)


def load_covariance(path) -> CovarianceEstimate:
    """Inverse of save_covariance; validates the header and the payload
    length. The payload is read straight into the one array it becomes."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise StructuralError("covariance file has no header line")
        try:
            header = json.loads(line[:-1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StructuralError(
                f"covariance header is not valid JSON: {exc}") from exc
        for key, types in _HEADER_TYPES.items():
            _header_field(header, key, types)
        shape = _payload_shape(header)
        expected = 8 * math.prod(shape)
        start = fh.tell()
        held = fh.seek(0, 2) - start  # whence 2: from the end of the file
        if held != expected:
            raise StructuralError(
                f"covariance payload holds {held} bytes, expected {expected}")
        fh.seek(start)
        values = np.fromfile(fh, dtype="<f8", count=expected // 8)
    values = values.astype(np.float64, copy=False).reshape(shape)
    try:
        blocks = tuple((str(n), int(s), int(l)) for n, s, l in header["blocks"])
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"covariance header blocks are malformed: {exc}") from exc
    return CovarianceEstimate(
        kind=header["kind"], values=values, n_points=header["n_points"],
        reg=float(header["reg"]), inverted=header["inverted"], blocks=blocks,
        block_scales=header["block_scales"],
        woodbury=header["layout"] == "woodbury")
