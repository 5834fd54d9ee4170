# src/minent/linalg.py

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Tolerances",
    "TOL",
    "HermitianOperator",
    "DensityOperator",
    "herm_eig",
    "trace_norm",
    "fidelity",
    "fidelity_many",
    "partial_trace",
    "partial_transpose",
    "permute_systems",
    "tensor",
    "hermitian_basis",
    "psd_sqrt",
    "psd_inv_sqrt",
    "support_projector",
    "hermitian_part",
    "pauli",
    "maximally_mixed",
    "maximally_entangled",
    "pure_state",
]


@dataclass
class Tolerances:
    """Numerical tolerances shared by every module.

    Values are absolute unless noted. The CLI can override individual
    fields with --tolerance NAME=VALUE for the duration of one command.
    """

    herm: float = 1e-12       # elementwise Hermiticity slack
    psd: float = 1e-10        # min-eigenvalue slack for PSD checks
    trace: float = 1e-10      # unit-trace slack for density operators
    recon: float = 1e-10      # Frobenius residual of eigendecompositions
    support: float = 1e-9     # eigenvalue cutoff defining support projectors
    clamp: float = 1e-10      # eigenvalues in [-clamp, 0) are clamped to 0
    sdp_gap: float = 1e-7     # duality gap required for "optimal" status
    sdp_feas: float = 1e-8    # primal feasibility residual for "optimal"

    def parse_override(self, item: str) -> tuple[str, float]:
        """(name, value) from a NAME=VALUE string; ValueError if it is
        malformed or NAME is not a tolerance."""
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in {f.name for f in fields(self)}:
            raise ValueError(f"unknown tolerance {name!r}")
        return name, float(value)

    @contextmanager
    def overridden(self, values: dict):
        """Set {name: value} for the body of a with block, restoring the
        previous values on exit, also when the body raises."""
        saved = {name: getattr(self, name) for name in values}
        try:
            for name, value in values.items():
                setattr(self, name, value)
            yield self
        finally:
            for name, value in saved.items():
                setattr(self, name, value)


TOL = Tolerances()


def _as_complex(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return a


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (M + M†)/2, for one matrix or a stack of them."""
    return (m + m.conj().mT) / 2


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix with a subsystem dimension vector.

    Carrier for states, Choi operators, POVM elements and identity
    blocks. `dims` are the tensor factor dimensions; their product must
    equal the matrix size.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, matrix, dims=None):
        m = _as_complex(matrix)
        n, nc = m.shape
        if n != nc:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("matrix has non-finite entries")
        if np.abs(m - m.conj().T).max() > TOL.herm:
            raise ValueError("matrix is not Hermitian within tolerance")
        m = hermitian_part(m)
        m.flags.writeable = False
        if dims is None:
            dims = (n,)
        dims = tuple(int(d) for d in dims)
        if math.prod(dims) != n:
            raise ValueError(f"subsystem dims {dims} do not multiply to {n}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def with_dims(self, dims) -> "HermitianOperator":
        return HermitianOperator(self.matrix, dims)


@dataclass(frozen=True)
class DensityOperator:
    """Positive semidefinite operator of unit trace.

    With subnormalized=True the trace may lie anywhere in (0, 1]; the
    Choi states of non-trace-preserving maps are built this way.
    """

    op: HermitianOperator
    subnormalized: bool = False

    def __init__(self, op, dims=None, subnormalized=False):
        if not isinstance(op, HermitianOperator):
            op = HermitianOperator(op, dims)
        elif dims is not None:
            op = op.with_dims(dims)
        w = np.linalg.eigvalsh(op.matrix)
        if w.min() < -TOL.psd:
            raise ValueError(f"not positive semidefinite (min eig {w.min():.3e})")
        tr = op.trace()
        if subnormalized:
            if tr > 1 + TOL.trace:
                raise ValueError(f"trace {tr} exceeds 1")
        elif abs(tr - 1) > TOL.trace:
            raise ValueError(f"trace {tr} is not 1 within tolerance")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "subnormalized", bool(subnormalized))

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dims(self) -> tuple[int, ...]:
        return self.op.dims

    @property
    def dim(self) -> int:
        return self.op.dim

    def trace(self) -> float:
        return self.op.trace()


# ---------------------------------------------------------------------------
# eigen machinery


def herm_eig(h: HermitianOperator | np.ndarray):
    """Eigendecomposition of a Hermitian operator.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted in
    descending order and eigenvectors as matrix columns, so that
    H = V diag(w) V†.
    """
    m = h.matrix if isinstance(h, HermitianOperator) else _as_complex(h)
    if np.abs(m - m.conj().T).max() > TOL.herm:
        raise ValueError("herm_eig requires a Hermitian matrix")
    w, v = np.linalg.eigh(hermitian_part(m))
    return w[::-1].copy(), v[:, ::-1].copy()


def _eig_apply(m: np.ndarray, fn) -> np.ndarray:
    w, v = np.linalg.eigh(hermitian_part(m))
    return hermitian_part((v * fn(w)[..., None, :]) @ v.conj().swapaxes(-1, -2))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix or of each matrix of a stack;
    eigenvalues in [-clamp, 0) are set to 0."""

    def f(w):
        w = np.where((w < 0) & (w >= -TOL.clamp), 0.0, w)
        if (w < 0).any():
            raise ValueError(f"matrix is not PSD (min eig {w.min():.3e})")
        return np.sqrt(w)

    return _eig_apply(m, f)


def psd_inv_sqrt(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root on the support of a PSD matrix (the
    eigenvalues above the `support` tolerance)."""

    def f(w):
        cut = TOL.support
        w = np.clip(w, 0.0, None)
        return np.where(w > cut, 1.0 / np.sqrt(np.where(w > cut, w, 1.0)), 0.0)

    return _eig_apply(m, f)


def support_projector(m: np.ndarray) -> np.ndarray:
    """Projector onto eigenspaces with eigenvalue above the `support`
    tolerance."""
    return _eig_apply(m, lambda w: (w > TOL.support).astype(float))


# ---------------------------------------------------------------------------
# norms and distances


def trace_norm(m: np.ndarray | HermitianOperator) -> float:
    """Trace norm (sum of singular values) of a square matrix."""
    a = m.matrix if isinstance(m, HermitianOperator) else _as_complex(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("trace_norm requires a square matrix")
    if np.abs(a - a.conj().T).max() <= TOL.herm:
        return float(np.abs(np.linalg.eigvalsh(a)).sum())
    return float(np.linalg.svd(a, compute_uv=False).sum())


def fidelity_many(rho: np.ndarray, sigmas: np.ndarray,
                  generalized: bool) -> np.ndarray:
    """Uhlmann fidelities ||sqrt(rho) sqrt(sigma)||_1^2 of PSD matrices.

    `rho` and `sigmas` broadcast against each other: one center against a
    stack (d, d) vs (B, d, d), or pairs of stacks. With generalized=True
    the generalized fidelity
    (||sqrt(rho) sqrt(sigma)||_1 + sqrt((1-tr rho)(1-tr sigma)))^2
    is returned, so that the purified distance stays a metric on
    subnormalized states.
    """
    root = np.linalg.svd(psd_sqrt(rho) @ psd_sqrt(sigmas),
                         compute_uv=False).sum(axis=-1)
    if generalized:
        ta = np.trace(rho, axis1=-2, axis2=-1).real
        tb = np.trace(sigmas, axis1=-2, axis2=-1).real
        root = root + np.sqrt(np.maximum(1 - ta, 0.0) * np.maximum(1 - tb, 0.0))
    return np.minimum(root * root, 1.0)


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Uhlmann fidelity of two states, the one-instance `fidelity_many`;
    generalized when either input is subnormalized."""
    if rho.dim != sigma.dim:
        raise ValueError("fidelity requires equal dimensions")
    return float(fidelity_many(rho.matrix, sigma.matrix,
                               rho.subnormalized or sigma.subnormalized))


# ---------------------------------------------------------------------------
# tensor structure


def _check_subsystems(dims, subsystems):
    for k in subsystems:
        if not 0 <= k < len(dims):
            raise ValueError(f"subsystem index {k} out of range for dims {dims}")


def partial_trace(h: HermitianOperator, keep) -> HermitianOperator:
    """Trace out every subsystem not listed in `keep` (indices, order kept)."""
    keep = sorted(set(int(k) for k in (keep if np.iterable(keep) else [keep])))
    _check_subsystems(h.dims, keep)
    n = len(h.dims)
    t = h.matrix.reshape(h.dims + h.dims)
    # contract traced-out row/column index pairs
    src = list(range(2 * n))
    for k in range(n):
        if k not in keep:
            src[n + k] = src[k]
    out_idx = [src[k] for k in keep] + [src[n + k] for k in keep]
    reduced = np.einsum(t, src, out_idx)
    d = math.prod(h.dims[k] for k in keep) if keep else 1
    return HermitianOperator(reduced.reshape(d, d), tuple(h.dims[k] for k in keep))


def partial_transpose(h: HermitianOperator, subsystem: int) -> HermitianOperator:
    """Transpose one tensor factor; involutive and trace preserving."""
    _check_subsystems(h.dims, [subsystem])
    n = len(h.dims)
    t = h.matrix.reshape(h.dims + h.dims)
    perm = list(range(2 * n))
    perm[subsystem], perm[n + subsystem] = perm[n + subsystem], perm[subsystem]
    return HermitianOperator(t.transpose(perm).reshape(h.dim, h.dim), h.dims)


def permute_systems(h: HermitianOperator, order) -> HermitianOperator:
    """Reorder tensor factors, e.g. order=(1, 0) swaps a bipartite split."""
    order = [int(k) for k in order]
    if sorted(order) != list(range(len(h.dims))):
        raise ValueError(f"order {order} is not a permutation of the subsystems")
    n = len(h.dims)
    t = h.matrix.reshape(h.dims + h.dims)
    perm = order + [n + k for k in order]
    new_dims = tuple(h.dims[k] for k in order)
    return HermitianOperator(t.transpose(perm).reshape(h.dim, h.dim), new_dims)


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product; subsystem dims concatenate."""
    return HermitianOperator(np.kron(a.matrix, b.matrix), a.dims + b.dims)


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of d x d matrices, shape (d*d, d, d).

    Ordering: diagonal units first, then symmetric and antisymmetric
    off-diagonal pairs scaled by 1/sqrt(2). Orthonormal under tr(AB).
    """
    out = np.zeros((d * d, d, d), dtype=complex)
    k = 0
    for i in range(d):
        out[k, i, i] = 1.0
        k += 1
    s = 1.0 / math.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            out[k, i, j] = s
            out[k, j, i] = s
            k += 1
            out[k, i, j] = -1j * s
            out[k, j, i] = 1j * s
            k += 1
    return out


# ---------------------------------------------------------------------------
# common states and operators


_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(name: str) -> np.ndarray:
    return _PAULI[name.lower()].copy()


def pure_state(vec, dims=None) -> DensityOperator:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()), dims)


def maximally_mixed(d: int, dims=None) -> DensityOperator:
    return DensityOperator(np.eye(d) / d, dims)


def maximally_entangled(d: int) -> DensityOperator:
    """|Phi> = (1/sqrt(d)) sum_i |ii> as a density operator on d x d."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    v = np.zeros(d * d)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return pure_state(v, (d, d))
