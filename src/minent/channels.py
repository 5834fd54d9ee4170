# src/minent/channels.py
"""Quantum channels in Kraus form, their Choi states and dilations.

Includes the named qubit families used throughout (depolarizing, the two
dephasing kinds, replacer, unitary, POVM measurement channels) and the
diamond-norm distance via SDP.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import sdp
from .linalg import (TOL, DensityOperator, HermitianOperator, hermitian_basis,
                     partial_transpose, pauli)

__all__ = [
    "KrausMap",
    "QuantumChannel",
    "IsometryExtension",
    "identity_channel",
    "depolarizing",
    "dephasing1",
    "dephasing2",
    "replacer",
    "unitary_channel",
    "povm_channel",
    "make_named_channel",
    "replacer_swap_dilation",
    "partial_trace_channel",
    "apply",
    "apply_many",
    "choi_matrix",
    "stinespring_isometry",
    "is_ppt",
    "compose",
    "tensor_channels",
    "diamond_distance",
    "channel_from_spec",
]


@dataclass(frozen=True)
class KrausMap:
    """Completely positive map given by Kraus operators (out_dim x in_dim)."""

    kraus: tuple
    in_dim: int
    out_dim: int

    def __init__(self, kraus):
        ops = tuple(np.array(k, dtype=complex) for k in kraus)
        if not ops:
            raise ValueError("need at least one Kraus operator")
        dout, din = ops[0].shape
        if any(k.shape != (dout, din) for k in ops):
            raise ValueError("all Kraus operators must share one shape")
        for k in ops:
            k.flags.writeable = False
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "in_dim", din)
        object.__setattr__(self, "out_dim", dout)

    def completeness(self) -> np.ndarray:
        return sum(k.conj().T @ k for k in self.kraus)


@dataclass(frozen=True)
class QuantumChannel(KrausMap):
    """Trace-preserving Kraus map: sum K†K = identity."""

    def __init__(self, kraus):
        KrausMap.__init__(self, kraus)
        gap = np.abs(self.completeness() - np.eye(self.in_dim)).max()
        if not gap <= 1e-10:  # also rejects a NaN gap from overflowing input
            raise ValueError(f"Kraus completeness violated by {gap:.3e}")


@dataclass(frozen=True)
class IsometryExtension:
    """Isometry V: in -> out (x) env with tr_env V rho V† the channel action."""

    isometry: np.ndarray
    env_dim: int

    def __post_init__(self):
        v = np.asarray(self.isometry, dtype=complex)
        din = v.shape[1]
        if v.shape[0] % self.env_dim:
            raise ValueError("isometry rows must factor as out_dim * env_dim")
        if np.abs(v.conj().T @ v - np.eye(din)).max() > 1e-10:
            raise ValueError("V†V is not the identity")
        object.__setattr__(self, "isometry", v)

    @property
    def in_dim(self) -> int:
        return self.isometry.shape[1]

    @property
    def out_dim(self) -> int:
        return self.isometry.shape[0] // self.env_dim


# ---------------------------------------------------------------------------
# constructors


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel([np.eye(d, dtype=complex)])


def depolarizing(p: float) -> QuantumChannel:
    """Qubit depolarizing: rho -> (1-p) rho + (p/3) sum_i s_i rho s_i."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    ops = [math.sqrt(1 - p) * np.eye(2, dtype=complex)]
    for name in "xyz":
        ops.append(math.sqrt(p / 3) * pauli(name))
    return QuantumChannel([k for k in ops if np.abs(k).max() > 0])


def dephasing1(p: float) -> QuantumChannel:
    """First-kind dephasing: rho -> (1-p) rho + p diag(rho)."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    ops = [math.sqrt(1 - p) * np.eye(2, dtype=complex),
           math.sqrt(p) * np.diag([1.0, 0.0]).astype(complex),
           math.sqrt(p) * np.diag([0.0, 1.0]).astype(complex)]
    return QuantumChannel([k for k in ops if np.abs(k).max() > 0])


def dephasing2(p: float) -> QuantumChannel:
    """Second-kind dephasing: rho -> (1-p) rho + p s_z rho s_z."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    ops = [math.sqrt(1 - p) * np.eye(2, dtype=complex), math.sqrt(p) * pauli("z")]
    return QuantumChannel([k for k in ops if np.abs(k).max() > 0])


def replacer(omega: DensityOperator, in_dim: int | None = None) -> QuantumChannel:
    """Channel that outputs the fixed state omega for every input."""
    din = in_dim or omega.dim
    w, v = np.linalg.eigh(omega.matrix)
    ops = []
    for lam, vec in zip(w, v.T):
        if lam < TOL.support:
            continue
        for i in range(din):
            k = np.zeros((omega.dim, din), dtype=complex)
            k[:, i] = math.sqrt(max(lam, 0.0)) * vec
            ops.append(k)
    return QuantumChannel(ops)


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or not np.abs(u.conj().T @ u - np.eye(u.shape[1])).max() <= 1e-10:
        raise ValueError("matrix is not unitary/isometric")
    return QuantumChannel([u])


def povm_channel(elements) -> QuantumChannel:
    """Measurement channel rho -> sum_x |x><x| tr(L_x rho) for a POVM {L_x}."""
    els = [np.asarray(e, dtype=complex) for e in elements]
    if not els or els[0].ndim != 2 or any(e.shape != els[0].shape for e in els) \
            or els[0].shape[0] != els[0].shape[1]:
        raise ValueError("POVM needs at least one element, all square of one shape")
    d = els[0].shape[0]
    total = sum(els)
    if not np.abs(total - np.eye(d)).max() <= 1e-10:
        raise ValueError("POVM elements must sum to the identity")
    nx = len(els)
    ops = []
    for x, el in enumerate(els):
        w, v = np.linalg.eigh((el + el.conj().T) / 2)
        if w[0] < -TOL.psd:
            raise ValueError("POVM elements must be PSD")
        root = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
        for row in root:
            if np.abs(row).max() < 1e-14:
                continue
            k = np.zeros((nx, d), dtype=complex)
            k[x, :] = row
            ops.append(k)
    return QuantumChannel(ops)


def make_named_channel(family: str, p: float | None = None,
                       omega: DensityOperator | None = None,
                       unitary: np.ndarray | None = None,
                       povm=None, dims: int | None = None) -> QuantumChannel:
    """Build one of the named channel families from its parameters.

    Raises ValueError, naming the parameter, for one the family does not
    use (`_family_of`)."""
    family = _family_of(family, {name for name, value in (
        ("p", p), ("omega", omega), ("unitary", unitary), ("povm", povm),
        ("dims", dims)) if value is not None})
    if p is not None:
        p = _real(p, "p")
    if dims is not None:
        dims = _positive_int(dims, "dims")
    if family == "depolarizing":
        return depolarizing(_need(p, "p"))
    if family == "dephasing1":
        return dephasing1(_need(p, "p"))
    if family == "dephasing2":
        return dephasing2(_need(p, "p"))
    if family == "replacer":
        if omega is None:
            d = dims or 2
            omega = DensityOperator(np.eye(d) / d)
        return replacer(omega, in_dim=dims or omega.dim)
    if family == "unitary":
        if unitary is None:
            unitary = np.eye(dims or 2)
        return unitary_channel(unitary)
    if povm is None:
        d = dims or 2
        povm = [np.diag([1.0 if i == k else 0.0 for i in range(d)])
                for k in range(d)]
    return povm_channel(povm)


def _family_of(family, given) -> str:
    """The lower-cased name of a named family, or ValueError unless it is
    one that uses every field named in `given`: depolarizing and the two
    dephasing families use p, the replacer omega and dims, and unitary
    and povm their matrix or, in its place, dims."""
    if not isinstance(family, str):
        raise ValueError("channel family must be a string")
    family = family.lower()
    uses = {"depolarizing": {"p"}, "dephasing1": {"p"}, "dephasing2": {"p"},
            "replacer": {"omega", "dims"},
            "unitary": {"unitary"} if "unitary" in given else {"dims"},
            "povm": {"povm"} if "povm" in given else {"dims"}}
    if family not in uses:
        raise ValueError(f"unknown channel family {family!r}")
    unused = ", ".join(map(repr, sorted(given - uses[family])))
    if unused:
        raise ValueError(f"channel family {family!r} does not use {unused}")
    return family


def _need(value, name):
    if value is None:
        raise ValueError(f"missing parameter {name!r}")
    return value


def _real(value, name: str) -> float:
    # NaN and Infinity are valid JSON to Python's json module
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite real number")
    return x


def _positive_int(value, name: str) -> int:
    try:
        d = int(value)
        integral = float(value) == d
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a positive integer") from exc
    if not integral or d < 1:
        raise ValueError(f"{name} must be a positive integer")
    return d


def replacer_swap_dilation(omega: DensityOperator):
    """Replacer via the SWAP gate with environment prepared in omega.

    Returns (channel, swap_matrix). The channel equals replacer(omega);
    the SWAP dilation realizes the problem setup where ancilla in and
    out legs carry the displaced input.
    """
    d = omega.dim
    swap4 = np.eye(d * d, dtype=complex).reshape(d, d, d, d).transpose(1, 0, 2, 3)
    w, v = np.linalg.eigh(omega.matrix)
    ops = []
    for lam, vec in zip(w, v.T):
        if lam < TOL.support:
            continue
        amp = math.sqrt(max(lam, 0.0))
        for e in range(d):
            # K = (1_A (x) <e|_E) SWAP (1_A' (x) amp|v>_E')
            ops.append(np.einsum("aij,j->ai", swap4[:, e, :, :], amp * vec))
    return QuantumChannel(ops), swap4.reshape(d * d, d * d)


def partial_trace_channel(dims, keep) -> QuantumChannel:
    """Partial trace over the subsystems of `dims` not listed in `keep`."""
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(k) for k in keep))
    n, din = len(dims), math.prod(dims)
    traced = [k for k in range(n) if k not in keep]
    # the identity's output legs, traced ones first: Kraus operator t maps
    # |k, t> to |k> for each value t of the traced subsystems
    eye = np.eye(din, dtype=complex).reshape(dims + dims)
    ops = eye.transpose(traced + keep + list(range(n, 2 * n)))
    return QuantumChannel(ops.reshape(-1, math.prod(dims[k] for k in keep), din))


# ---------------------------------------------------------------------------
# actions and representations


def apply_many(n: KrausMap, ops: np.ndarray, left: int = 1,
               right: int = 1) -> np.ndarray:
    """(id_left (x) N (x) id_right) on a stack of operators.

    `ops` is a stack (B, D, D) of operators, or a stack (B, D) of state
    vectors psi standing for psi psi^dag, on left (x) in (x) right with
    D = left * in_dim * right; the result is (B, D', D') with
    D' = left * out_dim * right. All Kraus operators are contracted in one
    einsum into the transfer matrix T[(i, j), (a, c)] = sum_k K_k[a, i]
    conj(K_k[c, j]), which acts on the stack as one matmul, so the cost
    does not grow with the Kraus count.
    """
    ops = np.asarray(ops, dtype=complex)
    if ops.ndim == 2:
        ops = ops[:, :, None] * ops[:, None, :].conj()
    din, dout = n.in_dim, n.out_dim
    if ops.ndim != 3 or ops.shape[1:] != (left * din * right,) * 2:
        raise ValueError("operator dimension does not match channel input")
    kr = np.stack(n.kraus)
    transfer = np.einsum("kai,kcj->ijac", kr, kr.conj()).reshape(din * din, -1)
    # (b, l, i, r, m, j, s) -> rows (b, l, r, m, s), columns (i, j)
    m = ops.reshape(-1, left, din, right, left, din, right) \
        .transpose(0, 1, 3, 4, 6, 2, 5).reshape(-1, din * din)
    out = (m @ transfer).reshape(-1, left, right, left, right, dout, dout)
    d = left * dout * right
    return out.transpose(0, 1, 5, 2, 3, 6, 4).reshape(-1, d, d)


def apply(n: KrausMap, rho: DensityOperator) -> DensityOperator:
    """Apply a channel to a state; `apply_many` acts on one subsystem."""
    if rho.dim != n.in_dim:
        raise ValueError("state dimension does not match channel input")
    out = apply_many(n, rho.matrix[None])[0]
    return DensityOperator(out, (n.out_dim,),
                           subnormalized=not isinstance(n, QuantumChannel))


def choi_matrix(n: KrausMap, normalized: bool = True) -> HermitianOperator:
    """Choi operator on R (x) A; divide by in_dim when normalized."""
    d = n.in_dim
    kr = np.stack(n.kraus)  # (nk, out, in)
    # Gamma = sum_ij |i><j| (x) N(|i><j|) = sum_k vec(K) vec(K)† arranged
    gamma = np.einsum("kai,kbj->iajb", kr, kr.conj()).reshape(
        d * n.out_dim, d * n.out_dim)
    if normalized:
        gamma = gamma / d
    return HermitianOperator(gamma, (d, n.out_dim))


def stinespring_isometry(n: QuantumChannel) -> IsometryExtension:
    """V = sum_i K_i (x) |i>_E, environment dimension = Kraus count."""
    nk = len(n.kraus)
    v = np.stack(n.kraus, axis=1).reshape(n.out_dim * nk, n.in_dim)
    return IsometryExtension(v, nk)


def is_ppt(n: QuantumChannel) -> bool:
    """PPT test on the Choi state (partial transpose of the output leg)."""
    pt = partial_transpose(choi_matrix(n), 1)
    return bool(np.linalg.eigvalsh(pt.matrix).min() >= -TOL.psd)


def compose(n2: KrausMap, n1: KrausMap) -> QuantumChannel | KrausMap:
    """Serial composition n2 after n1."""
    if n1.out_dim != n2.in_dim:
        raise ValueError("composition dimension mismatch")
    ops = [k2 @ k1 for k2 in n2.kraus for k1 in n1.kraus]
    cls = QuantumChannel if isinstance(n1, QuantumChannel) \
        and isinstance(n2, QuantumChannel) else KrausMap
    return cls(ops)


def tensor_channels(n: KrausMap, m: KrausMap) -> QuantumChannel | KrausMap:
    ops = [np.kron(a, b) for a in n.kraus for b in m.kraus]
    cls = QuantumChannel if isinstance(n, QuantumChannel) \
        and isinstance(m, QuantumChannel) else KrausMap
    return cls(ops)


# ---------------------------------------------------------------------------
# diamond norm


def _diamond_problem_data(din: int, dout: int):
    """Constraint data (a, b) for max <J, W> s.t. 0 <= W <= rho (x) 1,
    tr rho = 1.

    Blocks: W (din*dout), Y = rho (x) 1 - W (din*dout), rho (din); one
    equality W + Y - rho (x) 1 = 0 per element E_k of the Hermitian basis,
    and tr rho = 1. W and Y share one constraint array.
    """
    dd = din * dout
    basis = hermitian_basis(dd)
    w = np.concatenate([basis, np.zeros((1, dd, dd))])
    # <rho (x) 1, E_k> = <rho, tr_out E_k>
    rho = np.concatenate([-np.einsum("nikjk->nij",
                                     basis.reshape(-1, din, dout, din, dout)),
                          np.eye(din)[None]])
    b = np.zeros(dd * dd + 1)
    b[-1] = 1.0
    return [w, w, rho], b


def diamond_distance(n: KrausMap, m: KrausMap) -> float:
    """Half diamond-norm distance (1/2)||N - M||_diamond via SDP."""
    if (n.in_dim, n.out_dim) != (m.in_dim, m.out_dim):
        raise ValueError("channels must share input and output dimensions")
    j = (choi_matrix(n, normalized=False).matrix
         - choi_matrix(m, normalized=False).matrix)
    vals, ok = _diamond_batch([j], n.in_dim, n.out_dim)
    if not ok[0]:
        raise sdp.SdpFailure("diamond-norm SDP failed")
    return float(vals[0])


def _diamond_batch(diffs, din: int, dout: int, chunk: int = 64):
    """Half diamond norms (1/2)||.||_diamond of Hermitian maps, given their
    unnormalized Choi matrices, solved in stacks of at most `chunk`.

    Returns (values, ok); ok flags the instances whose SDP ended optimal.
    """
    a, b = _diamond_problem_data(din, dout)
    zeros = [np.zeros(ab.shape[1:]) for ab in a[1:]]
    vals = np.zeros(len(diffs))
    ok = np.zeros(len(diffs), dtype=bool)
    for start in range(0, len(diffs), chunk):
        part = diffs[start:start + chunk]
        res = sdp.solve_stack([np.stack(part)] + zeros, a, b, sense="max")
        vals[start:start + len(part)] = np.maximum(res["primal_value"], 0.0)
        ok[start:start + len(part)] = res["ok"]
    return vals, ok


# ---------------------------------------------------------------------------
# JSON channel specs (shared wire format with the CLI)


def _matrix_from_pairs(rows, name: str) -> np.ndarray:
    try:
        pairs = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a matrix of [re, im] pairs") from exc
    if pairs.ndim != 3 or pairs.shape[2] != 2 or pairs.size == 0:
        raise ValueError(f"{name} must be a matrix of [re, im] pairs")
    if not np.isfinite(pairs).all():
        raise ValueError(f"{name} has non-finite entries")
    return np.ascontiguousarray(pairs).view(complex)[..., 0]


def channel_from_spec(spec) -> QuantumChannel:
    """Build a channel from the JSON wire format.

    Fields: {family, p?, omega?, unitary?, povm?, dims?}; matrices are
    row-major [re, im] pair arrays; omega may also be the string
    "maximally-mixed". A null field is absent. Every malformed spec, one
    with a field that its family does not use among them, raises
    ValueError (or json.JSONDecodeError, a ValueError, for text that is
    not JSON).
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ValueError("channel spec must be a JSON object")
    if "family" not in spec:
        raise ValueError("channel spec needs a 'family' field")
    _family_of(spec["family"], {key for key, value in spec.items()
                                if value is not None} - {"family"})
    # p and dims are validated by make_named_channel, whose default omega
    # is the maximally mixed state
    kw = {key: spec[key] for key in ("p", "dims") if spec.get(key) is not None}
    if spec.get("omega") not in (None, "maximally-mixed"):
        kw["omega"] = DensityOperator(_matrix_from_pairs(spec["omega"], "omega"))
    if spec.get("unitary") is not None:
        kw["unitary"] = _matrix_from_pairs(spec["unitary"], "unitary")
    if spec.get("povm") is not None:
        if not isinstance(spec["povm"], list):
            raise ValueError("povm must be a list of matrices")
        kw["povm"] = [_matrix_from_pairs(el, "povm element") for el in spec["povm"]]
    return make_named_channel(spec["family"], **kw)
