"""Directed-graph Laplacians and their Moore-Penrose pseudo-inverses.

Four Laplacian flavors are built from a transition matrix P, the stationary
distribution pi, and the out-degrees d:

* kind "r": Diag(pi) - Diag(pi) P  (random-walk form)
* kind "a": Diag(d) - A            (unnormalized form)
* kind "p": I - P                  (normalized form)
* kind "d": I - Diag(pi)^{1/2} P Diag(pi)^{-1/2}  (diagonally scaled form)

Kinds "r" and "d" are Eulerian: a single strictly positive vector spans both
the left and right null spaces, which makes the pseudo-inverse reachable
through one nonsingular rank-one shift per column. The remaining kinds are
handled by the change-of-variables pipeline in :func:`general_pinv`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .krylov import GmresConfig, SolveReport, batch_width, gmres_block
from .sparse import (Digraph, SparseMatrix, col_sums, matvec,
                     matvec_transpose, row_sums, scale_rows_cols,
                     strong_connectivity_certificate)
from .stationary import StationaryResult, SubspaceConfig, stationary_distribution

EULERIAN_KINDS = ("r", "d")
ALL_KINDS = ("r", "a", "p", "d")
NULL_TOL = 1e-8


def _diag_minus(diag: np.ndarray, m: SparseMatrix) -> SparseMatrix:
    """Diag(diag) - M in one merge pass."""
    n = m.n_rows
    rows = np.concatenate([np.arange(n, dtype=np.int64), m.entry_rows])
    cols = np.concatenate([np.arange(n, dtype=np.int64), m.col_indices])
    vals = np.concatenate([np.asarray(diag, dtype=np.float64), -m.values])
    return SparseMatrix.from_coo(n, n, rows, cols, vals)


def build_laplacian(p: SparseMatrix, kind: str,
                    pi: np.ndarray | None = None,
                    d: np.ndarray | None = None) -> SparseMatrix:
    """Assemble the requested Laplacian from the transition matrix."""
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown Laplacian kind {kind!r}")
    if p.n_rows != p.n_cols:
        raise ValueError("transition matrix must be square")
    n = p.n_rows
    ones = np.ones(n)
    if kind == "r":
        if pi is None:
            raise ValueError("kind 'r' requires the stationary distribution")
        return _diag_minus(pi, scale_rows_cols(p, pi, ones))
    if kind == "a":
        if d is None:
            raise ValueError("kind 'a' requires the out-degree vector")
        return _diag_minus(d, scale_rows_cols(p, d, ones))
    if kind == "p":
        return _diag_minus(ones, p)
    if pi is None:
        raise ValueError("kind 'd' requires the stationary distribution")
    s = np.sqrt(pi)
    return _diag_minus(ones, scale_rows_cols(p, s, 1.0 / s))


def check_eulerian(l: SparseMatrix, w: np.ndarray,
                   tol: float = NULL_TOL) -> tuple[bool, tuple[float, float]]:
    """Does w span both null spaces? Returns (ok, (right defect, left defect))."""
    w = np.asarray(w, dtype=np.float64)
    right = float(np.abs(matvec(l, w)).max()) if l.n_rows else 0.0
    left = float(np.abs(matvec_transpose(l, w)).max()) if l.n_rows else 0.0
    scale = max(float(np.abs(l.values).max()) if l.nnz else 0.0, 1e-300)
    scale *= max(float(np.abs(w).max()), 1e-300)
    return (max(right, left) <= tol * scale, (right, left))


@dataclass
class EulerianSystem:
    """An Eulerian Laplacian bundled with its unit null vector and shift."""

    kind: str
    l: SparseMatrix
    u: np.ndarray
    pi: np.ndarray
    shift_alpha: float = 1.0


def eulerian_system(p: SparseMatrix, pi: np.ndarray, kind: str,
                    shift_alpha: float = 1.0,
                    null_tol: float = 1e-6) -> EulerianSystem:
    """Build the kind "r" or "d" system for pseudo-inverse column solves.

    The construction gate ``null_tol`` is looser than the solver tolerances
    on purpose: it catches an unconverged pi, while the d-kind left defect
    legitimately scales like (stationary residual) / sqrt(min pi).
    """
    if kind not in EULERIAN_KINDS:
        raise ValueError(f"kind {kind!r} has no direct pseudo-inverse route; "
                         "use general_pinv for kinds 'a' and 'p'")
    if shift_alpha == 0.0:
        raise ValueError("shift_alpha must be nonzero")
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (p.n_rows,) or np.any(pi <= 0):
        raise ValueError("pi must be strictly positive with one entry per node")
    if abs(pi.sum() - 1.0) > 1e-8:
        raise ValueError("pi must sum to 1")
    l = build_laplacian(p, kind, pi=pi)
    n = p.n_rows
    if kind == "r":
        u = np.full(n, 1.0 / np.sqrt(n))
        w = np.ones(n)
    else:
        u = np.sqrt(pi)
        u = u / np.linalg.norm(u)
        w = np.sqrt(pi)
    ok, (right, left) = check_eulerian(l, w, tol=null_tol)
    if not ok:
        raise NumericalError(
            f"kind {kind!r} Laplacian is not Eulerian for the supplied pi "
            f"(null defects right={right:.3e}, left={left:.3e}); "
            "pi is probably not converged")
    return EulerianSystem(kind, l, u, pi, float(shift_alpha))


def pinv_apply(sys: EulerianSystem, z: np.ndarray,
               cfg: GmresConfig | None = None) -> tuple[np.ndarray, list[SolveReport]]:
    """The pseudo-inverse applied to each column of an (n, k) block z.

    Solves (L + alpha u uᵀ) X = z in one lockstep block and removes the
    null-space component: the pseudo-inverse action is X - u (uᵀz) / alpha.
    Returns X with one report per column.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != sys.l.n_rows:
        raise ValueError(f"right-hand sides must form an ({sys.l.n_rows}, k) block")
    u, alpha = sys.u, sys.shift_alpha

    def apply(x: np.ndarray) -> np.ndarray:
        out = matvec(sys.l, x)
        # the shift is built as (k, n) rows: an (n, k) outer product with a
        # small k runs numpy's inner loop over k and costs several times more
        shift = out.T
        shift += np.multiply.outer(alpha * (u @ x), u)
        return out

    null_part = (u @ z) / alpha
    x, reports = gmres_block(apply, z, cfg)
    x -= np.outer(u, null_part)
    return x, reports


def pinv_columns(sys: EulerianSystem, indices,
                 cfg: GmresConfig | None = None) -> tuple[np.ndarray, list[SolveReport]]:
    """A block of pseudo-inverse columns, solved in lockstep batches.

    All indices are checked before any solve starts. Returns the columns in
    the order given, with one report per column.
    """
    idx = [int(j) for j in indices]
    n = sys.l.n_rows
    for j in idx:
        if not 0 <= j < n:
            raise ValueError(f"column index {j} out of range for n={n}")
    width = batch_width(n, (cfg or GmresConfig()).restart)
    block = np.empty((n, len(idx)))
    reports: list[SolveReport] = []
    # one batch at a time, so that only the output block is full size
    for start in range(0, len(idx), width):
        part = idx[start:start + width]
        e = np.zeros((n, len(part)))
        e[part, np.arange(len(part))] = 1.0
        block[:, start:start + width], reps = pinv_apply(sys, e, cfg)
        reports += reps
    return block, reports


# ---------------------------------------------------------------------------
# The pseudo-inverse from a {1}-inverse, and the maps between a pseudo-inverse
# and the leading-block inverse.


def _split(b: np.ndarray):
    n = b.shape[0]
    return b[:n - 1, :n - 1], b[:n - 1, n - 1], b[n - 1, :n - 1], b[n - 1, n - 1]


def _check_null_pair(u: np.ndarray, v: np.ndarray) -> None:
    if u[-1] <= 0 or v[-1] <= 0:
        raise ValueError("null vectors must have positive last entries")
    if abs(float(v @ u) - 1.0) > 1e-6:
        raise ValueError("null vectors must be normalized so that vᵀu = 1")


def pinv_rank1_general(solve_c, u: np.ndarray, v: np.ndarray,
                       rhs_indices=None) -> np.ndarray:
    """Pseudo-inverse columns through any {1}-inverse of A.

    Given right/left null vectors u, v of a nullity-one A and a block map
    ``solve_c(Z) -> G Z`` for any G with A G A = A, each pseudo-inverse
    column is the projection (I - u uᵀ/uᵀu) G (I - v vᵀ/vᵀv) e_j, since
    A⁺ = A⁺ A G A A⁺. The inverse of a rank-one shift C = A + alpha u vᵀ is
    one such G. ``solve_c`` is called once, on a block [v | e_j...] that it
    may overwrite.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n = u.shape[0]
    if v.shape != (n,):
        raise ValueError("null vectors must have equal length")
    cols = list(range(n)) if rhs_indices is None else [int(j) for j in rhs_indices]
    for j in cols:
        if not 0 <= j < n:
            raise ValueError(f"column index {j} out of range for n={n}")
    z = np.zeros((n, 1 + len(cols)))
    z[:, 0] = v
    z[cols, np.arange(1, 1 + len(cols))] = 1.0
    gz = np.asarray(solve_c(z), dtype=np.float64)
    q = gz[:, 1:]
    q -= np.outer(gz[:, 0], v[cols] / float(v @ v))
    q -= np.outer(u, (u @ q) / float(u @ u))
    return np.ascontiguousarray(q)


def reduced_from_pinv_general(b: np.ndarray, u: np.ndarray,
                              v: np.ndarray) -> np.ndarray:
    """Leading-block inverse from the pseudo-inverse.

    u and v are the right and left null vectors, paired so that vᵀu = 1,
    with positive last entries; a symmetric null space takes v = u.
    """
    b = np.asarray(b, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] != u.shape[0]:
        raise ValueError("pseudo-inverse and null vector sizes disagree")
    _check_null_pair(u, v)
    b11, b12, b21, bnn = _split(b)
    u1, un = u[:-1], u[-1]
    v1, vn = v[:-1], v[-1]
    return (b11 - np.outer(u1, b21) / un - np.outer(b12, v1) / vn
            + (bnn / (un * vn)) * np.outer(u1, v1))


def pinv_from_reduced_general(a11_inv: np.ndarray, u: np.ndarray,
                              v: np.ndarray) -> np.ndarray:
    """Pseudo-inverse from the leading-block inverse; u, v as above."""
    a11_inv = np.asarray(a11_inv, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n = u.shape[0]
    if v.shape != (n,):
        raise ValueError("null vectors must have equal length")
    if a11_inv.shape != (n - 1, n - 1):
        raise ValueError("leading-block inverse must be (n-1) x (n-1)")
    _check_null_pair(u, v)
    utu = float(u @ u)
    vtv = float(v @ v)
    u1, un = u[:-1], u[-1]
    v1, vn = v[:-1], v[-1]
    w = (a11_inv @ v1) / vtv
    t = (a11_inv.T @ u1) / utu
    s = float(u1 @ w) / utu
    b = np.empty((n, n))
    b[:n - 1, :n - 1] = (a11_inv - np.outer(u1, t) - np.outer(w, v1)
                         + s * np.outer(u1, v1))
    b[:n - 1, n - 1] = vn * s * u1 - vn * w
    b[n - 1, :n - 1] = un * s * v1 - un * t
    b[n - 1, n - 1] = un * vn * s
    return b


# ---------------------------------------------------------------------------
# General Laplacian-like matrices: properties, embedding, and the full
# change-of-variables pipeline.


@dataclass
class PropertyReport:
    irreducible: bool
    sign_pattern: bool
    null_vector: bool | None
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.irreducible and self.sign_pattern
                and self.null_vector is not False)


def check_properties(l: SparseMatrix, x: np.ndarray | None = None,
                     reduced: bool = False, tol: float = NULL_TOL) -> PropertyReport:
    """Check the structural requirements for the general pipeline.

    * irreducibility of the off-diagonal support,
    * strictly positive diagonal with nonpositive off-diagonal entries,
    * with ``x``: L x = 0 for strictly positive x, or in ``reduced`` mode
      L x > 0 strictly (the nonsingular leading-block variant).
    """
    if l.n_rows != l.n_cols:
        raise ValueError("expected a square matrix")
    n = l.n_rows
    messages: list[str] = []
    off = l.entry_rows != l.col_indices
    nz = off & (l.values != 0.0)
    if n == 1:
        irreducible = True
    else:
        support = Digraph(n, l.entry_rows[nz], l.col_indices[nz],
                          np.ones(int(nz.sum()))) if nz.any() else None
        if support is None:
            irreducible = False
            messages.append("(Pa) no off-diagonal entries at all")
        else:
            cert = strong_connectivity_certificate(support)
            irreducible = cert is None
            if cert is not None:
                messages.append(
                    f"(Pa) off-diagonal support is not strongly connected: "
                    f"no path from node {cert[0]} to node {cert[1]}")
    diag = l.diagonal()
    sign_pattern = True
    if np.any(diag <= 0):
        sign_pattern = False
        messages.append(f"(Pb) nonpositive diagonal at node {int(np.argmin(diag))}")
    if np.any(l.values[off] > 0):
        sign_pattern = False
        bad = int(np.nonzero(off & (l.values > 0))[0][0])
        messages.append(
            f"(Pb) positive off-diagonal entry at "
            f"({int(l.entry_rows[bad])}, {int(l.col_indices[bad])})")
    null_vector: bool | None = None
    if x is not None:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (n,):
            raise ValueError("x must have one entry per node")
        if np.any(x <= 0):
            null_vector = False
            which = "(Pc')" if reduced else "(Pc)"
            messages.append(f"{which} x must be strictly positive")
        else:
            lx = matvec(l, x)
            if reduced:
                null_vector = bool(lx.min() > 0)
                if not null_vector:
                    messages.append(
                        f"(Pc') L x must be strictly positive; entry "
                        f"{int(np.argmin(lx))} is {lx.min():.3e}")
            else:
                scale = max(float(np.abs(l.values).max()) if l.nnz else 0.0, 1e-300)
                scale *= max(float(np.abs(x).max()), 1e-300)
                defect = float(np.abs(lx).max())
                null_vector = defect <= tol * scale
                if not null_vector:
                    messages.append(
                        f"(Pc) ‖L x‖∞ = {defect:.3e} exceeds {tol:.1e} "
                        "relative to the matrix scale")
    return PropertyReport(irreducible, sign_pattern, null_vector, messages)


@dataclass
class GeneralLaplacian:
    """A matrix satisfying the pipeline properties, with its right null vector."""

    l: SparseMatrix
    x: np.ndarray


def general_laplacian(l: SparseMatrix, x: np.ndarray) -> GeneralLaplacian:
    """Validate and wrap a matrix for :func:`general_pinv`."""
    x = np.asarray(x, dtype=np.float64)
    rep = check_properties(l, x)
    if not rep.ok:
        raise InputError("; ".join(rep.messages))
    return GeneralLaplacian(l, x)


def embed_mmatrix(l11: SparseMatrix, w: np.ndarray) -> GeneralLaplacian:
    """Border a nonsingular M-matrix into a singular pipeline-ready matrix.

    Given L₁₁ with irreducible support, M-matrix sign pattern, and a strictly
    positive w with L₁₁ w > 0 strictly, returns the (n+1)-sized bordered
    matrix whose leading-block inverse is L₁₁⁻¹. The border uses the
    concatenated null vectors u = (w, 1) on the right and all-ones on the
    left; its last column is -L₁₁w and its last row holds the negated column
    sums.
    """
    w = np.asarray(w, dtype=np.float64)
    rep = check_properties(l11, w, reduced=True)
    if not rep.ok:
        raise InputError("; ".join(rep.messages))
    n1 = l11.n_rows
    lw = matvec(l11, w)
    csums = col_sums(l11)
    rows = [l11.entry_rows, np.arange(n1, dtype=np.int64),
            np.full(n1, n1, dtype=np.int64), np.array([n1])]
    cols = [l11.col_indices, np.full(n1, n1, dtype=np.int64),
            np.arange(n1, dtype=np.int64), np.array([n1])]
    vals = [l11.values, -lw, -csums, np.array([lw.sum()])]
    bordered = SparseMatrix.from_coo(
        n1 + 1, n1 + 1, np.concatenate(rows), np.concatenate(cols),
        np.concatenate(vals))
    return general_laplacian(bordered, np.concatenate([w, [1.0]]))


@dataclass
class GeneralPinvInfo:
    pi: np.ndarray
    v: np.ndarray
    stationary: StationaryResult
    column_reports: list[SolveReport]
    extra_report: SolveReport


def general_pinv(lt: GeneralLaplacian, indices=None,
                 cfg: GmresConfig | None = None,
                 sub_cfg: SubspaceConfig | None = None) -> tuple[np.ndarray, GeneralPinvInfo]:
    """Pseudo-inverse columns of a general Laplacian-like matrix.

    Column scaling by the right null vector x gives the random-walk form
    L X = D̂ (I - P̂) with a stochastic chain P̂. With π its stationary
    distribution and L_d the diagonally scaled Laplacian of P̂,

        L = A L_d B,  A = D̂ Π^{-1/2},  B = Π^{1/2} X^{-1},

    so G = X Π^{-1/2} L_d⁺ Π^{1/2} D̂^{-1} satisfies L G L = L, and
    L⁺ = P_x G P_v with P_x = I - x xᵀ/xᵀx and P_v = I - v vᵀ/vᵀv, where
    v = π / d̂ is the left null vector (see :func:`pinv_rank1_general`).
    G is applied in one lockstep block of shifted L_d solves: the coupling
    column v first, then one unit column per requested index.
    """
    if cfg is None:
        cfg = GmresConfig()
    l, x = lt.l, np.asarray(lt.x, dtype=np.float64)
    n = l.n_rows
    idx = list(range(n)) if indices is None else [int(j) for j in indices]
    for j in idx:
        if not 0 <= j < n:
            raise ValueError(f"column index {j} out of range for n={n}")
    if n == 1:
        raise InputError("a 1x1 singular matrix has the zero pseudo-inverse; "
                         "nothing to solve")

    lhat = scale_rows_cols(l, np.ones(n), x)
    dhat = lhat.diagonal()
    if np.any(dhat <= 0):
        raise InputError("scaled diagonal must stay strictly positive")
    off = lhat.entry_rows != lhat.col_indices
    rows = lhat.entry_rows[off]
    phat = SparseMatrix.from_coo(n, n, rows, lhat.col_indices[off],
                                 -lhat.values[off] / dhat[rows])
    # absorb any tiny null-vector defect so the chain is exactly stochastic
    rs = row_sums(phat)
    if np.any(rs <= 0):
        raise InputError("every node needs an outgoing transition")
    phat = SparseMatrix(n, n, phat.row_offsets, phat.col_indices,
                        phat.values / rs[phat.entry_rows])
    if sub_cfg is None:
        sub_cfg = SubspaceConfig(tol=min(cfg.tol, 1e-9))
    stat = stationary_distribution(phat, sub_cfg)
    pi = stat.pi
    sysd = eulerian_system(phat, pi, "d")
    sqrt_pi = np.sqrt(pi)
    v = pi / dhat
    v /= float(v @ x)
    reports: list[SolveReport] = []

    def apply_g(z: np.ndarray) -> np.ndarray:
        z *= (sqrt_pi / dhat)[:, None]
        y, reps = pinv_apply(sysd, z, cfg)
        reports.extend(reps)
        y *= (x / sqrt_pi)[:, None]
        return y

    block = pinv_rank1_general(apply_g, x, v, idx)
    info = GeneralPinvInfo(pi, v, stat, reports[1:], reports[0])
    return block, info
