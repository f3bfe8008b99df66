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
from .krylov import POLY_SETUP_MV, GmresConfig, SolveReport, gmres_block, gmres_poly
from .sparse import (Digraph, SparseMatrix, matvec, matvec_transpose,
                     row_sums, scale_rows_cols, strong_connectivity_certificate)
from .stationary import StationaryResult, SubspaceConfig, stationary_distribution

EULERIAN_KINDS = ("r", "d")
ALL_KINDS = ("r", "a", "p", "d")
NULL_TOL = 1e-8
# Bytes of unit right-hand sides pinv_columns hands to one solve call: about
# two lockstep batches at the default restart, so the chunk's right-hand
# sides, iterates and temporaries add little to peak memory.
_RHS_BYTES = 1 << 16


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


def _shifted_operator(sys: EulerianSystem):
    """The block map x -> (L + alpha u uᵀ) x, one sparse product per block."""
    u, alpha = sys.u, sys.shift_alpha

    def apply(x: np.ndarray) -> np.ndarray:
        out = matvec(sys.l, x)
        # the shift is built as (k, n) rows: an (n, k) outer product with a
        # small k runs numpy's inner loop over k and costs several times more
        shift = out.T
        shift += np.multiply.outer(alpha * (u @ x), u)
        return out

    return apply


def pinv_apply(sys: EulerianSystem, z: np.ndarray, cfg: GmresConfig | None = None,
               poly: tuple[float, float] | None = None
               ) -> tuple[np.ndarray, list[SolveReport]]:
    """The pseudo-inverse applied to each column of an (n, k) block z.

    Solves (L + alpha u uᵀ) X = z in one lockstep block and removes the
    null-space component: the pseudo-inverse action is X - u (uᵀz) / alpha.
    ``poly`` is passed on to :func:`gmres_block`. Returns X with one report
    per column.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] != sys.l.n_rows:
        raise ValueError(f"right-hand sides must form an ({sys.l.n_rows}, k) block")
    null_part = (sys.u @ z) / sys.shift_alpha
    x, reports = gmres_block(_shifted_operator(sys), z, cfg, poly)
    x -= np.outer(sys.u, null_part)
    return x, reports


def pinv_columns(sys: EulerianSystem, indices,
                 cfg: GmresConfig | None = None) -> tuple[np.ndarray, list[SolveReport]]:
    """A block of pseudo-inverse columns, solved a bounded chunk at a time.

    All indices are checked before any solve starts. The GMRES polynomial is
    fitted once for the request and its 2 products are charged to the first
    report, so the reports sum to every product the request made. Each chunk
    is one :func:`pinv_apply` call, which runs it in lockstep batches.
    Returns the columns in the order given, with one report per column.
    """
    idx = [int(j) for j in indices]
    n = sys.l.n_rows
    for j in idx:
        if not 0 <= j < n:
            raise ValueError(f"column index {j} out of range for n={n}")
    width = max(1, _RHS_BYTES // (8 * n))
    block = np.empty((n, len(idx)))
    reports: list[SolveReport] = []
    if not idx:
        return block, reports
    poly = gmres_poly(_shifted_operator(sys), n)
    # a bounded chunk at a time, so that only the output block is full size
    for start in range(0, len(idx), width):
        part = idx[start:start + width]
        e = np.zeros((n, len(part)))
        e[part, np.arange(len(part))] = 1.0
        block[:, start:start + width], reps = pinv_apply(sys, e, cfg, poly)
        reports += reps
    reports[0].mv_count += POLY_SETUP_MV
    return block, reports


# ---------------------------------------------------------------------------
# The pseudo-inverse from a {1}-inverse.


def pinv_rank1_general(solve_c, u: np.ndarray, v: np.ndarray,
                       rhs_indices=None) -> np.ndarray:
    """Pseudo-inverse columns through any {1}-inverse of A.

    Given right/left null vectors u, v of a nullity-one A and a block map
    ``solve_c(Z) -> G Z`` for any G with A G A = A, each pseudo-inverse
    column is the projection (I - u uᵀ/uᵀu) G (I - v vᵀ/vᵀv) e_j, since
    A⁺ = A⁺ A G A A⁺. The inverse of a rank-one shift C = A + alpha u vᵀ is
    one such G, and so is the inverse of a nonsingular leading block padded
    with zeros. ``solve_c`` is called once, on a block [v | e_j...] that it
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


# ---------------------------------------------------------------------------
# General Laplacian-like matrices: properties and the full
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
                     tol: float = NULL_TOL) -> PropertyReport:
    """Check the structural requirements for the general pipeline.

    * irreducibility of the off-diagonal support,
    * strictly positive diagonal with nonpositive off-diagonal entries,
    * with ``x``: L x = 0 for strictly positive x.
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
            messages.append("(Pc) x must be strictly positive")
        else:
            scale = max(float(np.abs(l.values).max()) if l.nnz else 0.0, 1e-300)
            scale *= max(float(np.abs(x).max()), 1e-300)
            defect = float(np.abs(matvec(l, x)).max())
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
