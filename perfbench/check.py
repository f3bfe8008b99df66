"""Independent output checks, built on numpy and scipy only.

Nothing here imports dpinv: inputs are re-read from the files the program
was given, references come from scipy's sparse LU and numpy's dense
factorizations, and outputs are parsed from what the program wrote. A check
raises :class:`WrongAnswer` with the worst defect it found.
"""

from __future__ import annotations

import struct

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Agreement required against the references. The program solves to
# absolute tolerances of 1e-9 (stationary, columns) and 1e-12 (metrics);
# these leave room for the reference's own rounding but not for a wrong
# answer, whose defects are of order one. The d-kind column tolerance is
# set per workload (see workloads.py): columns inherit pi's error, which
# the chain's conditioning amplifies.
PI_SLACK = 1e-13
METRIC_RTOL = 1e-6
PENROSE_TOL = 1e-6


class WrongAnswer(Exception):
    """An output failed its independent check."""


class Chain:
    """A digraph re-read from an edge list: transition matrix and pi."""

    def __init__(self, path):
        table = np.loadtxt(path, ndmin=2)
        src = table[:, 0].astype(np.int64)
        dst = table[:, 1].astype(np.int64)
        w = table[:, 2]
        self.n = int(max(src.max(), dst.max())) + 1
        adj = sp.csr_array((w, (src, dst)), shape=(self.n, self.n))
        degree = np.asarray(adj.sum(axis=1)).ravel()
        self.p = sp.csr_array(sp.diags_array(1.0 / degree) @ adj)
        self._pi = None

    @property
    def pi(self) -> np.ndarray:
        """Stationary distribution by one sparse LU solve of the balance
        equations with the last one replaced by the normalization."""
        if self._pi is None:
            n = self.n
            a = sp.lil_array(sp.eye_array(n) - self.p.T)
            a[n - 1, :] = np.ones(n)
            rhs = np.zeros(n)
            rhs[n - 1] = 1.0
            self._pi = spla.spsolve(sp.csc_array(a), rhs)
        return self._pi

    def laplacian_d(self) -> sp.csr_array:
        """I - S P S^-1 with S = Diag(sqrt(pi))."""
        s = np.sqrt(self.pi)
        return sp.csr_array(sp.eye_array(self.n)
                            - sp.diags_array(s) @ self.p @ sp.diags_array(1.0 / s))


def _fail(what: str, value: float, limit: float) -> None:
    if not value <= limit:  # also catches NaN
        raise WrongAnswer(f"{what} = {value:.3e} exceeds {limit:.1e}")


def read_raw_block(path) -> np.ndarray:
    """The program's raw column format: two uint32 (rows, cols), then
    row-major little-endian float64."""
    with open(path, "rb") as fh:
        n, k = struct.unpack("<II", fh.read(8))
        block = np.frombuffer(fh.read(), dtype="<f8")
    if block.size != n * k:
        raise WrongAnswer(f"raw block holds {block.size} values, header says {n}x{k}")
    return block.reshape(n, k)


def check_pi(chain: Chain, path, tol: float) -> None:
    pi = np.loadtxt(path, ndmin=1)
    if pi.shape != (chain.n,):
        raise WrongAnswer(f"pi has {pi.size} entries, graph has {chain.n} nodes")
    _fail("-min(pi)", -float(pi.min()), -1e-300)
    _fail("|sum(pi) - 1|", abs(float(pi.sum()) - 1.0), 1e-12)
    _fail("||P^T pi - pi||_2", float(np.linalg.norm(chain.p.T @ pi - pi)),
          tol + PI_SLACK)


def check_columns_d(chain: Chain, cols: list[int], path, tol: float) -> float:
    """Each column b_j of the d-kind pseudo-inverse solves
    L b = e_j - u u_j with u^T b = 0, u = sqrt(pi)/||sqrt(pi)||, within
    ``tol`` relative to max(1, ||B||_inf). Returns the worst relative defect."""
    block = read_raw_block(path)
    if block.shape != (chain.n, len(cols)):
        raise WrongAnswer(f"block is {block.shape}, expected {(chain.n, len(cols))}")
    u = np.sqrt(chain.pi)
    u /= np.linalg.norm(u)
    rhs = -np.outer(u, u[cols])
    rhs[cols, np.arange(len(cols))] += 1.0
    scale = max(float(np.abs(block).max()), 1.0)
    residual = float(np.abs(chain.laplacian_d() @ block - rhs).max()) / scale
    null_part = float(np.abs(u @ block).max()) / scale
    _fail("||L b - (e_j - u u_j)||_inf / scale", residual, tol)
    _fail("|u^T b| / scale", null_part, tol)
    return max(residual, null_part)


class DenseReference:
    """Walk metrics of a small chain from dense factorizations."""

    def __init__(self, p: np.ndarray, pi: np.ndarray | None):
        self.p = p
        self.pi = pi
        self.n = p.shape[0]
        self._fund = {}

    def fundamental(self, k: int) -> np.ndarray:
        """N = (I - Q)^-1 for the chain absorbed at k, embedded with a zero
        row and column at k: N[i, j] is the expected number of visits to j
        (start included) from i before absorption."""
        if k not in self._fund:
            keep = np.arange(self.n) != k
            q = self.p[np.ix_(keep, keep)]
            full = np.zeros((self.n, self.n))
            full[np.ix_(keep, keep)] = np.linalg.inv(np.eye(self.n - 1) - q)
            self._fund[k] = full
        return self._fund[k]

    def hitting(self, i: int, k: int) -> float:
        return float(self.fundamental(k)[i].sum())

    def kemeny(self) -> float:
        s = np.sqrt(self.pi)
        ld = np.eye(self.n) - (s[:, None] * self.p) / s[None, :]
        return float(np.trace(np.linalg.pinv(ld)))


def _close(what: str, got: float, want: float) -> None:
    _fail(f"{what} relative error", abs(got - want) / max(abs(want), 1.0), METRIC_RTOL)


def _sections(text: str) -> dict[str, list[list[str]]]:
    """Split the metrics report into its CSV sections, keyed by header."""
    out: dict[str, list[list[str]]] = {}
    current = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("kemeny,"):
            out["kemeny"] = [line.split(",")[1:]]
        elif line[0].isalpha():
            current = out.setdefault(line, [])
        elif current is None:
            raise WrongAnswer(f"metrics output starts with a bare row: {line!r}")
        else:
            current.append(line.split(","))
    return out


def check_metrics(chain: Chain, text: str, pairs, triples) -> None:
    ref = DenseReference(chain.p.toarray(), chain.pi)
    sec = _sections(text)
    rows = sec.get("i,k,hitting,commute", [])
    if len(rows) != len(pairs):
        raise WrongAnswer(f"{len(rows)} pair rows for {len(pairs)} pairs")
    for (i, k), row in zip(pairs, rows):
        hit, com = float(row[2]), float(row[3])
        _close(f"hitting({i},{k})", hit, ref.hitting(i, k))
        _close(f"commute({i},{k})", com, ref.hitting(i, k) + ref.hitting(k, i))
    rows = sec.get("i,j,k,visits,pass_prob", [])
    if len(rows) != len(triples):
        raise WrongAnswer(f"{len(rows)} triple rows for {len(triples)} triples")
    for (i, j, k), row in zip(triples, rows):
        vis, pp = float(row[3]), float(row[4])
        fund = ref.fundamental(k)
        _close(f"visits({i},{j},{k})", vis, fund[i, j])
        if i == j:
            _fail(f"1 - visits({j},{j},{k})", 1.0 - vis, 1e-9)
        _fail(f"pass_prob({i},{j},{k}) outside [0,1]", max(-pp, pp - 1.0), 0.0)
        _close(f"pass_prob({i},{j},{k})", pp, fund[i, j] / fund[j, j])
    if "kemeny" not in sec:
        raise WrongAnswer("no kemeny line")
    _close("kemeny", float(sec["kemeny"][0][0]), ref.kemeny())


def evaporating_reference(chain: Chain, gamma: float) -> DenseReference:
    """The chain with an added node that every walk leaks into at rate
    gamma and that restarts uniformly over the original nodes. Only the
    fundamental matrix absorbed at the new node is needed, not its pi."""
    n = chain.n
    p = np.zeros((n + 1, n + 1))
    p[:n, :n] = (1.0 - gamma) * chain.p.toarray()
    p[:n, n] = gamma
    p[n, :n] = 1.0 / n
    return DenseReference(p, None)


def check_influence(chain: Chain, gamma: float, text: str) -> None:
    ref = evaporating_reference(chain, gamma)
    rows = _sections(text).get("j,influence", [])
    n = ref.n - 1
    if len(rows) != n:
        raise WrongAnswer(f"{len(rows)} influence rows for {n} nodes")
    fund = ref.fundamental(n)[:n, :n]
    want = np.minimum(fund / np.diag(fund)[None, :], 1.0).sum(axis=0)
    got = np.array([float(r[1]) for r in rows])
    worst = int(np.argmax(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))
    _close(f"influence({worst})", float(got[worst]), float(want[worst]))


def check_penrose(matrix_path, path) -> None:
    """The four Moore-Penrose conditions, as relative Frobenius residuals."""
    a = scipy.io.mmread(matrix_path)
    a = a.toarray() if sp.issparse(a) else np.asarray(a)
    m = read_raw_block(path)
    if m.shape != a.shape:
        raise WrongAnswer(f"block is {m.shape}, matrix is {a.shape}")
    am, ma = a @ m, m @ a
    norm = np.linalg.norm
    _fail("||AMA - A|| / ||A||", norm(am @ a - a) / norm(a), PENROSE_TOL)
    _fail("||MAM - M|| / ||M||", norm(ma @ m - m) / norm(m), PENROSE_TOL)
    _fail("||(AM)^T - AM|| / ||AM||", norm(am.T - am) / norm(am), PENROSE_TOL)
    _fail("||(MA)^T - MA|| / ||MA||", norm(ma.T - ma) / norm(ma), PENROSE_TOL)
