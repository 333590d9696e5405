"""Lipschitz seminorms, metric/seminorm duality, and nuclei of observables.

A nucleus at level r is a finite family inside the polytope of r-bounded
1-Lipschitz functions. Small spaces get a complete quantize-and-project
enumeration, built point by point over the admissible grid prefixes. When a
closed-form floor on the member count, or else a point's prefix count,
exceeds `_NUCLEUS_SIZE_CAP`, the net falls back to metric cones, constants
and random projected samples, with the achieved sup-norm density measured by
probing instead of assumed.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import TOL, DomainError, as_positive_integer
from .rng import SplitMix64
from .spaces import FiniteMetricSpace


@dataclass(frozen=True, eq=False)
class Observable:
    """Real-valued function on the point set."""

    space: FiniteMetricSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.space.size,):
            raise DomainError("observable shape does not match the space")
        if not np.all(np.isfinite(v)):
            raise DomainError("observable has non-finite values")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


@dataclass(frozen=True, eq=False)
class MatrixObservable:
    """Hermitian n x n matrix attached to every point."""

    space: FiniteMetricSpace
    n: int
    values: np.ndarray     # shape (points, n, n), complex

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.space.size, self.n, self.n):
            raise DomainError("matrix field shape does not match (points, n, n)")
        herm = np.abs(v - v.conj().transpose(0, 2, 1)).max()
        if herm > TOL.hermitian_atol:
            raise DomainError(f"matrix field is not Hermitian (defect {herm:.2e})")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def operator_norm(H) -> float:
    """Spectral norm of a Hermitian matrix via eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(H)).max())


def lipschitz_seminorm(f: Observable) -> float:
    """max over pairs of |f(x) - f(y)| / d(x, y); 0 on singleton spaces."""
    n = f.space.size
    if n < 2:
        warnings.warn("Lipschitz seminorm is degenerate on a singleton space; returning 0")
        return 0.0
    v = f.values
    D = f.space.dist
    off = ~np.eye(n, dtype=bool)
    return float((np.abs(v[:, None] - v[None, :])[off] / D[off]).max())


def state_metric(states, values) -> np.ndarray:
    """Metric on a list of measures induced by a family of observables.

    values: (F, n) array, one observable per row, each read as having
    Lipschitz seminorm 1 (scale a row by its seminorm first; a nucleus's
    `values` qualify as they are). The distance is the max integral
    difference over the rows. This is a lower approximant of the dual state
    metric that grows with the family. The pseudometric triangle inequality
    is checked on the result. Both passes go one state at a time, so memory
    is O(S*F + S**2) for S states and F rows.
    """
    G = np.asarray(values, dtype=float)              # (F, n)
    n = states[0].space.size
    if G.ndim != 2 or G.shape[1] != n:
        raise DomainError(f"values must be an (F, {n}) array, got shape {G.shape}")
    if G.shape[0] == 0:
        raise DomainError("need at least one observable")
    if not np.all(np.isfinite(G)):
        raise DomainError("observable values must be finite")
    W = np.asarray([mu.weights for mu in states])    # (S, n)
    E = W @ G.T                                      # (S, F) integrals
    M = np.array([np.abs(e - E).max(axis=1) for e in E])
    np.fill_diagonal(M, 0.0)
    worst = max((m[None, :] - (m[:, None] + M)).max() for m in M)
    if not worst <= TOL.metric_atol:
        raise DomainError("state metric failed the pseudometric triangle check")
    return M


# ---------------------------------------------------------------------------
# nuclei

def _columns(values, n) -> np.ndarray:
    """The rows of values (1-D: one row) as one contiguous (n, rows) array."""
    return np.ascontiguousarray(np.asarray(values, dtype=float).reshape(-1, n).T)


def mcshane_project(space: FiniteMetricSpace, values) -> np.ndarray:
    """Least 1-Lipschitz function dominating the input values, of the input's
    shape; a 2-D input is projected row by row.

    out(x_i) = max_j (v(x_j) - d(x_i, x_j)), for all rows and all i at once:
    the values are transposed to (n, rows), and the n terms are taken with
    np.maximum in j order, the later j as its second operand, so a -0.0 that
    ties a +0.0 resolves as np.maximum resolves it.
    Transients are (n, rows).
    """
    v = np.asarray(values, dtype=float)
    D = space.dist
    cols = _columns(v, len(D))
    out = cols[0] - D[:, :1]
    term = np.empty_like(out)
    for j in range(1, len(D)):
        np.maximum(out, np.subtract(cols[j], D[:, j:j + 1], out=term), out=out)
    return out.T.reshape(v.shape)


def _lipschitz_excess(values, dist) -> float:
    """max over rows and point pairs of |f(x) - f(y)| - d(x, y), the diagonal
    included.

    The values are transposed to (n, rows); point i is compared with the
    points j >= i at once, against min(d(i, j), d(j, i)), which gives the
    max over both orders of an asymmetric pair exactly.
    """
    cols = _columns(values, len(dist))
    d = np.minimum(dist, dist.T)
    worst = []
    for i in range(len(d)):
        gap = cols[i:] - cols[i]
        np.abs(gap, out=gap)
        gap -= d[i, i:, None]
        worst.append(float(gap.max()))
    return max(worst)


@dataclass(frozen=True, eq=False)
class Nucleus:
    """Finite family inside {f : sup|f| <= r, f 1-Lipschitz}."""

    space: FiniteMetricSpace
    r: float
    values: np.ndarray     # (members, points)
    density: float         # sup-norm density: guaranteed if complete; otherwise the worst
                           # of the random probes, a lower estimate and not a bound
    complete: bool
    target_eps: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        n = self.space.size
        if vals.ndim != 2 or vals.shape[0] == 0 or vals.shape[1] != n:
            raise DomainError(f"nucleus values must be a (members, {n}) array with at "
                              f"least one member, got shape {vals.shape}")
        # negated tests: a NaN fails them, at no extra pass
        top = np.abs(vals).max()
        if not top <= self.r + TOL.lipschitz_atol:
            raise DomainError("nucleus member is not a number" if np.isnan(top)
                              else "nucleus member exceeds the norm bound r")
        if not _lipschitz_excess(vals, self.space.dist) <= TOL.lipschitz_atol:
            raise DomainError("nucleus member is not 1-Lipschitz")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]


def _grid_member_floor(D, grid, slack) -> int:
    """A lower bound on the member count of `_enumerate_grid_members`, exact
    in Python ints.

    A grid function whose values lie within k grid levels of each other,
    k h <= slack + d_min (h the widest step of the ascending grid, d_min the
    least distance between two points), passes every pairwise test. With L
    levels there are (L - k)((k + 1)**n - k**n) + k**n of them: for each
    least level a, the functions into levels a .. a + k that take a. The
    member count is the count at the last point, so a floor over `cap`
    means the enumeration returns None. k keeps a margin of 16 roundings
    of the scale of D and the grid, more than the tests' two operations and
    the grid steps' own rounding take, so each such function passes the
    float tests too.
    """
    n, levels = D.shape[0], len(grid)
    if n == 1 or levels == 1:
        return levels
    d_min = float(D[~np.eye(n, dtype=bool)].min())
    margin = 16.0 * np.finfo(float).eps * (float(np.abs(grid).max()) + float(D.max()) + slack)
    k = math.floor((slack + d_min - margin) / float(np.diff(grid).max()))
    k = min(levels - 1, max(0, k))
    return (levels - k) * ((k + 1) ** n - k ** n) + k ** n


def _enumerate_grid_members(D, grid, slack, cap):
    """Grid functions that are 1-Lipschitz up to `slack` pairwise, as rows in
    lexicographic order of grid index, or None when more than `cap` exist.

    The admissible prefixes are extended one point at a time, each test
    widened by tol = 1e-12 + delta, where delta = max(0, d_ac - d_ba - d_bc)
    over all triples is D's worst triangle defect (`validate_metric` accepts
    defects up to TOL.metric_atol). Their count never drops from one point
    to the next when `slack` is the grid step: a prefix admits point p at
    the values in [max_j(v_j - d_pj) - slack, min_k(v_k + d_pk) + slack]
    widened by tol on each side. Admitted values have v_j - v_k <= d_kj +
    slack + tol and d_kj <= d_pj + d_pk + delta, so that interval is at
    least slack + tol - delta > slack long and, as every v_j lies in the
    grid's range, meets that range in a stretch as long, so it holds a grid
    value. The first count over `cap` therefore decides, before any row of
    that point is built. Before any of that, `_grid_member_floor` decides
    most fallbacks without building a row.
    """
    if _grid_member_floor(D, grid, slack) > cap:
        return None
    n = D.shape[0]
    delta = max(0.0, max(float((D - D[b][:, None] - D[b][None, :]).max()) for b in range(n)))
    tol = 1e-12 + delta
    rows = np.empty((1, n))
    for pos in range(n):
        lo = np.full(len(rows), -np.inf)
        hi = np.full(len(rows), np.inf)
        for j in range(pos):
            lo = np.maximum(lo, rows[:, j] - D[pos, j] - slack)
            hi = np.minimum(hi, rows[:, j] + D[pos, j] + slack)
        ok = ((lo - tol)[:, None] <= grid) & (grid <= (hi + tol)[:, None])
        if np.count_nonzero(ok) > cap:
            return None
        prefix, value = np.nonzero(ok)      # row-major: the lexicographic order
        rows = rows[prefix]
        rows[:, pos] = grid[value]
    return rows


def _ranks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a, and each entry's rank among them (an
    intp array of a's shape, empty for an empty a): one flat sort, a
    neighbour compare, then np.searchsorted. In a float array -0.0 ranks
    with 0.0; in a uint64 view of its bits they are two values."""
    s = np.sort(a, axis=None)
    step = np.ones(len(s), dtype=bool)
    step[1:] = s[1:] != s[:-1]
    distinct = s[step]
    return distinct, np.searchsorted(distinct, a)


def _unique_ranked_rows(x: np.ndarray) -> np.ndarray:
    """The rows of a finite x rounded to 12 decimals, each once, in
    lexicographic order: every nucleus's dedupe.

    Each rounded column is ranked by `_ranks`, in the least unsigned dtype
    that holds its ranks; np.lexsort sorts such keys of 16 bits or less by
    a stable radix sort, and a row is kept when its ranks differ from the
    previous row's. Ranks keep the order of the values and give -0.0 the
    rank of 0.0, so this is a stable float lexsort, bit for bit: of rows
    equal up to the sign of a zero, the first in x is kept.
    """
    x = np.round(x, 12)
    ranks = []
    for col in x.T:
        distinct, rank = _ranks(col)
        ranks.append(rank.astype(np.min_scalar_type(len(distinct) - 1)))
    order = np.lexsort(ranks[::-1])
    keep = np.zeros(len(x), dtype=bool)
    keep[:1] = True
    for key in ranks:
        key = key[order]
        keep[1:] |= key[1:] != key[:-1]
    return x[order[keep]]


# most admissible grid prefixes at any point before nucleus_net falls back;
# a member-count floor above it decides the fallback before any grid row
_NUCLEUS_SIZE_CAP = 200_000
# cells of one (rows, block) array of _directed_sup_hausdorff (1 MiB)
_DENSITY_CELLS = 1 << 17


def nucleus_net(X: FiniteMetricSpace, r: float, eps: float, sample_budget: int = 1024,
                probe_count: int = 128, seed: int = 0) -> Nucleus:
    """eps-net (sup norm) of the polytope of r-bounded 1-Lipschitz functions.

    Construction: quantize values to an eps/2 grid, then project with the
    McShane regularisation and clip to [-r, r]. A closed-form floor on the
    member count (`_grid_member_floor`: the grid functions within k levels
    of each other, k h <= h + the least distance) is checked first, so a
    net over `_NUCLEUS_SIZE_CAP` is usually known before any grid row is
    built. When neither that floor nor any point of the quantized
    enumeration exceeds the cap, the enumeration runs in full and the net
    is complete (density <= eps by construction), its projections clipped
    in place. Otherwise the net holds the metric cone functions, a constants
    grid and projected random samples, and the reported density is measured
    by random-member probing: the `_directed_sup_hausdorff` from the probes
    to the members, the max over probes of the min over members of the sup
    distance. Either net is deduplicated on rank keys (`_unique_ranked_rows`).
    `sample_budget` and `probe_count` are positive counts
    (`config.as_positive_integer`), read even when the net is complete: a
    fallback with no probes would report density 0.0, which reads as exact.
    """
    sample_budget = as_positive_integer(sample_budget, "sample_budget")
    probe_count = as_positive_integer(probe_count, "probe_count")
    if not eps > 0:
        raise DomainError("eps must be positive")
    if not (r >= X.radius - TOL.metric_atol and math.isfinite(r)):
        raise DomainError(f"need finite r >= X.radius = {X.radius!r}")
    n = X.size
    steps = max(1, math.ceil(4.0 * r / eps))
    grid = np.linspace(-r, r, steps + 1)
    h = grid[1] - grid[0]

    if n == 1:
        vals = grid[:, None]
        return Nucleus(X, r, vals, density=h / 2.0, complete=True, target_eps=eps)

    members = _enumerate_grid_members(X.dist, grid, slack=h, cap=_NUCLEUS_SIZE_CAP)
    if members is not None:
        proj = mcshane_project(X, members)
        proj = _unique_ranked_rows(np.clip(proj, -r, r, out=proj))
        # rounding a member to the grid moves it h/2; projection cannot widen that
        return Nucleus(X, r, proj, density=h / 2.0, complete=True, target_eps=eps)

    # fallback family: cones, constants, projected random samples
    rows = []
    for y in range(n):
        cone = X.dist[:, y] - X.dist[:, y].max() / 2.0
        rows.append(cone)
        rows.append(-cone)
    for c in np.arange(-r, r + eps / 2.0, eps):
        rows.append(np.full(n, min(c, r)))
    g = _uniform_rows(SplitMix64(seed), sample_budget, n, r)
    g = grid[np.clip(np.round((g + r) / h).astype(int), 0, len(grid) - 1)]
    rows.extend(np.clip(mcshane_project(X, g), -r, r))
    vals = _unique_ranked_rows(np.asarray(rows))

    probes = _uniform_rows(SplitMix64(seed ^ 0x5EED), probe_count, n, r)
    probes = np.clip(mcshane_project(X, probes), -r, r)
    return Nucleus(X, r, vals, density=_directed_sup_hausdorff(probes, vals),
                   complete=False, target_eps=eps)


def _directed_sup_hausdorff(P: np.ndarray, Q: np.ndarray) -> float:
    """max over rows p of P of min over rows q of Q of max_x |p(x) - q(x)|,
    the directed sup-norm Hausdorff distance from P to Q (0.0 when P has no
    rows).

    The sup distance from every row of Q to a block of P's rows is
    accumulated point by point on Q's (n, rows) columns, with blocks sized
    so that the (rows of Q, block) array holds about _DENSITY_CELLS cells.
    Only abs, max and min touch the values, so the result does not depend
    on the blocking.
    """
    n = Q.shape[1]
    cols = _columns(Q, n)
    block = max(1, _DENSITY_CELLS // len(Q))
    worst = 0.0
    for lo in range(0, len(P), block):
        p = P[lo:lo + block]
        sup = np.abs(cols[0][:, None] - p[:, 0])            # (rows of Q, block)
        term = np.empty_like(sup)
        for x in range(1, n):
            np.abs(np.subtract(cols[x][:, None], p[:, x], out=term), out=term)
            np.maximum(sup, term, out=sup)
        worst = max(worst, float(sup.min(axis=0).max()))
    return worst


def _uniform_rows(rng: SplitMix64, count: int, n: int, r: float) -> np.ndarray:
    """count rows of n draws uniform on [-r, r], filled in stream order."""
    return rng.uniforms(count * n).reshape(count, n) * 2.0 * r - r


# ---------------------------------------------------------------------------
# matrix-observable model

def matrix_trace_observable(F: MatrixObservable) -> Observable:
    """Pointwise normalised trace (identity matrix maps to the constant 1)."""
    tr = np.trace(F.values, axis1=1, axis2=2) / F.n
    if np.abs(tr.imag).max() > TOL.trace_imag_atol:
        raise DomainError("trace of a Hermitian field should be real")
    return Observable(F.space, tr.real)


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    reason: str = ""
    witness: tuple = ()
    value: float = 0.0
    bound: float = 0.0


def matrix_nucleus_membership(F: MatrixObservable, r: float) -> MembershipReport:
    """Check sup operator norm <= r and pairwise operator-norm Lipschitz bound."""
    if not r > 0:
        raise DomainError("r must be positive")
    norms = np.array([operator_norm(F.values[i]) for i in range(F.space.size)])
    worst = int(np.argmax(norms))
    if norms[worst] > r + TOL.lipschitz_atol:
        return MembershipReport(False, "norm", (worst,), float(norms[worst]), r)
    n = F.space.size
    for i in range(n):
        for j in range(i + 1, n):
            gap = operator_norm(F.values[i] - F.values[j])
            if gap > F.space.dist[i, j] + TOL.lipschitz_atol:
                return MembershipReport(False, "pair", (i, j), gap, float(F.space.dist[i, j]))
    return MembershipReport(True)


@dataclass(frozen=True)
class Decomposition:
    G: MatrixObservable
    c: float
    H: MatrixObservable
    basepoint: int


def nucleus_decompose(F: MatrixObservable, r: float) -> Decomposition:
    """Split F = G + c*Id + H with G in the matrix nucleus at level r and H
    tracially null.

    The shift c is the trace observable at the first point of the
    lexicographically first diameter pair; if that basepoint leaves G outside
    the norm ball (possible for r below the diameter), the midrange shift is
    used instead, which always works for r >= radius.
    """
    fhat = matrix_trace_observable(F)
    L = lipschitz_seminorm(fhat)
    if L > 1.0 + TOL.lipschitz_atol:
        raise DomainError(f"trace observable must be 1-Lipschitz (got {L!r}); rescale first")
    if r < F.space.radius - TOL.metric_atol:
        raise DomainError("need r >= radius of the space")
    D = F.space.dist
    flat = int(np.argmax(D))
    x0, _x1 = divmod(flat, F.space.size)
    c = float(fhat.values[x0])
    if np.abs(fhat.values - c).max() > r + TOL.lipschitz_atol:
        c = 0.5 * (fhat.values.max() + fhat.values.min())
    eye = np.eye(F.n, dtype=complex)
    g_vals = (fhat.values - c)[:, None, None] * eye[None, :, :]
    h_vals = F.values - fhat.values[:, None, None] * eye[None, :, :]
    G = MatrixObservable(F.space, F.n, g_vals)
    H = MatrixObservable(F.space, F.n, h_vals)
    report = matrix_nucleus_membership(G, r)
    if not report.ok:
        raise DomainError(f"decomposition failed its own membership certificate: {report}")
    tr_h = np.abs(np.trace(H.values, axis1=1, axis2=2)) / F.n
    if tr_h.max() > TOL.trace_null_atol:
        raise DomainError("H is not tracially null")
    return Decomposition(G, c, H, x0)
