"""Probability measures on finite metric spaces and exact optimal transport.

Primal 1-Wasserstein distances come from a transportation network simplex
written here (desk-scale exactness, deterministic pivoting). W1 depends on
mu - nu alone (Kantorovich-Rubinstein duality), so the mass that mu and nu
share stays in place and the simplex moves only (mu - nu)+ to (mu - nu)-: on
full supports about half the points on each side. On a validated distance
matrix (zero diagonal and triangle inequality within TOL.metric_atol) the
value is within TOL.metric_atol of the full-support optimum. W-infinity is
no function of mu - nu and keeps the whole supports. A solve starts from the
least-cost ("matrix minimum") basis, which ships along the cheapest cells
first, ties in row-major order, and leaves few pivots to make (Glover,
Karney, Klingman & Napier, Management Sci. 1974). The same simplex decides
the thresholds of the infinity-Wasserstein search. The search is bracketed
before any solve: single points that cannot place their mass within a
threshold give a floor (Hall's condition), and the least-cost plan of the
distances gives a feasible ceiling. Probes gallop up from the floor and then
bisect; the first starts from the least-cost basis of the distances, each
later one from the previous one's optimal basis (a basis depends only on
the marginals), and the value is the least candidate distance that the
feasibility rule passes, as in a bisection over every candidate that
starts each threshold afresh, in fewer solves and pivots. The simplex
basis is a spanning tree rooted at the first source point and updated in
place: each pivot finds its cycle by climbing parent pointers to the lowest
common ancestor of the entering arc's ends, and recomputes potentials only
on the subtree that the leaving arc cuts off. The Kantorovich dual is read
off the same solve: the c-transform of the simplex's column potentials over
the sinks is 1-Lipschitz on the whole space, so its pairing with mu - nu
lies between the simplex's dual objective and W1, and the mandatory
duality-gap check certifies both the plan and the potential. With one source
or one target point the least-cost start is the one feasible plan and needs
no tree.

Tables of W1 values between two arrays of weight rows (`w1_table`, behind
`w1_hausdorff`) take a closed form when the distance matrix is, within
TOL.metric_atol, the arc metric of the cycle 0 -> 1 -> ... -> n-1 -> 0:
circle nets, interval nets (as half-circles) and every space of two or three
points. On a cycle the flow across arc k is G_k - alpha, with G the
cumulative mass difference, and the cost sum_k arc_k |G_k - alpha| is least
at the arc-weighted median alpha of G (Cabrelli & Molter 1995; Rabin, Delon
& Gousseau 2011). Any other space gets `_w1_fill`, which the map searches'
tables share: pairs whose moved mass goes from one point to one point off
the distance matrix, the rest by simplex.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import TOL, DomainError, as_positive_integer
from .spaces import FiniteMetricSpace, SubsetRef, _check_map, _same_space


def _check_weights(W: np.ndarray) -> None:
    """Raise DomainError unless each row of W (along its last axis) is a
    probability vector: no NaN, no weight below -TOL.weight_atol, and a sum
    within TOL.weight_atol of 1. The one rule for measures, weight tables,
    Markov kernel rows, map-family probabilities and mixing weights."""
    # negated tests: a NaN fails them, at no extra pass
    low = W.min(initial=0.0)
    if not low >= -TOL.weight_atol:
        raise DomainError("a weight is not a number" if np.isnan(low)
                          else f"negative weight {low!r}")
    sums = W.sum(axis=-1)
    off = np.abs(sums - 1.0)
    if not off.max(initial=0.0) <= TOL.weight_atol:
        raise DomainError(f"weights sum to {np.ravel(sums)[np.argmax(off)]!r}, not 1")


@dataclass(frozen=True, eq=False)
class Measure:
    """Probability weights aligned with a space's point order."""

    space: FiniteMetricSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.space.size,):
            raise DomainError(f"weights shape {w.shape} does not match space size {self.space.size}")
        _check_weights(w)
        w = np.clip(w, 0.0, None)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0)


def point_mass(space: FiniteMetricSpace, i: int) -> Measure:
    return uniform_measure(space, (i,))


def uniform_measure(space: FiniteMetricSpace, indices=None) -> Measure:
    """Uniform measure on the space, or on the index set `indices`, which
    must be a `SubsetRef` of it: nonempty, duplicate-free, in range."""
    w = np.zeros(space.size)
    if indices is None:
        w[:] = 1.0 / space.size
    else:
        idx = SubsetRef(space, tuple(indices)).indices
        w[list(idx)] = 1.0 / len(idx)
    return Measure(space, w)


def _check_plan(P: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Raise DomainError unless P is a plan from weights a to weights b: no
    entry below -TOL.coupling_atol, and row and column sums within
    TOL.coupling_atol of a and b."""
    if P.min() < -TOL.coupling_atol:
        raise DomainError("coupling has a negative entry")
    if np.abs(P.sum(axis=1) - a).max() > TOL.coupling_atol:
        raise DomainError("coupling row sums do not match the source weights")
    if np.abs(P.sum(axis=0) - b).max() > TOL.coupling_atol:
        raise DomainError("coupling column sums do not match the target weights")


@dataclass(frozen=True, eq=False)
class Coupling:
    """Primal transport witness; marginals must match source and target."""

    source: Measure
    target: Measure
    matrix: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.matrix, dtype=float)
        _check_plan(P, self.source.weights, self.target.weights)
        P = P.copy()
        P.flags.writeable = False
        object.__setattr__(self, "matrix", P)

    def cost(self) -> float:
        return float((self.matrix * self.source.space.dist).sum())


@dataclass(frozen=True, eq=False)
class Potential:
    """Dual transport witness: a 1-Lipschitz function on the points."""

    space: FiniteMetricSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        diffs = np.abs(v[:, None] - v[None, :])
        excess = diffs - self.space.dist
        if excess.max() > TOL.lipschitz_atol:
            i, j = np.unravel_index(np.argmax(excess), excess.shape)
            raise DomainError(f"potential is not 1-Lipschitz at ({i},{j}): "
                              f"|{v[i]!r}-{v[j]!r}| > d={self.space.dist[i, j]!r}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def pairing(self, mu: Measure, nu: Measure) -> float:
        return float(np.dot(mu.weights - nu.weights, self.values))


# ---------------------------------------------------------------------------
# transportation network simplex

class _SimplexStall(DomainError):
    pass


def _least_cost_basis(a, b, C) -> dict[tuple[int, int], float]:
    """The least-cost ("matrix minimum") basis of (a, b) under C, as a flow
    dict of n + m - 1 arcs keyed by (row, column).

    Visits the cells in ascending cost, ties in row-major order, skipping any
    whose row or column is crossed out. Each visited cell ships the least of
    its row's and column's remainders (zero included) and crosses out one
    line: the row when its remainder is spent and it is not the last live
    row, or when one live column is left; otherwise the column. It stops when
    the last row meets the last column. Every arc but the last crosses out a
    line, so the arcs form a spanning tree. On a constant C this is the
    northwest corner.
    """
    n, m = len(a), len(b)
    ra, rb = a.tolist(), b.tolist()
    row_live, col_live = [True] * n, [True] * m
    rows, cols = n, m
    flow: dict[tuple[int, int], float] = {}
    order = np.argsort(C, axis=None, kind="stable")
    for i, j in zip((order // m).tolist(), (order % m).tolist()):
        if not (row_live[i] and col_live[j]):
            continue
        q = min(ra[i], rb[j])
        flow[(i, j)] = q
        ra[i] -= q
        rb[j] -= q
        if rows == 1 and cols == 1:
            return flow
        if (ra[i] <= 0 and rows > 1) or cols == 1:
            row_live[i] = False
            rows -= 1
        else:
            col_live[j] = False
            cols -= 1
    raise AssertionError("unreachable: the last row and column always meet")


def _transport_simplex(a, b, C, max_pivots=None, basis=None):
    """min <C, P> s.t. P 1 = a, P^T 1 = b, P >= 0 with a, b > 0 summing alike.

    Starts from `basis` when given, else from the least-cost basis of
    `_least_cost_basis` (cheapest cells first, ties in row-major order); MODI
    pivoting (most-negative entering arc, first index on ties) with a
    Bland's-rule fallback against degenerate cycling. Returns (cost, P, u, v)
    with (u, v) the optimal node potentials.

    `basis` is a flow dict {(row, column): flow} of n + m - 1 arcs, zero-flow
    arcs included, that is feasible for (a, b) and forms a spanning tree (or
    `_SimplexStall` is raised). A basis does not depend on C, so the optimal
    basis of one cost matrix is a valid start for any other with the same
    marginals. The solver pivots on the dict in place: on return it holds
    the optimal basis.

    Rows are nodes 0..n-1 and columns nodes n..n+m-1. The basis is a spanning
    tree rooted at row 0 (u_0 = 0), kept as parent, depth and adjacency lists;
    each potential follows from its tree parent through the arc cost. A pivot
    finds the entering arc's cycle by climbing parent pointers from both ends
    to their lowest common ancestor; the arcs that lose flow are those whose
    child is a row on the row end's side and a column on the column end's
    side. Dropping the leaving arc cuts one subtree off, which holds one end
    of the entering arc; that subtree alone is re-rooted at that end and has
    its parents, depths and potentials recomputed from the new parent, so
    every potential equals a from-scratch walk from the root.
    """
    n, m = len(a), len(b)
    flow = _least_cost_basis(a, b, C) if basis is None else basis
    if basis is None and min(n, m) == 1:
        # every cell is basic: the least-cost start is the one feasible plan,
        # with the potentials that `hang` gives it from u_0 = 0 (on finite
        # costs, u_0 = C[0, 0] - v_0 comes out as 0.0 exactly)
        v = C[0] - 0.0
        u = C[:, 0] - v[0]
        P = _plan(flow, n, m)
        return float((P * C).sum()), P, u, v
    adj: list[list[int]] = [[] for _ in range(n + m)]
    for i, j in flow:
        adj[i].append(n + j)
        adj[n + j].append(i)
    if basis is not None:
        # n + m - 1 arcs that reach every node from row 0 form a spanning
        # tree (the least-cost basis always does); on a cycle `hang` would
        # never return
        reached = [False] * (n + m)
        reached[0] = True
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if not reached[nb]:
                    reached[nb] = True
                    stack.append(nb)
        if len(flow) != n + m - 1 or not all(reached):
            raise _SimplexStall("basis is not a spanning tree")

    if max_pivots is None:
        max_pivots = 200 + 60 * (n + m) ** 2
    bland_after = 100 + 20 * (n + m) ** 2

    cost_rows = C.tolist()
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    pot = [0.0] * (n + m)      # u then v

    def hang(top: int) -> None:
        """Point every node below `top` at its parent, and set the depth and
        potential of `top` and of every node below it from its parent;
        `parent[top]` is already in place (-1 for the root)."""
        stack = [top]
        while stack:
            node = stack.pop()
            up = parent[node]
            if up >= 0:
                depth[node] = depth[up] + 1
                if node < n:
                    pot[node] = cost_rows[node][up - n] - pot[up]
                else:
                    pot[node] = cost_rows[up][node - n] - pot[up]
            for nb in adj[node]:
                if nb != up:
                    parent[nb] = node
                    stack.append(nb)

    hang(0)

    pivots = 0
    while True:
        u = np.array(pot[:n])
        v = np.array(pot[n:])
        R = C - u[:, None] - v[None, :]
        if pivots < bland_after:
            k = int(np.argmin(R))
            if R.flat[k] >= -TOL.simplex_opt_tol:
                break
            ei, ej = divmod(k, m)
        else:
            cand = np.argwhere(R < -TOL.simplex_opt_tol)
            if len(cand) == 0:
                break
            ei, ej = (int(cand[0][0]), int(cand[0][1]))
        pivots += 1
        if pivots > max_pivots:
            raise _SimplexStall("network simplex exceeded its pivot budget")
        if (ei, ej) in flow:
            # a basic arc's reduced cost is rounding error, larger than
            # TOL.simplex_opt_tol at large costs; pivoting on it changes nothing
            raise _SimplexStall("rounding error in the potentials exceeds the optimality tolerance")

        # the entering arc takes +theta; around the cycle the arcs alternate
        x, y = ei, n + ej
        minus: list[tuple[int, int]] = []
        plus: list[tuple[int, int]] = []
        while x != y:
            if depth[x] >= depth[y]:
                up = parent[x]
                if x < n:
                    minus.append((x, up - n))
                else:
                    plus.append((up, x - n))
                x = up
            else:
                up = parent[y]
                if y < n:
                    plus.append((y, up - n))
                else:
                    minus.append((up, y - n))
                y = up
        theta = min(flow[arc] for arc in minus)
        leave = min(arc for arc in minus if flow[arc] <= theta)
        for arc in minus:
            flow[arc] -= theta
            if flow[arc] < 0:
                flow[arc] = 0.0
        for arc in plus:
            flow[arc] += theta
        del flow[leave]
        flow[(ei, ej)] = theta

        li, lj = leave
        adj[li].remove(n + lj)
        adj[n + lj].remove(li)
        adj[ei].append(n + ej)
        adj[n + ej].append(ei)
        # a leaving arc whose child is a row lies on the row end's side
        top, anchor = (ei, n + ej) if parent[li] == n + lj else (n + ej, ei)
        parent[top] = anchor
        hang(top)

    P = _plan(flow, n, m)
    return float((P * C).sum()), P, u, v


def _plan(flow: dict[tuple[int, int], float], n: int, m: int) -> np.ndarray:
    """The (n, m) plan of a basis flow dict."""
    P = np.zeros((n, m))
    for (i, j), q in flow.items():
        P[i, j] = q
    return P


def _moved_mass(wa: np.ndarray, wb: np.ndarray):
    """The moved mass of weights wa against wb: with d = wa - wb, the source
    points d > 0 with supplies d there and the sink points d < 0 with
    demands -d there. W1 depends on wa - wb alone, so the mass the two
    share stays in place and only (wa - wb)+ travels to (wa - wb)-."""
    d = wa - wb
    sa, sb = np.flatnonzero(d > 0), np.flatnonzero(d < 0)
    return sa, sb, d[sa], -d[sb]


def _w1_solve(mu: Measure, nu: Measure):
    """The one moved-mass solve behind `wasserstein1` and
    `wasserstein1_dual`: (cost, plan, sinks, v), with the full plan
    diag(min(mu, nu)) plus the moved mass's optimal plan, the sink points of
    (mu - nu)- and the optimal column potentials v over them. When nothing
    moves the cost is 0.0, the plan diagonal and v None."""
    X = _same_space(mu, nu)
    plan = np.diag(np.minimum(mu.weights, nu.weights))
    sa, sb, a, b = _moved_mass(mu.weights, nu.weights)
    if not (len(sa) and len(sb)):
        return 0.0, plan, sb, None
    cost, P, _, v = _transport_simplex(a, b, X.dist[sa[:, None], sb])
    plan[sa[:, None], sb] = P
    return cost, plan, sb, v


def wasserstein1(mu: Measure, nu: Measure) -> tuple[float, Coupling]:
    """Exact optimal transport cost under the space metric, with a witness plan.

    The simplex moves only (mu - nu)+ to (mu - nu)-: the plan is
    diag(min(mu, nu)), the shared mass left in place, plus the moved mass's
    optimal plan, and the value is that plan's cost off the diagonal. On a
    validated matrix (zero diagonal and triangle inequality within
    TOL.metric_atol) this is within TOL.metric_atol of the full-support
    optimum; with an exact zero diagonal and triangle inequality it is that
    optimum up to rounding. When mu - nu has no positive or no negative entry (measures
    equal up to rounding) nothing moves and the value is 0.0.
    """
    cost, plan, _, _ = _w1_solve(mu, nu)
    return cost, Coupling(mu, nu, plan)


def _w1_fill(WA: np.ndarray, WB: np.ndarray, D: np.ndarray) -> np.ndarray:
    """W1 under D from each row of weights WA to the matching row of WB
    (broadcast together), bit for bit as `wasserstein1`: each row pair moves
    only its (a - b)+ to its (a - b)-. Identical rows, and rows whose
    difference has no positive or no negative entry, give 0.0; a moved mass
    from one point x to one point y has one plan, so min(a_x - b_x,
    b_y - a_y) * D[x, y] for all such pairs at once; the rest get the
    simplex on the moved mass, its plan checked by `_check_plan`."""
    WA, WB = np.broadcast_arrays(WA, WB)
    shape, n = WA.shape[:-1], WA.shape[-1]
    WA, WB = WA.reshape(-1, n), WB.reshape(-1, n)
    d = WA - WB
    up, down = d > 0, d < 0
    ups, downs = up.sum(axis=1), down.sum(axis=1)
    vals = np.zeros(len(WA))
    moves = (ups > 0) & (downs > 0)
    point = np.flatnonzero(moves & (ups + downs == 2))
    x, y = up[point].argmax(axis=1), down[point].argmax(axis=1)
    vals[point] = np.minimum(d[point, x], -d[point, y]) * D[x, y]
    for k in np.flatnonzero(moves & (ups + downs > 2)).tolist():
        sa, sb, a, b = _moved_mass(WA[k], WB[k])
        cost, P, _, _ = _transport_simplex(a, b, D[sa[:, None], sb])
        _check_plan(P, a, b)
        vals[k] = cost
    return vals.reshape(shape)


# ---------------------------------------------------------------------------
# W1 tables, in closed form on cycle metrics

def _cycle_arcs(D: np.ndarray) -> np.ndarray | None:
    """The arcs d(k, k+1) and the closing arc d(n-1, 0) when D is, within
    TOL.metric_atol, the arc metric of the cycle 0 -> 1 -> ... -> n-1 -> 0
    with those arcs (d(i, j) the shorter way round); None otherwise."""
    n = len(D)
    if n < 2:
        return None
    arcs = np.append(np.diagonal(D, 1), D[-1, 0])
    pos = np.concatenate(([0.0], np.cumsum(arcs[:-1])))
    gap = np.abs(pos[:, None] - pos[None, :])
    arc_metric = np.minimum(gap, arcs.sum() - gap)
    return arcs if np.abs(arc_metric - D).max() <= TOL.metric_atol else None


def _circle_w1(G: np.ndarray, arcs: np.ndarray) -> np.ndarray:
    """min over alpha of sum_k arcs[k] |G[..., k] - alpha|, along the last axis.

    This is W1 on a cycle whose arc k has length arcs[k] and whose cumulative
    mass difference up to arc k is G[..., k]. The minimum sits at the
    arc-weighted median of G, the first sorted value whose cumulative arc
    length reaches half the total. A row of zeros gives exactly 0.0.
    """
    order = np.argsort(G, axis=-1)
    cum = np.cumsum(np.take_along_axis(np.broadcast_to(arcs, G.shape), order, -1), axis=-1)
    median = (cum < 0.5 * cum[..., -1:]).sum(axis=-1, keepdims=True)
    alpha = np.take_along_axis(G, np.take_along_axis(order, median, -1), -1)
    # an accumulate adds left to right under every SIMD kernel; numpy's
    # pairwise .sum() groups its terms by the kernel's width
    return np.cumsum(arcs * np.abs(G - alpha), axis=-1)[..., -1]


def w1_table(X: FiniteMetricSpace, WA, WB) -> np.ndarray:
    """W1 on X between every row of weights WA and every row of WB, as a
    (len(WA), len(WB)) array; each row is one measure's weights in X's point
    order. DomainError unless both are 2-D and X.size wide, and each row is a
    probability vector as `Measure` requires (no NaN, no weight below
    -TOL.weight_atol, a sum within TOL.weight_atol of 1).

    When X's distance matrix passes the cycle test (within TOL.metric_atol
    of the arc metric of its point order) the whole table is the
    weighted-median closed form in one numpy pass; a plan's cost moves by at
    most that tolerance between the two matrices, so each entry is within
    TOL.metric_atol of the network simplex value, up to rounding. Identical
    rows give exactly 0.0. Any other space gets `_w1_fill`.
    """
    WA, WB = np.asarray(WA, dtype=float), np.asarray(WB, dtype=float)
    for W in (WA, WB):
        if W.ndim != 2 or W.shape[1] != X.size:
            raise DomainError(f"weights must be a (measures, {X.size}) array, not shape {W.shape}")
        _check_weights(W)
    if not len(WA) or not len(WB):
        return np.zeros((len(WA), len(WB)))
    FB = np.cumsum(WB, axis=1)
    arcs = _cycle_arcs(X.dist)

    def block(WA):
        if arcs is None:
            return _w1_fill(WA[:, None, :], WB, X.dist)
        return _circle_w1(np.cumsum(WA, axis=1)[:, None, :] - FB, arcs)

    rows = max(1, 250_000 // (len(WB) * X.size))    # bounds the (rows, len(WB), n) temporaries
    return np.concatenate([block(WA[lo:lo + rows]) for lo in range(0, len(WA), rows)])


def _table_hausdorff(table: np.ndarray) -> float:
    """Hausdorff distance between the row set and the column set of a
    nonempty table of distances between them."""
    return float(max(table.min(axis=1).max(), table.min(axis=0).max()))


def w1_hausdorff(X: FiniteMetricSpace, WA, WB) -> float:
    """Hausdorff distance in (Prob(X), W1) between two finite sets of measures
    given as weight rows, read off one `w1_table`."""
    return _table_hausdorff(w1_table(X, WA, WB))


def wasserstein1_dual(mu: Measure, nu: Measure) -> tuple[float, Potential]:
    """Kantorovich dual value with a 1-Lipschitz witness, from the network simplex.

    The simplex moves only (mu - nu)+ to (mu - nu)-, as in `wasserstein1`.
    The witness is the c-transform f(x) = min_j (d(x, y_j) - v_j) of the
    optimal column potentials v over the sinks y_j of (mu - nu)-, taken on
    the whole space and shifted so that f[0] = 0. It is 1-Lipschitz, and the
    moved mass's primal cost a.u + b.v <= <f, mu - nu> <= W1, so the value
    is W1 up to rounding. The gap between the value and the primal cost is
    checked here and must stay within TOL.duality_gap. When nothing moves
    (mu - nu has no positive or no negative entry) the value is 0.0 and the
    witness is the zero potential.
    """
    cost, _, sinks, v = _w1_solve(mu, nu)
    return _w1_witness(mu, nu, cost, sinks, v)


def _w1_witness(mu: Measure, nu: Measure, cost, sinks, v) -> tuple[float, Potential]:
    """The dual value and witness of `wasserstein1_dual` from the cost,
    sinks and column potentials of `_w1_solve`, so that a caller that wants
    both the plan and the witness solves once."""
    X = mu.space
    if v is None:
        return 0.0, Potential(X, np.zeros(X.size))
    f = (X.dist[:, sinks] - v).min(axis=1)
    pot = Potential(X, f - f[0])
    value = pot.pairing(mu, nu)
    gap = abs(cost - value)
    if not gap <= TOL.duality_gap:    # negated, so a NaN gap fails too
        raise DomainError("duality gap is not a number" if math.isnan(gap)
                          else f"duality gap {gap:.3e} exceeds {TOL.duality_gap:.1e}")
    return value, pot


# ---------------------------------------------------------------------------
# infinity-Wasserstein by threshold search on the network simplex

def _hall_reach(mass, dst, M) -> np.ndarray:
    """Per row r of M: the least distance within which the weights `dst`
    hold mass[r], within TOL.feasibility_atol, or the row's largest distance
    when they never do. Orders the row by distance (stable) and sums `dst`
    along it."""
    order = np.argsort(M, axis=1, kind="stable")
    held = np.cumsum(dst[order], axis=1)
    k = np.minimum((held < mass[:, None] - TOL.feasibility_atol).sum(axis=1), M.shape[1] - 1)
    return np.take_along_axis(M, order, 1)[np.arange(len(mass)), k]


def _winf_bracket(a, b, D, cands, basis) -> tuple[int, int]:
    """Indices (lo, hi) into the sorted candidates `cands` that bracket the
    W-infinity threshold of weights a to weights b under D, found without a
    solve: every candidate below lo fails the feasibility rule of
    `wasserstein_inf`, and cands[hi] passes it.

    Ceiling: `basis`, the least-cost basis of (a, b) under D, is a plan (or
    DomainError: marginals inconsistent), so the largest distance on which it
    ships mass is feasible, and hi is the first candidate c with
    c + TOL.threshold_slack at or above it. Floor: at threshold c each source
    point must reach its mass, within TOL.feasibility_atol, in the columns
    within c + TOL.threshold_slack, and each sink point in the rows (Hall's
    condition on single points; Gale, Pacific J. Math. 1957). `_hall_reach`
    gives, per point, the least distance at which that holds; lo is the
    first candidate c with c + TOL.threshold_slack at or above the largest
    of these, and never above hi. `wasserstein_inf` lifts this floor after
    every infeasible probe, by the same rule on the sources of a minimum
    cut read off the probe's plan (`_cut_floor`)."""
    P = _plan(basis, len(a), len(b))
    try:
        _check_plan(P, a, b)
    except DomainError:
        raise DomainError("no feasible coupling: the least-cost start is no plan; "
                          "marginals inconsistent") from None
    reach = cands + TOL.threshold_slack
    hi = int(np.searchsorted(reach, D[P > 0].max()))
    need = max(_hall_reach(a, b, D).max(), _hall_reach(b, a, D.T).max())
    return min(int(np.searchsorted(reach, need)), hi), hi


def _min_cut_sources(P, far) -> np.ndarray:
    """The sources of a minimum cut, as a mask over the rows of the optimal
    plan P of an infeasible threshold probe whose arcs farther than the
    threshold are `far`.

    The set S is labelled as in Ford & Fulkerson's max-flow algorithm (Canad.
    J. Math. 1956): the sources that ship mass along a far arc, then every
    sink they reach along a near arc, then every source that sends mass to
    those sinks along a near arc, until nothing changes. At an optimum the
    near neighbours N(S) of S are the sinks so labelled and take all their
    mass from S, so a(S) - b(N(S)) is the mass P ships farther than the
    threshold: S violates Hall's condition by exactly that mass."""
    ship = P > 0
    near = ship & ~far
    S = (ship & far).any(axis=1)
    while True:
        grown = S | near[:, (~far[S]).any(axis=0)].any(axis=1)
        if np.array_equal(grown, S):
            return S
        S = grown


def _cut_floor(a, b, D, P, far) -> float:
    """A floor for the W-infinity value read off the optimal plan P of an
    infeasible threshold probe: the least distance at which the sources S of
    its minimum cut (`_min_cut_sources`) can place their mass. Merged into
    one source at its least distance to each sink, S must reach a(S) as a
    single point must in the floor of `_winf_bracket`, and `_hall_reach`
    gives the least distance at which it does."""
    S = _min_cut_sources(P, far)
    return _hall_reach(a[S].sum(keepdims=True), b, D[S].min(axis=0, keepdims=True))[0]


def wasserstein_inf(mu: Measure, nu: Measure) -> float:
    """Bottleneck transport distance: least threshold t such that a coupling
    supported on pairs with d <= t exists, among the distinct distances. At
    a candidate t the network simplex finds the least mass a coupling must
    move farther than t + TOL.threshold_slack, and t is feasible when that
    mass is at most TOL.feasibility_atol.

    The search starts from the bracket of `_winf_bracket`, which costs no
    solve: a floor below which a single point cannot place its mass, and a
    ceiling where the least-cost plan already ships everything. It probes
    the floor and then gallops up from it (floor + 1, + 3, + 7, ...), each
    probe capped at the midpoint of the bracket, and bisects once a probe is
    feasible, so a floor at or just below the value costs few solves. An
    infeasible probe's optimal plan gives a minimum cut, a set of sources
    whose near sinks cannot hold their mass (`_cut_floor`). The floor rises
    to the first candidate at which that set can place its mass; when that
    lies past the probe + 1, the gallop restarts there. The value is the
    least candidate that the rule calls feasible, as in a bisection over
    every candidate.

    Every threshold has the same marginals, so one basis is carried through
    the search: the first solve starts from the least-cost basis of the
    distances themselves (cheapest pairs first, ties in row-major order), and
    each later one from the optimal basis of the one before (the parametric
    reuse of Garfinkel & Rao, Naval Res. Logist. Q. 1971). Each solve still
    reaches an optimum, whose mass agrees with a fresh start's up to
    rounding, so the decisions and the value are those of a search that
    starts every threshold afresh."""
    X = _same_space(mu, nu)
    if np.array_equal(mu.weights, nu.weights):
        return 0.0
    sa, sb = mu.support, nu.support
    a, b = mu.weights[sa], nu.weights[sb]
    D = X.dist[np.ix_(sa, sb)]
    cands = np.unique(D)
    reach = cands + TOL.threshold_slack
    basis = _least_cost_basis(a, b, D)
    lo, hi = _winf_bracket(a, b, D, cands, basis)
    floor, step = lo, 1
    while lo < hi:
        mid = min(floor + step - 1, (lo + hi) // 2)
        far = D > reach[mid]
        beyond, P, _, _ = _transport_simplex(a, b, far.astype(float), basis=basis)
        if beyond <= TOL.feasibility_atol:
            hi = mid
            continue
        lift = min(int(np.searchsorted(reach, _cut_floor(a, b, D, P, far))), hi)
        if lift > mid + 1:
            lo = floor = lift
            step = 1
        else:
            lo = mid + 1
            step *= 2
    return float(cands[lo])


# ---------------------------------------------------------------------------
# pushforward, nets, mixtures

def pushforward(mu: Measure, h) -> Measure:
    """Weights summed over preimages of a total point map: a DynMap or an
    index array (DomainError unless it sends every point to a point)."""
    idx = _check_map(getattr(h, "idx", h), mu.space, mu.space)
    w = np.zeros(mu.space.size)
    np.add.at(w, idx, mu.weights)
    return Measure(mu.space, w)


@dataclass(frozen=True, eq=False)
class SimplexNet:
    """A 1/m grid net of the Bauer simplex Prob(boundary), coded by counts.

    Each row of `counts` is one measure's integer weights resolution * mu,
    so a row is nonnegative and sums to `resolution`. Every point mass is a
    row, so the net spans the whole simplex. `counts` is stored read-only,
    and `resolution` as an int by `config.as_positive_integer` (2.0 is 2).
    """

    boundary: FiniteMetricSpace
    resolution: int
    counts: np.ndarray
    density: float   # W1-density bound of the net inside Prob(boundary)

    def __post_init__(self):
        c = np.asarray(self.counts)
        n = self.boundary.size
        m = as_positive_integer(self.resolution, "resolution")
        if c.ndim != 2 or c.shape[1] != n or c.dtype.kind not in "iu":
            raise DomainError(f"counts must be an integer (measures, {n}) array, "
                              f"not {c.dtype} of shape {c.shape}")
        if c.min(initial=0) < 0 or (c.sum(axis=1) != m).any():
            raise DomainError(f"counts must be nonnegative rows that sum to the resolution {m}")
        missing = np.flatnonzero(~(c == m).any(axis=0))
        if missing.size:
            raise DomainError(f"net is missing the point mass at index {missing[0]}")
        c = c.astype(np.int64)      # a copy, so the caller's array cannot change it
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "resolution", m)


# most weight vectors convex_grid builds
_CONVEX_GRID_CAP = 200_000


def convex_grid(k: int, m: int) -> np.ndarray:
    """All convex weight vectors of length k with entries in multiples of 1/m,
    at most _CONVEX_GRID_CAP of them. Raises DomainError unless m is a
    positive integer (`config.as_positive_integer`: 2.0 is 2)."""
    m = as_positive_integer(m, "resolution m")
    count = math.comb(m + k - 1, k - 1)
    if count > _CONVEX_GRID_CAP:
        raise DomainError(
            f"grid would hold {count} weight vectors (> cap {_CONVEX_GRID_CAP}); "
            "use a coarser m or fewer points")
    # stars and bars: k - 1 bars among m + k - 1 slots, in lexicographic order,
    # give the parts (gaps between bars) in lexicographic order
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(m + k - 1), k - 1)), dtype=int, count=count * (k - 1))
    edges = np.column_stack([np.full(count, -1), bars.reshape(count, k - 1),
                             np.full(count, m + k - 1)])
    return (np.diff(edges, axis=1) - 1) / m


def prob_net(X: FiniteMetricSpace, m: int) -> SimplexNet:
    """The net of every measure on X with weights in multiples of 1/m, its
    rows in `convex_grid` order."""
    counts = np.rint(convex_grid(X.size, m) * m).astype(np.int64)
    return SimplexNet(X, m, counts, X.diameter * min(1.0, X.size / (2.0 * m)))


def mixture_rows(E: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The mixtures sum_k lam[:, k] * E[k] of the weight rows of E, one row
    per row of lam, each sum added in k order."""
    W = np.zeros((len(lam), E.shape[1]))
    for k, w in enumerate(E):
        W += lam[:, k, None] * w
    return W


def mix(measures, lambdas) -> Measure:
    """Pointwise convex combination of measures on one space."""
    lam = np.asarray(list(lambdas), dtype=float)
    if len(measures) != len(lam) or len(lam) == 0:
        raise DomainError("need one weight per measure")
    _check_weights(lam)
    X = _same_space(*measures)
    w = mixture_rows(np.array([mu.weights for mu in measures]), lam[None])[0]
    return Measure(X, w)
