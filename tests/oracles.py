"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the package's own algorithms: exhaustive
enumeration, closed forms, dense sampling, general-purpose SciPy solvers
(the HiGHS LP, strongly connected components), and the package's earlier
algorithms kept as references for their replacements.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def enumerate_integer_couplings(units_a, units_b):
    """All nonnegative integer matrices with the given row/column sums."""
    units_a = list(units_a)
    units_b = list(units_b)
    n, m = len(units_a), len(units_b)

    def rows(i, remaining_cols):
        if i == n:
            if all(c == 0 for c in remaining_cols):
                yield []
            return
        for row in compositions(units_a[i], remaining_cols):
            rest = [c - r for c, r in zip(remaining_cols, row)]
            for tail in rows(i + 1, rest):
                yield [row] + tail

    def compositions(total, caps):
        if len(caps) == 1:
            if total <= caps[0]:
                yield (total,)
            return
        for first in range(min(total, caps[0]) + 1):
            for rest in compositions(total - first, caps[1:]):
                yield (first,) + rest

    yield from rows(0, list(units_b))


def w1_exhaustive(wa, wb, D, denom: int) -> float:
    """Minimum transport cost by enumerating every coupling on a 1/denom grid."""
    ua = [round(w * denom) for w in wa]
    ub = [round(w * denom) for w in wb]
    assert sum(ua) == sum(ub) == denom
    best = math.inf
    for P in enumerate_integer_couplings(ua, ub):
        cost = sum(P[i][j] * D[i][j] for i in range(len(ua)) for j in range(len(ub)))
        best = min(best, cost / denom)
    return best


def winf_exhaustive(wa, wb, D, denom: int) -> float:
    """Least threshold t admitting a coupling supported on pairs with D <= t,
    checking feasibility by exhaustive coupling enumeration."""
    ua = [round(w * denom) for w in wa]
    ub = [round(w * denom) for w in wb]
    thresholds = sorted({D[i][j] for i in range(len(ua)) for j in range(len(ub))
                         if ua[i] > 0 and ub[j] > 0})
    for t in thresholds:
        for P in enumerate_integer_couplings(ua, ub):
            if all(P[i][j] == 0 or D[i][j] <= t + 1e-12
                   for i in range(len(ua)) for j in range(len(ub))):
                return t
    raise AssertionError("no feasible threshold found")


def w1_line(xs, wa, wb) -> float:
    """Closed-form W1 on the line: integral of |F_a - F_b|."""
    order = np.argsort(xs)
    xs = np.asarray(xs, dtype=float)[order]
    fa = np.cumsum(np.asarray(wa, dtype=float)[order])
    fb = np.cumsum(np.asarray(wb, dtype=float)[order])
    return float(np.sum(np.abs(fa[:-1] - fb[:-1]) * np.diff(xs)))


def circle_w1_atoms_loop(pos_a, w_a, pos_b, w_b, L: float) -> float:
    """Exact W1 between atomic measures on a circle of circumference L: the
    package's earlier scalar form, one masked sum per breakpoint, then the
    weighted median of the cumulative difference."""
    pos_a = np.asarray(pos_a, dtype=float) % L
    pos_b = np.asarray(pos_b, dtype=float) % L
    w_a = np.asarray(w_a, dtype=float)
    w_b = np.asarray(w_b, dtype=float)
    pts = np.unique(np.concatenate([pos_a, pos_b, [0.0, L]]))
    G = np.empty(len(pts) - 1)
    for k in range(len(pts) - 1):
        x = pts[k]
        G[k] = w_a[pos_a <= x + 1e-15].sum() - w_b[pos_b <= x + 1e-15].sum()
    lens = np.diff(pts)
    order = np.argsort(G)
    Gs, Ls = G[order], lens[order]
    cum = np.cumsum(Ls)
    alpha = Gs[np.searchsorted(cum, 0.5 * Ls.sum())]
    return float((lens * np.abs(G - alpha)).sum())


def circle_w1_left_to_right(G, arcs) -> np.ndarray:
    """`transport._circle_w1` in Python floats, one row of G at a time: alpha
    is the first value of the sorted row whose cumulative arc length, added
    in sorted order, reaches half the total, and the row's value is
    sum_k arcs[k] |G[k] - alpha| added strictly left to right."""
    arcs = [float(a) for a in arcs]
    out = []
    for row in np.atleast_2d(np.asarray(G, dtype=float)).tolist():
        order = sorted(range(len(row)), key=row.__getitem__)
        cum, total = [], 0.0
        for k in order:
            total += arcs[k]
            cum.append(total)
        alpha = row[order[sum(c < 0.5 * total for c in cum)]]
        value = 0.0
        for a, g in zip(arcs, row):
            value += a * abs(g - alpha)
        out.append(value)
    return np.array(out)


def hausdorff_brute(D, A, B) -> float:
    fwd = max(min(D[a][b] for b in B) for a in A)
    bwd = max(min(D[a][b] for a in A) for b in B)
    return max(fwd, bwd)


def lipnorm_from_state_metric(values, metric, atol: float = 1e-9) -> float:
    """Seminorm of a function on states read off a state metric: the largest
    |v_i - v_j| / d_ij over the pairs at distance above atol."""
    ratios = [abs(values[i] - values[j]) / metric[i][j]
              for i, j in itertools.combinations(range(len(values)), 2)
              if metric[i][j] > atol]
    if not ratios:
        raise ValueError("state metric is degenerate: no pair at positive distance")
    return float(max(ratios))


def covering_brute(D, eps: float) -> int:
    """Exhaustive minimum number of open eps-balls covering all points."""
    n = len(D)
    balls = [frozenset(j for j in range(n) if D[i][j] < eps) for i in range(n)]
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if frozenset().union(*(balls[c] for c in centers)) == frozenset(range(n)):
                return k
    raise AssertionError("unreachable")


def gh_exhaustive(DX, DY) -> float:
    """GH distance by exhausting pairs of maps (minimal correspondences)."""
    nx, ny = len(DX), len(DY)
    best = math.inf
    for phi in itertools.product(range(ny), repeat=nx):
        dphi = max(abs(DY[phi[x]][phi[y]] - DX[x][y]) for x in range(nx) for y in range(nx))
        for psi in itertools.product(range(nx), repeat=ny):
            dpsi = max(abs(DX[psi[u]][psi[v]] - DY[u][v]) for u in range(ny) for v in range(ny))
            cross = max(abs(DX[x][psi[u]] - DY[phi[x]][u]) for x in range(nx) for u in range(ny))
            best = min(best, max(dphi, dpsi, cross))
    return 0.5 * best


def birkhoff_curve_brute(idx, values, means, n_max: int):
    """Deviation curve by literal trajectory sums (nested loops): one running
    sum per (member, start), which step n extends by the value at h^(n-1)(x0),
    so each sum adds the same terms in the same order as a recomputation."""
    n_pts = len(idx)
    pos = list(range(n_pts))                # h^(n-1)(x0) for every start x0
    sums = [[0.0] * n_pts for _ in values]
    curve = []
    for n in range(1, n_max + 1):
        worst = 0.0
        for f, mean, s in zip(values, means, sums):
            for x0 in range(n_pts):
                s[x0] += f[pos[x0]]
                worst = max(worst, abs(s[x0] / n - mean))
        pos = [idx[x] for x in pos]
        curve.append(worst)
    return curve


def riemann_arc_length(slope_fn, a: float, b: float, n: int = 1_000_000) -> float:
    """Midpoint Riemann sum of sqrt(1 + slope^2) with n panels.

    slope_fn must accept numpy arrays.
    """
    xs = a + (np.arange(n) + 0.5) * (b - a) / n
    vals = np.sqrt(1.0 + np.asarray(slope_fn(xs)) ** 2)
    return float(vals.sum() * (b - a) / n)


def winf_hall(wa, wb, D) -> float:
    """Least feasible bottleneck threshold via the Gale-Hoffman condition:
    a coupling supported on pairs with D <= t exists iff every source subset
    S satisfies mass(S) <= mass(columns within t of S)."""
    rows = [i for i, w in enumerate(wa) if w > 0]
    cols = [j for j, w in enumerate(wb) if w > 0]
    thresholds = sorted({D[i][j] for i in rows for j in cols})

    def feasible(t):
        for mask in range(1, 1 << len(rows)):
            S = [rows[k] for k in range(len(rows)) if mask >> k & 1]
            nbhd = {j for j in cols if any(D[i][j] <= t + 1e-12 for i in S)}
            if sum(wa[i] for i in S) > sum(wb[j] for j in nbhd) + 1e-12:
                return False
        return True

    for t in thresholds:
        if feasible(t):
            return t
    raise AssertionError("no feasible threshold found")


def permutation_invariant_measures(idx):
    """Extreme invariant distributions of a permutation via its cycles,
    recomputed from the 0/1 transition matrix eigenproblem."""
    n = len(idx)
    P = np.zeros((n, n))
    P[np.arange(n), idx] = 1.0
    vals, vecs = np.linalg.eig(P.T)
    out = []
    for k in range(n):
        if abs(vals[k] - 1.0) < 1e-9:
            v = np.real(vecs[:, k])
            if abs(v.sum()) < 1e-12:
                continue
            v = v / v.sum()
            if v.min() > -1e-9:
                out.append(np.clip(v, 0, None))
    return out


def mcshane_project_rows(dist, values):
    """mcshane_project's earlier kernel: out[..., i] is the max over the last
    axis of values - dist[i], one point i at a time."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    for i, row in enumerate(dist):
        out[..., i] = (v - row).max(axis=-1)
    return out


def mcshane_project_scalar(dist, row):
    """One row's McShane projection by a scalar loop: out[i] is
    np.maximum(best, row[j] - dist[i, j]) taken over j in order, so a tie of
    -0.0 and +0.0 resolves as np.maximum resolves it."""
    out = []
    for i in range(len(dist)):
        best = np.float64(row[0] - dist[i][0])
        for j in range(1, len(dist)):
            best = np.maximum(best, np.float64(row[j] - dist[i][j]))
        out.append(best)
    return np.array(out)


def lipschitz_excess_full(values, dist) -> float:
    """max of |f(x) - f(y)| - d(x, y) over the full (rows, n, n) array of
    ordered point pairs, the diagonal included."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    return float((np.abs(v[:, :, None] - v[:, None, :]) - dist).max())


def triangle_violations_cube(D, atol):
    """check_metric's earlier triangle test on the full (n, n, n) cube: the
    first 64 triples (i, j, k) with D[i,k] > D[i,j] + D[j,k] + atol, each as
    (indices, detail)."""
    D = np.asarray(D, dtype=float)
    bad = np.argwhere(D[:, None, :] > D[:, :, None] + D[None, :, :] + atol)
    return [((int(i), int(j), int(k)),
             f"triangle violation ({i},{j},{k}): "
             f"d({i},{k})={D[i, k]!r} > {D[i, j]!r}+{D[j, k]!r}")
            for i, j, k in bad[:64]]


def density_per_probe(members, probes) -> float:
    """nucleus_net's earlier fallback density: for each probe in turn, the
    sup distance to its nearest member; the worst of them (0.0 with no
    probe)."""
    worst = 0.0
    for p in probes:
        worst = max(worst, float(np.abs(members - p[None, :]).max(axis=1).min()))
    return worst


def sup_hausdorff_chunked(A, B) -> float:
    """nucleus_field's earlier sup-norm Hausdorff distance between two row
    sets: each direction in chunks of rows of a full (chunk, rows, n)
    difference array."""
    def one_sided(P, Q):
        worst = 0.0
        chunk = max(1, 2_000_000 // max(1, Q.shape[0] * Q.shape[1]))
        for lo in range(0, P.shape[0], chunk):
            seg = np.abs(P[lo:lo + chunk, None, :] - Q[None, :, :]).max(axis=2).min(axis=1)
            worst = max(worst, float(seg.max()))
        return worst

    return max(one_sided(A, B), one_sided(B, A))


def unique_rows_np(x):
    """nucleus_net's earlier dedupe: numpy's unique rows (a structured-dtype
    sort) of x rounded to 12 decimals."""
    return np.unique(np.round(x, 12), axis=0)


def unique_rows_lexsort(x):
    """The complete nucleus's earlier dedupe: a stable float lexsort of x
    rounded to 12 decimals, keeping a row when it differs from the one
    before (so of rows equal up to the sign of a zero, the first stays)."""
    x = np.round(x, 12)
    x = x[np.lexsort(x.T[::-1])]
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = (x[1:] != x[:-1]).any(axis=1)
    return x[keep]


def _grid_extensions(D, grid, slack, tol, vals, pos):
    """Grid values g with |g - vals[j]| <= D[pos][j] + slack (up to tol) for
    every j < pos."""
    lo, hi = -math.inf, math.inf
    for j in range(pos):
        lo = max(lo, vals[j] - D[pos][j] - slack)
        hi = min(hi, vals[j] + D[pos][j] + slack)
    return [g for g in grid if lo - tol <= g <= hi + tol]


def grid_members_dfs(D, grid, slack, cap, tol=1e-12):
    """Depth-first enumeration of grid functions with |v_i - v_j| <= d_ij +
    slack pairwise (up to tol), in lexicographic order of grid index, or
    None once more than cap complete members exist."""
    n = len(D)
    out = []
    vals = [0.0] * n

    def rec(pos):
        if pos == n:
            out.append(list(vals))
            return len(out) <= cap
        for g in _grid_extensions(D, grid, slack, tol, vals, pos):
            vals[pos] = g
            if not rec(pos + 1):
                return False
        return True

    return np.asarray(out, dtype=float).reshape(len(out), n) if rec(0) else None


def grid_dead_prefixes(D, grid, slack, tol=1e-12):
    """Number of admissible prefixes of grid_members_dfs that no grid value
    extends to the next point."""
    n = len(D)
    vals = [0.0] * n

    def rec(pos):
        if pos == n:
            return 0
        ext = _grid_extensions(D, grid, slack, tol, vals, pos)
        dead = 0 if ext else 1
        for g in ext:
            vals[pos] = g
            dead += rec(pos + 1)
        return dead

    return rec(0)


def ldp_probabilities_scalar(maps_table, probabilities, values, mean, starts,
                             eps, n_values, trials, seed):
    """Exceedance fractions of the LDP experiment, computed the slow way: one
    scalar splitmix64 draw per (trial, step), and |seg / n - mean| over every
    (trial, start, member) before the max. `maps_table` is (maps, points),
    `values` the nucleus members (members, points), `mean` their stationary
    means and `starts` the start points."""
    from metriclab.rng import SplitMix64, derive_seed

    cum_p = np.cumsum(probabilities)
    n_max = max(n_values)
    choices = np.empty((trials, n_max), dtype=np.int64)
    for t in range(trials):
        rng = SplitMix64(derive_seed(seed, t))
        for k in range(n_max):
            choices[t, k] = np.searchsorted(cum_p, rng.uniform(), side="right")
    choices = np.minimum(choices, len(maps_table) - 1)

    S, N = len(starts), maps_table.shape[1]
    pos = np.tile(np.asarray(starts)[None, :], (trials, 1))
    counts = np.zeros((trials, S, N))
    t_rows, s_cols = np.arange(trials)[:, None], np.arange(S)[None, :]
    block = max(1, 2_000_000 // max(1, S * len(values)))
    hit = {}
    for k in range(n_max):
        counts[t_rows, s_cols, pos] += 1.0
        pos = maps_table[choices[:, k][:, None], pos]
        n = k + 1
        if n in n_values:
            flat = counts.reshape(trials * S, N)
            dev = np.empty(trials)
            for lo in range(0, trials, block):
                hi = min(trials, lo + block)
                seg = np.abs(flat[lo * S:hi * S] @ values.T / n - mean[None, :])
                dev[lo:hi] = seg.reshape(hi - lo, S, -1).max(axis=(1, 2))
            hit[n] = dev > eps
    return tuple(float(hit[n].mean()) for n in sorted(n_values))


def northwest_corner(a, b) -> dict[tuple[int, int], float]:
    """The northwest-corner basis of (a, b): a staircase of n + m - 1 arcs
    from (0, 0) to (n-1, m-1), as a flow dict keyed by (row, column). The
    cost-blind start of `transport_simplex_rebuild`, and a basis to hand
    `transport._transport_simplex` for the same pivots."""
    n, m = len(a), len(b)
    ra, rb = a.copy(), b.copy()
    flow: dict[tuple[int, int], float] = {}
    i = j = 0
    while True:
        q = min(ra[i], rb[j])
        flow[(i, j)] = q
        ra[i] -= q
        rb[j] -= q
        if i == n - 1 and j == m - 1:
            return flow
        if ra[i] <= 0 and i < n - 1:
            i += 1
        elif j < m - 1:
            j += 1
        else:
            i += 1


def transport_simplex_rebuild(a, b, C, opt_tol=1e-11, max_pivots=None):
    """min <C, P> s.t. P 1 = a, P^T 1 = b, P >= 0 with a, b > 0 summing alike,
    by the network simplex that rebuilds its basis tree at every pivot.

    The reference for `transport._transport_simplex` handed the basis
    `northwest_corner(a, b)`: the same start and pivot rules, but the
    adjacency lists, all potentials (a walk from row 0) and the entering
    arc's cycle (a path search) are found from scratch at every pivot, from a
    plain list of basic arcs.

    Northwest-corner start, MODI pivoting (most-negative entering arc, first
    index on ties) with a Bland's-rule fallback against degenerate cycling.
    Returns (cost, P, u, v) with (u, v) the optimal node potentials.
    """
    n, m = len(a), len(b)
    flow = northwest_corner(a, b)
    basis = list(flow)

    if max_pivots is None:
        max_pivots = 200 + 60 * (n + m) ** 2
    bland_after = 100 + 20 * (n + m) ** 2

    adj: dict[int, list[int]] = {k: [] for k in range(n + m)}

    def rebuild_adj():
        for k in adj:
            adj[k].clear()
        for (bi, bj) in basis:
            adj[bi].append(n + bj)
            adj[n + bj].append(bi)

    u = np.zeros(n)
    v = np.zeros(m)

    def recompute_potentials():
        seen = [False] * (n + m)
        stack = [0]
        seen[0] = True
        u[0] = 0.0
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if not seen[nb]:
                    seen[nb] = True
                    if node < n:
                        v[nb - n] = C[node, nb - n] - u[node]
                    else:
                        u[nb] = C[nb, node - n] - v[node - n]
                    stack.append(nb)
        if not all(seen):
            raise RuntimeError("basis tree is disconnected")

    def tree_path(src: int, dst: int) -> list[int]:
        parent = {src: -1}
        stack = [src]
        while stack:
            node = stack.pop()
            if node == dst:
                break
            for nb in adj[node]:
                if nb not in parent:
                    parent[nb] = node
                    stack.append(nb)
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    pivots = 0
    while True:
        rebuild_adj()
        recompute_potentials()
        R = C - u[:, None] - v[None, :]
        if pivots < bland_after:
            k = int(np.argmin(R))
            if R.flat[k] >= -opt_tol:
                break
            ei, ej = divmod(k, m)
        else:
            cand = np.argwhere(R < -opt_tol)
            if len(cand) == 0:
                break
            ei, ej = (int(cand[0][0]), int(cand[0][1]))
        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError("network simplex exceeded its pivot budget")

        path = tree_path(ei, n + ej)
        arcs = []
        for t in range(len(path) - 1):
            x, y = path[t], path[t + 1]
            arc = (x, y - n) if x < n else (y, x - n)
            arcs.append(arc)
        # entering arc takes +theta; path arcs alternate -,+,- from the source end
        minus = arcs[0::2]
        theta = min(flow[arc] for arc in minus)
        leave = min((arc for arc in minus if flow[arc] <= theta), key=lambda arc: arc)
        for t, arc in enumerate(arcs):
            flow[arc] += theta if t % 2 else -theta
            if flow[arc] < 0:
                flow[arc] = 0.0
        flow[(ei, ej)] = flow.get((ei, ej), 0.0) + theta
        basis.remove(leave)
        basis.append((ei, ej))
        del flow[leave]

    P = np.zeros((n, m))
    for (bi, bj), q in flow.items():
        P[bi, bj] = q
    cost = float((P * C).sum())
    return cost, P, u.copy(), v.copy()


def winf_cold_search(mu, nu) -> float:
    """W-infinity by the plain threshold search: a bisection over every
    distinct distance, first checking that the largest is feasible, with a
    fresh northwest-corner start at every threshold and the feasibility rule
    of `transport.wasserstein_inf`. The reference for that search, which
    brackets the candidates before it solves (a single-point floor, the
    least-cost plan as ceiling), gallops up from the floor and carries one
    basis from threshold to threshold."""
    from metriclab.config import TOL
    from metriclab.transport import _transport_simplex

    if np.array_equal(mu.weights, nu.weights):
        return 0.0
    sa, sb = mu.support, nu.support
    a, b = mu.weights[sa], nu.weights[sb]
    D = mu.space.dist[np.ix_(sa, sb)]
    cands = np.unique(D)

    def feasible(t):
        beyond = (D > t + TOL.threshold_slack).astype(float)
        cost = _transport_simplex(a, b, beyond, basis=northwest_corner(a, b))[0]
        return cost <= TOL.feasibility_atol

    lo, hi = 0, len(cands) - 1
    assert feasible(cands[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(cands[lo])


def w1_dual_lp(D, wa, wb):
    """Kantorovich dual of W1 between weights wa and wb on the metric D, by
    an independent HiGHS LP over 1-Lipschitz potentials anchored at f_0 = 0,
    then McShane regularisation of the solver's potential.

    Returns (value, f)."""
    D = np.asarray(D, dtype=float)
    n = len(D)
    # maximize (wa - wb) . f  s.t.  f_i - f_j <= d_ij ; fix f_0 = 0
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    A = np.zeros((len(pairs), n))
    ub = np.empty(len(pairs))
    for row, (i, j) in enumerate(pairs):
        A[row, i] = 1.0
        A[row, j] = -1.0
        ub[row] = D[i, j]
    bounds = [(0.0, 0.0)] + [(None, None)] * (n - 1)
    res = linprog(np.asarray(wb) - np.asarray(wa), A_ub=A, b_ub=ub, bounds=bounds,
                  method="highs")
    if not res.success:
        raise RuntimeError(f"dual LP failed: {res.message}")
    f = np.asarray(res.x, dtype=float)
    # McShane regularisation absorbs solver-level Lipschitz slack
    f = (f[None, :] - D).max(axis=1)
    return -float(res.fun), f


def stationary_measures_scc(P, atol=1e-12):
    """Extreme invariant weight vectors of the row-stochastic matrix P, one
    per recurrent class, by strongly connected components of the transitions
    above atol: a class is recurrent when no such transition leaves it.
    Classes come in order of their least point, and each is solved by the
    same linear system as `markov.stationary_measures`."""
    n = len(P)
    adj = csr_matrix(P > atol)
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    leaves = np.zeros(n_comp, dtype=bool)
    rows, cols = np.nonzero(P > atol)
    for r, c in zip(rows, cols):
        if labels[r] != labels[c]:
            leaves[labels[r]] = True
    out = []
    order = sorted(range(n_comp), key=lambda c: int(np.flatnonzero(labels == c)[0]))
    for comp in order:
        if leaves[comp]:
            continue
        idx = np.flatnonzero(labels == comp)
        Q = P[np.ix_(idx, idx)]
        A = (Q.T - np.eye(len(idx)))
        A[-1, :] = 1.0
        b = np.zeros(len(idx))
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
        pi = np.clip(pi, 0.0, None)
        pi /= pi.sum()
        w = np.zeros(n)
        w[idx] = pi
        out.append(w)
    return out


def enumerate_maps_loop(blocks, cost, chunk=1 << 14):
    """(value, witness) of `distances.search_maps` inside its budget, by
    scoring every map, or every pair of maps, in lexicographic order.

    The reference for the pruned `distances._enumerate`: each block's maps
    are all tuples of range(n_to) in `itertools.product` order, and the
    first pair reaching the least cost wins."""
    maps = [np.asarray(list(itertools.product(range(n_to), repeat=n_from)), dtype=np.int64)
            for n_from, n_to in blocks]
    unary = [np.concatenate([u(M[s:s + chunk]) for s in range(0, len(M), chunk)])
             for u, M in zip(cost.unary, maps)]
    if len(maps) == 1:
        k = int(np.argmin(unary[0]))
        return float(unary[0][k]), (tuple(maps[0][k].tolist()),)
    F, G = maps
    best, arg = math.inf, (0, 0)
    rows = max(1, chunk // len(G))
    for s in range(0, len(F), rows):
        vals = np.maximum(cost.cross(F[s:s + rows], G),
                          np.maximum(unary[0][s:s + rows, None], unary[1][None, :]))
        k = int(np.argmin(vals))
        if vals.flat[k] < best:
            best = float(vals.flat[k])
            i, j = divmod(k, len(G))
            arg = (s + i, j)
    return best, (tuple(F[arg[0]].tolist()), tuple(G[arg[1]].tolist()))


def egh_cost_direct(maps1, maps2, require_isometry, F):
    """egh cost of each map (row of F) from maps1's space to maps2's, as one
    formula: max of the density term, the equivariance term (a max started
    from 0) plus the projection pad and, with require_isometry, the
    distortion over every ordered pair of points."""
    D1, D2 = maps1[0].space.dist, maps2[0].space.dist
    proj_pad = max(m.projection_error for m in list(maps1) + list(maps2))
    dens = D2[F].min(axis=1).max(axis=1)
    eq = np.zeros(len(F))
    for a1, a2 in zip(maps1, maps2):
        eq = np.maximum(eq, D2[a2.idx[F], F[:, a1.idx]].max(axis=1))
    val = np.maximum(dens, eq + proj_pad)
    if require_isometry:
        dis = np.abs(D2[F[:, :, None], F[:, None, :]] - D1).max(axis=(1, 2))
        val = np.maximum(val, dis)
    return val


def barycentric_circle_kernel_loop(X, fn) -> np.ndarray:
    """Row-stochastic kernel of an analytic circle map on a circle net, point
    by point: each image's mass splits linearly between its two neighbouring
    net points, and an image within 1e-9 of a mesh fraction of a net point
    stays a point mass there. The package's earlier per-point form."""
    from metriclab.config import TOL
    L = X.meta["circumference"]
    n = X.size
    mesh = L / n
    K = np.zeros((n, n))
    for i, x in enumerate(X.meta["coords"]):
        pos = (fn(x) % L) / mesh
        j = int(math.floor(pos))
        frac = pos - j
        if frac < TOL.mesh_snap:
            frac = 0.0
        elif frac > 1.0 - TOL.mesh_snap:
            j += 1
            frac = 0.0
        K[i, j % n] += 1.0 - frac
        if frac:
            K[i, (j + 1) % n] += frac
    return K


def circle_cdfs(pos, W, L: float):
    """Breakpoint arcs of atoms on a circle of circumference L, and for each
    row of the weights W (aligned with pos) the mass on [0, x] at every
    breakpoint x before L; an atom within 1e-15 past a breakpoint counts as
    reached there. The package's earlier atom-table helper."""
    from metriclab.config import TOL
    pos = np.asarray(pos, dtype=float) % L
    pts = np.unique(np.concatenate([pos, [0.0, L]]))
    order = np.argsort(pos, kind="stable")
    reached = np.searchsorted(pos[order], pts[:-1] + TOL.atom_slack, side="right")
    F = np.cumsum(np.asarray(W, dtype=float)[..., order], axis=-1)
    F = np.concatenate([np.zeros(F.shape[:-1] + (1,)), F], axis=-1)
    return np.diff(pts), F[..., reached]


def rotation_gamma_atoms(p: int, q: int, t_grid, net_size: int, resolution: int) -> np.ndarray:
    """`fields.rotation_field`'s gamma table by the package's earlier route:
    each fibre moves every orbit's atoms analytically, places them with
    `circle_cdfs` and tables W1 between all pairs of 1/m mixtures."""
    from metriclab import circle_net, invariant_measures, rotation, sine_pluck
    from metriclab.transport import _circle_w1, convex_grid
    X = circle_net(net_size, math.pi)
    base = invariant_measures(rotation(X, net_size * p // q)).extremes
    base_pos = [np.asarray(X.meta["coords"])[mu.support] for mu in base]
    lam_grid = convex_grid(len(base), resolution)
    orbit_size = len(base_pos[0])
    weights = np.repeat(lam_grid / orbit_size, orbit_size, axis=1)
    iu = np.triu_indices(len(lam_grid), k=1)
    tables = []
    for t in t_grid:
        g = sine_pluck(float(t))
        arcs, F = circle_cdfs([g(x) for pos in base_pos for x in pos], weights, math.pi)
        tab = np.zeros((len(lam_grid), len(lam_grid)))
        tab[iu] = tab[iu[::-1]] = _circle_w1(F[iu[0]] - F[iu[1]], arcs)
        tables.append(tab)
    T = len(tables)
    gamma = np.zeros((T, T))
    for s in range(T):
        for t in range(s + 1, T):
            gamma[s, t] = gamma[t, s] = float(np.abs(tables[s] - tables[t]).max())
    return gamma


def project_circle_map_loop(X, fn):
    """(indices, projection error) of the nearest-point projection of an
    analytic circle map, point by point: `round` halves to even, and an image
    within 1e-15 of a tie goes to the lower index. The package's earlier
    scalar form of `dynamics.project_circle_map`."""
    from metriclab.config import TOL
    L = X.meta["circumference"]
    n = X.size
    mesh = L / n
    coords = np.asarray(X.meta["coords"])
    err = 0.0
    idx = np.empty(n, dtype=int)
    for i, x in enumerate(coords):
        y = fn(x) % L
        j = int(round(y / mesh)) % n
        wrap = min(abs(y - coords[j]), L - abs(y - coords[j]))
        alt = (j - 1) % n
        wrap_alt = min(abs(y - coords[alt]), L - abs(y - coords[alt]))
        if abs(wrap_alt - wrap) <= TOL.projection_tie and alt < j:
            j = alt
            wrap = wrap_alt
        idx[i] = j
        err = max(err, wrap)
    return idx, err


def net_measures(S):
    """A `SimplexNet`'s rows decoded as `Measure`s, counts / resolution: the
    package's earlier `SimplexNet.measures`."""
    from metriclab.transport import Measure
    return tuple(Measure(S.boundary, w) for w in S.counts / S.resolution)


def measure_mixtures_loop(measures, m: int):
    """All 1/m-grid convex combinations of the given measures, each summed
    term by term in order: the package's earlier `dynamics.measure_mixtures`
    over its earlier `transport.mix`."""
    from metriclab.transport import Measure, convex_grid
    return [Measure(measures[0].space, sum(l * mu.weights for l, mu in zip(lam, measures)))
            for lam in convex_grid(len(measures), m)]


def w1_table_measures(A, B) -> np.ndarray:
    """The package's earlier `transport.w1_table` over two lists of measures
    on one space: the closed form on cycle metrics, `_w1_fill` elsewhere."""
    from metriclab.transport import _circle_w1, _cycle_arcs, _same_space, _w1_fill
    A, B = list(A), list(B)
    if not A or not B:
        return np.zeros((len(A), len(B)))
    for mu in A + B:
        X = _same_space(A[0], mu)
    WA = np.array([mu.weights for mu in A])
    WB = np.array([nu.weights for nu in B])
    FB = np.cumsum(WB, axis=1)
    arcs = _cycle_arcs(X.dist)

    def block(WA):
        if arcs is None:
            return _w1_fill(WA[:, None, :], WB, X.dist)
        return _circle_w1(np.cumsum(WA, axis=1)[:, None, :] - FB, arcs)

    rows = max(1, 250_000 // (len(B) * X.size))     # bounds the (rows, len(B), n) temporaries
    return np.concatenate([block(WA[lo:lo + rows]) for lo in range(0, len(A), rows)])


def w1_hausdorff_measures(A, B) -> float:
    """The package's earlier `transport.w1_hausdorff`, over `w1_table_measures`."""
    table = w1_table_measures(A, B)
    return float(max(table.min(axis=1).max(), table.min(axis=0).max()))


def invariant_simplex_hausdorff_loop(h1, h2, m: int = 2) -> float:
    """The package's earlier `dynamics.invariant_simplex_hausdorff`: Measure
    lists of mixtures and `w1_hausdorff_measures`."""
    from metriclab import invariant_measures
    A = measure_mixtures_loop(invariant_measures(h1).extremes, m)
    B = measure_mixtures_loop(invariant_measures(h2).extremes, m)
    return w1_hausdorff_measures(A, B)


def crossed_product_seminorm_loop(a0, h, resolution: int = 4) -> float:
    """The package's earlier `dynamics.crossed_product_seminorm`: one
    `wasserstein1` call per pair of mixtures."""
    from metriclab import invariant_measures, lipschitz_seminorm, wasserstein1
    from metriclab.config import TOL
    simplex = invariant_measures(h)
    net = measure_mixtures_loop(simplex.extremes, resolution)
    if simplex.uniquely_ergodic:
        return lipschitz_seminorm(a0)
    vals = np.asarray([mu.integrate(a0.values) for mu in net])
    best = 0.0
    for i, j in itertools.combinations(range(len(net)), 2):
        d = wasserstein1(net[i], net[j])[0]
        if d > TOL.metric_atol:
            best = max(best, abs(vals[i] - vals[j]) / d)
    return float(best)


def wasserstein1_full_support(mu, nu):
    """The package's earlier `transport.wasserstein1`: the simplex from the
    whole support of mu to the whole support of nu."""
    from metriclab.transport import Coupling, _same_space, _transport_simplex
    X = _same_space(mu, nu)
    if np.array_equal(mu.weights, nu.weights):
        return 0.0, Coupling(mu, nu, np.diag(mu.weights))
    sa, sb = mu.support, nu.support
    cost, P, _, _ = _transport_simplex(mu.weights[sa], nu.weights[sb], X.dist[sa[:, None], sb])
    full = np.zeros((X.size, X.size))
    full[sa[:, None], sb] = P
    return cost, Coupling(mu, nu, full)


def wasserstein1_dual_full_support(mu, nu):
    """The package's earlier `transport.wasserstein1_dual`: the c-transform of
    the column potentials of the simplex from the whole support of mu to the
    whole support of nu, with its duality-gap check."""
    from metriclab.config import TOL, DomainError
    from metriclab.transport import Potential, _same_space, _transport_simplex
    X = _same_space(mu, nu)
    if np.array_equal(mu.weights, nu.weights):
        return 0.0, Potential(X, np.zeros(X.size))
    sa, sb = mu.support, nu.support
    cost, _, _, v = _transport_simplex(mu.weights[sa], nu.weights[sb],
                                       X.dist[np.ix_(sa, sb)])
    f = (X.dist[:, sb] - v).min(axis=1)
    pot = Potential(X, f - f[0])
    value = pot.pairing(mu, nu)
    gap = abs(cost - value)
    if not gap <= TOL.duality_gap:    # negated, so a NaN gap fails too
        raise DomainError("duality gap is not a number" if math.isnan(gap)
                          else f"duality gap {gap:.3e} exceeds {TOL.duality_gap:.1e}")
    return value, pot
