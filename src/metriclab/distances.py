"""Distances between metric spaces and between simplices of measures.

Affine maps between simplices are represented by boundary point maps
extended by pushforward. Every distance here is a least cost over one or
two boundary maps, found by `search_maps`: exhaustive inside an explicit
budget, otherwise a flagged upper bound from deterministic local search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import TOL, DomainError
from .spaces import FiniteMetricSpace, _check_map, _map_distortion, bridge_metric
from .transport import SimplexNet, _w1_fill, prob_net, w1_hausdorff


@dataclass(frozen=True)
class SearchBudget:
    max_map_pairs: int = 300_000
    local_steps: int = 200


# anchor points of X and of Y whose distance profiles seed the GH descent
_GH_ANCHORS = 3


# the one grid-net builder, under the name the searches' callers use
simplex_net = prob_net


@dataclass
class AlmostIsometryReport:
    forward: tuple
    backward: tuple | None
    distortion: float
    inversion_defect: float
    density_defect: float
    boundary_distortion: float
    exhaustive: bool = True


# ---------------------------------------------------------------------------
# the map search shared by every distance below

@dataclass(frozen=True)
class MapCost:
    """Cost of boundary maps given as rows of integer arrays, one array per
    block: the max of each block's unary term and, for two blocks, of a
    cross term over every pair of rows.

    `partial`, optional and read by one-block searches, gives per block a
    hook (P, k) -> (N,): P holds partial maps as rows whose columns are the
    values of points 0..k, and the hook returns, per row, the max of the
    cost terms that point k adds (-inf when it adds none). Each such term
    must be one of the exact floats the unary term takes a max over once
    the map is complete, so the running max over k never exceeds the unary
    cost of any completion."""

    unary: tuple                      # per block: (N, n_from) -> (N,)
    cross: Callable | None = None     # (N1, n_from1), (N2, n_from2) -> (N1, N2)
    partial: tuple | None = None      # per block: (N, k + 1), k -> (N,)


# rows of maps, or pairs of rows, scored in one vectorised call
_CHUNK = 1 << 14
# the cheapest rows and columns by unary cost whose pairs give the first
# bound; also the width of the one-block beam
_PROBE = 8


def _rows(fn, M: np.ndarray) -> np.ndarray:
    """fn over the rows of M, _CHUNK rows per call."""
    return np.concatenate([fn(M[s:s + _CHUNK]) for s in range(0, len(M), _CHUNK)])


def _extend(P: np.ndarray, n_to: int) -> np.ndarray:
    """Every row of P followed by each value of range(n_to); rows of P in
    lexicographic order give rows in lexicographic order."""
    return np.column_stack([np.repeat(P, n_to, axis=0),
                            np.tile(np.arange(n_to, dtype=np.int64), len(P))])


def _all_maps(n_from: int, n_to: int) -> np.ndarray:
    """Every map of range(n_from) into range(n_to), in `itertools.product` order."""
    return np.indices((n_to,) * n_from, dtype=np.int64).reshape(n_from, -1).T


def search_maps(blocks, cost: MapCost, budget: SearchBudget, seeds):
    """Least cost over one or two boundary maps, block k mapping range(n_from)
    into range(n_to) for blocks[k] = (n_from, n_to).

    While the number of map tuples fits `budget.max_map_pairs`, the first
    minimum in lexicographic order is returned. One block with a `partial`
    hook is grown point by point: a beam of the `_PROBE` partial maps of
    least bound per point gives a first full cost, and only partial maps
    whose running bound stays within it are grown further. Without a hook
    every map is scored. With two blocks the cross term is scored only on
    pairs whose unary terms both stay within the least cost seen so far.
    Every minimiser survives either pruning, so value and witness are those
    of scoring every map or pair. This needs the unary term of a row to
    depend on that row alone, and cross(F, G)[i, j] on F[i] and G[j] alone.
    Otherwise coordinate descent runs from each seed (one map per block),
    and for one block with a hook also from the beam's map: a sweep moves
    every coordinate of every block, in order, to its best value when that
    lowers the cost by more than `TOL.descent_step`, and the descent stops
    after a sweep without a move or after `budget.local_steps` sweeps.
    Returns (value, witness: one tuple per block, exhaustive).
    """
    if math.prod(n_to ** n_from for n_from, n_to in blocks) <= budget.max_map_pairs:
        return (*_enumerate(blocks, cost), True)
    if cost.partial is not None and len(blocks) == 1:
        seeds = [*seeds, (_beam(*blocks[0], cost)[1],)]
    best = (math.inf, None)
    for seed in seeds:
        found = _descend(blocks, cost, seed, budget.local_steps)
        if found[0] < best[0]:
            best = found
    return (*best, False)


def _grow(n_from: int, n_to: int, partial, select) -> np.ndarray:
    """Full maps grown point by point from the empty map, keeping after each
    point the partial maps `select(running bound)` picks."""
    P, bound = np.zeros((1, 0), dtype=np.int64), np.full(1, -np.inf)
    for k in range(n_from):
        P = _extend(P, n_to)
        bound = np.maximum(np.repeat(bound, n_to), _rows(lambda Q: partial(Q, k), P))
        keep = select(bound)
        P, bound = P[keep], bound[keep]
    return P


def _beam(n_from: int, n_to: int, cost: MapCost):
    """(unary cost, map) of the first cheapest full map of a beam that keeps,
    after each point, the `_PROBE` partial maps of least running bound (ties
    to the earlier row)."""
    P = _grow(n_from, n_to, cost.partial[0], lambda b: np.argsort(b, kind="stable")[:_PROBE])
    u = cost.unary[0](P)
    i = int(np.argmin(u))
    return float(u[i]), P[i]


def _enumerate(blocks, cost: MapCost):
    if len(blocks) == 1:
        if cost.partial is None:
            M = _all_maps(*blocks[0])
        else:
            # a map costs at least its running bound, so every map of least
            # cost stays within the beam's cost, and the mask keeps order
            incumbent = _beam(*blocks[0], cost)[0]
            M = _grow(*blocks[0], cost.partial[0], lambda b: b <= incumbent)
        u = _rows(cost.unary[0], M)
        k = int(np.argmin(u))
        return float(u[k]), (tuple(M[k].tolist()),)
    maps = [_all_maps(*b) for b in blocks]
    u0, u1 = (_rows(u, M) for u, M in zip(cost.unary, maps))
    F, G = maps

    def score(r, c):
        return np.maximum(cost.cross(F[r], G[c]), np.maximum(u0[r, None], u1[None, c]))

    # A pair costs at least max(u0[i], u1[j]), so rows and columns whose unary
    # term exceeds a cost already seen hold no minimiser. Rows go in order of
    # increasing u0, in chunks that double up to _CHUNK pairs, and both sets
    # shrink as the bound falls.
    rows, cols = np.argsort(u0, kind="stable"), np.argsort(u1, kind="stable")
    bound = float(score(rows[:_PROBE], cols[:_PROBE]).min())
    best, arg = math.inf, None          # arg: flat index i * len(G) + j
    done = 0
    while True:
        rows = rows[:np.searchsorted(u0[rows], bound, side="right")]
        cols = cols[u1[cols] <= bound]
        if done >= len(rows):
            break
        r = rows[done:done + max(1, min(_CHUNK // len(cols), _PROBE + done))]
        done += len(r)
        vals = score(r, cols)
        low = float(vals.min())
        ii, jj = np.nonzero(vals == low)
        k = int((r[ii] * len(G) + cols[jj]).min())
        if arg is None or (low, k) < (best, arg):
            best, arg = low, k
            bound = min(bound, best)
    i, j = divmod(arg, len(G))
    return best, (tuple(F[i].tolist()), tuple(G[j].tolist()))


def _descend(blocks, cost: MapCost, seed, steps: int):
    maps = [np.array(f, dtype=np.int64) for f in seed]
    unary = [float(u(f[None])[0]) for u, f in zip(cost.unary, maps)]

    def score(k, rows):
        """(unary term, cost) of candidate rows for block k, the others fixed."""
        u = cost.unary[k](rows)
        if len(maps) == 1:
            return u, u
        other = maps[1 - k][None]
        cross = cost.cross(rows, other)[:, 0] if k == 0 else cost.cross(other, rows)[0]
        return u, np.maximum(np.maximum(u, unary[1 - k]), cross)

    value = float(score(0, maps[0][None])[1][0])
    for _ in range(steps):
        improved = False
        for k, (n_from, n_to) in enumerate(blocks):
            for x in range(n_from):
                rows = np.repeat(maps[k][None], n_to, axis=0)
                rows[:, x] = np.arange(n_to)
                u, vals = score(k, rows)
                y = int(np.argmin(vals))
                if vals[y] < value - TOL.descent_step:
                    maps[k], unary[k], value = rows[y], float(u[y]), float(vals[y])
                    improved = True
        if not improved:
            break
    return value, tuple(tuple(f.tolist()) for f in maps)


# ---------------------------------------------------------------------------
# Gromov-Hausdorff between finite metric spaces

def gh_distance(X: FiniteMetricSpace, Y: FiniteMetricSpace,
                budget: SearchBudget = SearchBudget()) -> tuple[float, str]:
    """Gromov-Hausdorff distance via correspondence distortion.

    Minimal correspondences are unions of two map graphs, so the search runs
    over pairs (phi: X->Y, psi: Y->X); it is exhaustive whenever
    |Y|^|X| * |X|^|Y| fits in the budget, else best-found ("upper").
    """
    nx, ny = X.size, Y.size
    DX, DY = X.dist, Y.dist
    lower = 0.5 * abs(X.diameter - Y.diameter)

    def distortion(DA, DB):
        return lambda F: np.abs(DB[F[:, :, None], F[:, None, :]] - DA).max(axis=(1, 2))

    def cross(Phi, Psi):
        # |DX[x, psi(y)] - DY[phi(x), y]| over (x, y)
        A = DX[:, Psi].transpose(1, 0, 2)       # (Npsi, nx, ny)
        return np.abs(DY[Phi][:, None] - A[None]).max(axis=(2, 3))

    seeds = [(np.argmin(np.abs(DX[:, :, None] - DY[None, s % ny, :]).min(axis=1), axis=1),
              np.argmin(np.abs(DY[:, :, None] - DX[None, s % nx, :]).min(axis=1), axis=1))
             for s in range(_GH_ANCHORS)]
    cost = MapCost((distortion(DX, DY), distortion(DY, DX)), cross)
    best, _, exhaustive = search_maps([(nx, ny), (ny, nx)], cost, budget, seeds)
    value = 0.5 * best
    if not exhaustive:
        return max(value, lower), "upper"
    if value < lower - TOL.metric_atol:
        raise DomainError("exhaustive GH search fell below its own lower bound")
    return value, "exact"


# ---------------------------------------------------------------------------
# W1 tables over grid-coded net measures, shared by the searches below

class _W1Table:
    """W1 between grid measures on one boundary, coded by their integer
    weights at a fixed scale. Each slot holds its code and its weights,
    counts / scale; `index` finds the slots of known codes by one search in
    the codes kept in ascending order, and decodes, checks and adds new codes
    only on a miss. The entries one call misses are filled together by
    `_w1_fill`, each once, from the weights of the lower code to the other,
    so that no entry depends on the order in which entries are asked for
    (the simplex is not bitwise symmetric in its arguments, and a validated
    distance matrix may be asymmetric within TOL.metric_atol)."""

    def __init__(self, space: FiniteMetricSpace, scale: int):
        if (scale + 1) ** space.size > np.iinfo(np.int64).max:
            raise DomainError("net grid is too fine to index on this boundary")
        self.space, self.scale = space, scale
        self.radix = (scale + 1) ** np.arange(space.size, dtype=np.int64)
        self._codes = np.empty(0, dtype=np.int64)   # code of each slot
        self._sorted = np.empty(0, dtype=np.int64)  # the codes in ascending order
        self._slot = np.empty(0, dtype=np.int64)    # slot of each sorted code
        self._weights = np.zeros((0, space.size))   # weights of each slot
        self._table = np.zeros((0, 0))              # NaN until solved

    def index(self, codes: np.ndarray) -> np.ndarray:
        """Table slot of each code, a count vector's dot product with radix."""
        pos = np.searchsorted(self._sorted, codes)
        if self._sorted.size and (self._sorted.take(pos, mode="clip") == codes).all():
            return self._slot[pos]
        new = np.setdiff1d(codes, self._codes)
        counts = new[:, None] // self.radix % (self.scale + 1)
        if (counts.sum(axis=1) != self.scale).any():
            raise DomainError("a net code's counts do not sum to the grid scale")
        K = len(self._codes)
        self._codes = np.concatenate([self._codes, new])
        self._weights = np.concatenate([self._weights, counts / self.scale])
        self._slot = np.argsort(self._codes)
        self._sorted = self._codes[self._slot]
        table = np.full((K + new.size,) * 2, np.nan)
        table[:K, :K] = self._table
        np.fill_diagonal(table, 0.0)
        self._table = table
        return self._slot[np.searchsorted(self._sorted, codes)]

    def dist(self, i, j) -> np.ndarray:
        """W1 between the measures in slots i and j, broadcast together."""
        vals = self._table[i, j]
        todo = np.isnan(vals)
        if todo.any():
            i, j = np.broadcast_arrays(i, j)
            a, b = i[todo], j[todo]
            swap = self._codes[a] > self._codes[b]
            K = len(self._table)
            p, q = np.divmod(np.unique(np.where(swap, b, a) * K + np.where(swap, a, b)), K)
            self._table[p, q] = self._table[q, p] = _w1_fill(self._weights[p], self._weights[q],
                                                             self.space.dist)
            vals = self._table[i, j]
        return vals


@dataclass(frozen=True)
class _Side:
    """A net's measures as integer weights at a shared scale and as slots of
    its boundary's W1 table."""

    counts: np.ndarray
    slots: np.ndarray
    table: _W1Table


def _sides(SX: SimplexNet, SY: SimplexNet) -> tuple[_Side, _Side]:
    """Both nets on the finest of their grids, where every pushforward between
    the two boundaries lies too; nets on one boundary share its table. A
    net's own grid is the coarsest it lies on, its resolution over the gcd
    of its counts: 1 on a one-point boundary at any resolution."""
    gcds = [int(np.gcd.reduce(S.counts, axis=None)) for S in (SX, SY)]
    scale = math.lcm(SX.resolution // gcds[0], SY.resolution // gcds[1])
    tx = _W1Table(SX.boundary, scale)
    ty = tx if SY.boundary is SX.boundary else _W1Table(SY.boundary, scale)
    sides = []
    for S, g, table in ((SX, gcds[0], tx), (SY, gcds[1], ty)):
        counts = S.counts // g * (scale * g // S.resolution)
        sides.append(_Side(counts, table.index(counts @ table.radix), table))
    return sides[0], sides[1]


def _push(a: _Side, maps: np.ndarray, table: _W1Table) -> np.ndarray:
    """Slots in `table` of the pushforwards of a's net measures under every
    map (rows of maps): shape (maps, measures). Point x's count lands on
    f(x), so a pushforward's code is the counts against radix[f]."""
    return table.index(table.radix[maps] @ a.counts.T)


def _iso_defect(a: _Side, b: _Side, maps: np.ndarray) -> np.ndarray:
    """Per map f from a's boundary to b's: max over pairs of a's net measures
    of |W1(f_* mu, f_* nu) - W1(mu, nu)|."""
    i, j = np.triu_indices(len(a.slots), 1)
    base = a.table.dist(a.slots[i], a.slots[j])
    pushed = _push(a, maps, b.table)
    return np.abs(b.table.dist(pushed[:, i], pushed[:, j]) - base).max(axis=1, initial=0.0)


def _surj_defect(a: _Side, b: _Side, maps: np.ndarray) -> np.ndarray:
    """Per map f: max over b's net measures nu of min over a's mu of W1(f_* mu, nu)."""
    pushed = _push(a, maps, b.table)
    return b.table.dist(pushed[:, None, :], b.slots[None, :, None]).min(axis=2).max(axis=1)


def _inv_defect(a: _Side, comps: np.ndarray) -> np.ndarray:
    """Per self-map c of a's boundary (last axis of comps): max over a's net
    measures nu of W1(c_* nu, nu)."""
    flat = comps.reshape(-1, comps.shape[-1])
    worst = a.table.dist(_push(a, flat, a.table), a.slots).max(axis=1, initial=0.0)
    return worst.reshape(comps.shape[:-1])


def _one_map_report(f: tuple, x: _Side, y: _Side,
                    exhaustive: bool = True) -> AlmostIsometryReport:
    """Report of one boundary map f from x's boundary to y's, extended to the
    nets by pushforward."""
    F = np.asarray([f], dtype=np.int64)
    return AlmostIsometryReport(f, None, distortion=float(_iso_defect(x, y, F)[0]),
                                inversion_defect=math.inf,
                                density_defect=float(_surj_defect(x, y, F)[0]),
                                boundary_distortion=_map_distortion(
                                    f, x.table.space, y.table.space),
                                exhaustive=exhaustive)


def epsilon_isometry_check(f, SX: SimplexNet, SY: SimplexNet) -> AlmostIsometryReport:
    """Exact distortion of a boundary map on boundary pairs and on the nets."""
    f = tuple(_check_map(f, SX.boundary, SY.boundary).tolist())
    return _one_map_report(f, *_sides(SX, SY))


@dataclass(frozen=True)
class GapResult:
    value: float
    report: AlmostIsometryReport
    exhaustive: bool


def intertwining_gap(SX: SimplexNet, SY: SimplexNet,
                     budget: SearchBudget = SearchBudget(),
                     fixed_pair=None) -> GapResult:
    """Least eps such that some pair of pushforward-extended boundary maps is
    mutually eps-isometric on the nets and eps-invertible.

    With `fixed_pair=(f, g)` no search happens; the witnessed value of that
    pair is returned (an upper bound for the gap).

    The exhaustive gap bounds `fukaya_distance` from above when SY's
    resolution divides SX's: every g_*nu then lies in SX's net, so the gap's
    pair (f, g) gives f a surjectivity defect no larger than its inversion
    defect. From a coarser source net Fukaya can exceed the gap.
    """
    nx, ny = SX.boundary.size, SY.boundary.size
    x, y = _sides(SX, SY)

    def inversion(F, G):
        # f o g on Y's net and g o f on X's net, for every pair of rows
        return np.maximum(_inv_defect(y, F[:, G]), _inv_defect(x, G[:, F].transpose(1, 0, 2)))

    cost = MapCost((lambda F: _iso_defect(x, y, F), lambda G: _iso_defect(y, x, G)), inversion)
    if fixed_pair is None:
        fwd, back = _coupling_seeds(SX, SY), _coupling_seeds(SY, SX)
        seeds = list(dict.fromkeys([(fwd[0], back[0]), (fwd[-1], back[-1])]))
        _, (f, g), exhaustive = search_maps([(nx, ny), (ny, nx)], cost, budget, seeds)
    else:
        try:
            f, g = fixed_pair
        except (TypeError, ValueError):
            raise DomainError("fixed_pair must be a pair of maps (f, g)") from None
        f = tuple(_check_map(f, SX.boundary, SY.boundary).tolist())
        g = tuple(_check_map(g, SY.boundary, SX.boundary).tolist())
        exhaustive = False
    F, G = np.asarray([f], dtype=np.int64), np.asarray([g], dtype=np.int64)
    a, b = float(cost.unary[0](F)[0]), float(cost.unary[1](G)[0])
    inv = float(inversion(F, G)[0, 0])
    val = max(a, b, inv)
    bd = max(_map_distortion(f, SX.boundary, SY.boundary),
             _map_distortion(g, SY.boundary, SX.boundary))
    rep = AlmostIsometryReport(f, g, distortion=max(a, b), inversion_defect=inv,
                               density_defect=float(_surj_defect(x, y, F)[0]),
                               boundary_distortion=bd, exhaustive=exhaustive)
    diameter = max(SX.boundary.diameter, SY.boundary.diameter)
    if exhaustive and val > 2.0 * diameter + TOL.metric_atol:
        raise DomainError("gap search exceeded the trivial 2*diameter bound")
    return GapResult(val, rep, exhaustive)


def _profile_gaps(DA, DB) -> np.ndarray:
    """Max-norm distance between the sorted distance profiles (the k =
    min(|A|, |B|) smallest distances) of every point of A and every point of
    B, as an (|A|, |B|) array."""
    k = min(DA.shape[1], DB.shape[1])
    prof_a, prof_b = np.sort(DA, axis=1)[:, :k], np.sort(DB, axis=1)[:, :k]
    return np.abs(prof_b - prof_a[:, None, :]).max(axis=2)


def profile_seed(DA, DB) -> np.ndarray:
    """Map from A to B sending each point to the first point of B whose sorted
    distance profile is nearest in the max norm."""
    return _profile_gaps(DA, DB).argmin(axis=1)


def _coupling_seeds(SA: SimplexNet, SB: SimplexNet) -> list[tuple]:
    """Deterministic starting maps matched by sorted distance profiles:
    `profile_seed` and the spread map that sends each point in order to the
    nearest-profile point of B not yet taken (ties to the lower index),
    taking B afresh once every point of it is taken. The spread map is
    injective when |A| <= |B| and covers B otherwise. On circle nets every
    point has the same profile, so the first is constant and only the second
    spreads out."""
    if SA.boundary is SB.boundary:
        return [tuple(range(SA.boundary.size))]
    gaps = _profile_gaps(SA.boundary.dist, SB.boundary.dist)
    seeds = [tuple(gaps.argmin(axis=1).tolist())]
    free, spread = [], []
    for row in gaps.tolist():
        if not free:
            free = list(range(gaps.shape[1]))
        spread.append(min(free, key=row.__getitem__))
        free.remove(spread[-1])
    if tuple(spread) != seeds[0]:
        seeds.append(tuple(spread))
    return seeds


def fukaya_distance(SX: SimplexNet, SY: SimplexNet,
                    budget: SearchBudget = SearchBudget()) -> GapResult:
    """Least eps admitting a single pushforward map that is eps-isometric on
    the net and eps-surjective onto the target net.

    At most `intertwining_gap` (both exhaustive) when SY's resolution
    divides SX's; see there.
    """
    x, y = _sides(SX, SY)
    cost = MapCost((lambda F: np.maximum(_iso_defect(x, y, F), _surj_defect(x, y, F)),))
    val, (f,), exhaustive = search_maps([(SX.boundary.size, SY.boundary.size)], cost, budget,
                                        [(seed,) for seed in _coupling_seeds(SX, SY)])
    return GapResult(float(val), _one_map_report(f, x, y, exhaustive), exhaustive)


def dq_upper(SX: SimplexNet, SY: SimplexNet, f, delta: float | None = None) -> float:
    """Upper bound for the quantum distance through an explicit bridge.

    Builds the bridge metric on the disjoint boundary union from the map f,
    extends to measures by W1 over the bridge, and returns the Hausdorff
    distance between the lifted nets. `delta` defaults to the distortion of
    f on the boundary (the scale at which the bridge construction is valid).
    """
    f = tuple(_check_map(f, SX.boundary, SY.boundary).tolist())
    if delta is None:
        delta = max(_map_distortion(f, SX.boundary, SY.boundary), TOL.bridge_delta_floor)
    bridge = bridge_metric(SX.boundary, SY.boundary, f, delta)
    nx, kx = SX.boundary.size, len(SX.counts)
    W = np.zeros((kx + len(SY.counts), bridge.size))
    W[:kx, :nx] = SX.counts / SX.resolution
    W[kx:, nx:] = SY.counts / SY.resolution
    return w1_hausdorff(bridge, W[:kx], W[kx:])
