"""Deterministic dynamics on finite metric spaces.

Analytic circle maps are carried onto the net by nearest-point projection;
the projection error is recorded on the map and added to equivariance
defects downstream. Unique ergodicity on a net means the map has a single
cycle class, so irrational angles are only reachable through rational
convergents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL, DomainError, as_integer_argument, as_positive_integer
from .distances import MapCost, SearchBudget, profile_seed, search_maps
from .lipgeom import Nucleus, Observable, lipschitz_seminorm
from .spaces import FiniteMetricSpace, _check_map, _same_space
from .transport import (_w1_fill, convex_grid, mixture_rows, pushforward, uniform_measure,
                        w1_hausdorff)


@dataclass(frozen=True, eq=False)
class DynMap:
    """Total point map on a space; projection_error > 0 for projected analytic maps."""

    space: FiniteMetricSpace
    idx: np.ndarray
    projection_error: float = 0.0
    label: str = ""

    def __post_init__(self):
        a = _check_map(self.idx, self.space, self.space).copy()
        a.flags.writeable = False
        object.__setattr__(self, "idx", a)

    @property
    def is_bijective(self) -> bool:
        return len(np.unique(self.idx)) == self.space.size

    def __call__(self, i: int) -> int:
        return int(self.idx[i])

    def compose(self, other: "DynMap") -> "DynMap":
        """self after other (self o other); both must be maps of one space."""
        return DynMap(_same_space(self, other), self.idx[other.idx],
                      self.projection_error + other.projection_error,
                      label=f"{self.label}o{other.label}")

    def inverse(self) -> "DynMap":
        if not self.is_bijective:
            raise DomainError("map is not invertible on the net")
        inv = np.empty_like(self.idx)
        inv[self.idx] = np.arange(self.space.size)
        return DynMap(self.space, inv, self.projection_error, label=f"{self.label}^-1")

    def expansion(self) -> float:
        """Worst one-sided stretch; <= 0 means the map is 1-Lipschitz."""
        D = self.space.dist
        return float((D[np.ix_(self.idx, self.idx)] - D).max())


def identity_map(space: FiniteMetricSpace) -> DynMap:
    return DynMap(space, np.arange(space.size), label="id")


def rotation(X: FiniteMetricSpace, steps: int) -> DynMap:
    """Index shift on a circle net (exact rational rotation by steps/n);
    steps is an integer of any sign (`config.as_integer_argument`: 2.0 is 2)."""
    if X.meta.get("generator") != "circle":
        raise DomainError("rotation requires a circle net")
    steps = as_integer_argument(steps, "steps")
    n = X.size
    return DynMap(X, (np.arange(n) + steps) % n, label=f"rot{steps % n}")


def project_circle_map(X: FiniteMetricSpace, fn, label: str = "analytic") -> DynMap:
    """Nearest-point projection of an analytic circle map onto the net."""
    if X.meta.get("generator") != "circle":
        raise DomainError("analytic circle maps need a circle net")
    L = X.meta["circumference"]
    n = X.size
    coords = np.asarray(X.meta["coords"])
    y = np.array([fn(x) for x in coords], dtype=float)
    if not np.isfinite(y).all():
        raise DomainError("the circle map has a non-finite image on the net")
    y %= L

    def wrap(j):
        d = np.abs(y - coords[j])
        return np.minimum(d, L - d)

    # nearest point, halves rounded to even; near-ties go to the lower index
    idx = np.rint(y / (L / n)).astype(int) % n
    alt = (idx - 1) % n
    err, err_alt = wrap(idx), wrap(alt)
    tie = (np.abs(err_alt - err) <= TOL.projection_tie) & (alt < idx)
    idx[tie] = alt[tie]
    err[tie] = err_alt[tie]
    err = float(err.max())
    return DynMap(X, idx, projection_error=err, label=label)


def sine_pluck(t: float):
    """The deformation x -> x + (t/2) sin^2 x on the circumference-pi circle
    (endpoints of [0, pi] identified); a diffeomorphism fixing the seam for
    |t| < 2."""
    if abs(t) >= 2:
        raise DomainError("the sine deformation is a homeomorphism only for |t| < 2")
    return lambda x: x + 0.5 * t * math.sin(x) ** 2


def sine_pluck_map(X: FiniteMetricSpace, t: float) -> DynMap:
    """Nearest-point net projection of the sine deformation.

    Net permutations preserve the counting measure, so a homeomorphism with
    non-unit slope has no faithful bijective net model; the projected map is
    therefore allowed to be non-injective, with error at most half the mesh.
    """
    return project_circle_map(X, sine_pluck(t), label=f"pluck{t:g}")


def deform(g: DynMap, h: DynMap) -> DynMap:
    """Conjugated dynamics g o h o g^-1 for a net bijection g. A homeomorphism
    whose slope is not 1 projects to no bijection of a net; deformed rotations
    live in `fields.rotation_field`, which moves their invariant measures."""
    _same_space(g, h)
    if not g.is_bijective:
        raise DomainError("deformation map does not project to a bijection of the net")
    return g.compose(h).compose(g.inverse())


# ---------------------------------------------------------------------------
# invariant measures

@dataclass(frozen=True, eq=False)
class InvariantSimplex:
    extremes: tuple
    dynamics: DynMap

    def __post_init__(self):
        for mu in self.extremes:
            moved = pushforward(mu, self.dynamics)
            if np.abs(moved.weights - mu.weights).max() > TOL.metric_atol:
                raise DomainError("extreme measure is not invariant")

    @property
    def uniquely_ergodic(self) -> bool:
        return len(self.extremes) == 1


def invariant_measures(h: DynMap) -> InvariantSimplex:
    """Extreme invariant measures: uniform distributions on the terminal cycles
    of the functional graph (for permutations, on every cycle)."""
    n = h.space.size
    colour = np.zeros(n, dtype=int)  # 0 unseen, 1 on stack, 2 done
    cycles = []
    for start in range(n):
        if colour[start]:
            continue
        path = []
        x = start
        while colour[x] == 0:
            colour[x] = 1
            path.append(x)
            x = int(h.idx[x])
        if colour[x] == 1:
            cyc = path[path.index(x):]
            cycles.append(tuple(cyc))
        for p in path:
            colour[p] = 2
    cycles.sort(key=lambda c: min(c))
    extremes = tuple(uniform_measure(h.space, c) for c in cycles)
    return InvariantSimplex(extremes, h)


def _mixture_net(extremes, m: int) -> np.ndarray:
    """Weight rows of all 1/m-grid convex combinations of the extremes."""
    return mixture_rows(np.array([mu.weights for mu in extremes]),
                        convex_grid(len(extremes), m))


def invariant_simplex_hausdorff(h1: DynMap, h2: DynMap, m: int = 2) -> float:
    """Hausdorff distance in (Prob(X), W1) between 1/m-mixture nets of the
    two invariant simplices."""
    X = _same_space(h1, h2)
    A = _mixture_net(invariant_measures(h1).extremes, m)
    B = _mixture_net(invariant_measures(h2).extremes, m)
    return w1_hausdorff(X, A, B)


# ---------------------------------------------------------------------------
# Birkhoff convergence

@dataclass(frozen=True)
class BirkhoffReport:
    epsilon: float
    rate: int | None
    curve: np.ndarray       # curve[k] = deviation at n = k + 1
    n_max: int
    resolved: bool

    def deviation(self, n: int) -> float:
        return float(self.curve[n - 1])


def birkhoff_deviation_curve(h: DynMap, values: np.ndarray, mean: np.ndarray,
                             n_max: int) -> np.ndarray:
    """curve[n-1] = max over observables (rows of values) and start points of
    |(1/n) sum_{k<n} f(h^k x) - mean_f|."""
    n_pts = h.space.size
    pos = np.arange(n_pts)
    sums = np.zeros((values.shape[0], n_pts))
    curve = np.empty(n_max)
    for n in range(1, n_max + 1):
        sums += values[:, pos]
        curve[n - 1] = np.abs(sums / n - mean[:, None]).max()
        pos = h.idx[pos]
    return curve


def birkhoff_rate(h: DynMap, nucleus: Nucleus, eps: float, n_max: int) -> BirkhoffReport:
    """Least N such that the sup deviation of ergodic averages over the nucleus
    stays within eps for every n in [N, n_max].

    Requires unique ergodicity on the net; re-crossings beyond n_max are
    undetectable and the report says so via `resolved`. n_max is a count
    (`config.as_positive_integer`: 3.0 is 3).
    """
    n_max = as_positive_integer(n_max, "n_max")
    if not eps > 0:
        raise DomainError("need eps > 0")
    _same_space(h, nucleus)
    if nucleus.r < h.space.radius - TOL.metric_atol:
        raise DomainError("nucleus level r must be at least the space radius")
    simplex = invariant_measures(h)
    if not simplex.uniquely_ergodic:
        raise DomainError(f"dynamics is not uniquely ergodic on the net "
                          f"({len(simplex.extremes)} extreme invariant measures)")
    nu = simplex.extremes[0]
    mean = nucleus.values @ nu.weights
    curve = birkhoff_deviation_curve(h, nucleus.values, mean, n_max)
    above = np.flatnonzero(curve > eps)
    if len(above) == 0:
        return BirkhoffReport(eps, 1, curve, n_max, True)
    last = int(above[-1])
    if last == n_max - 1:
        return BirkhoffReport(eps, None, curve, n_max, False)
    return BirkhoffReport(eps, last + 2, curve, n_max, True)


# ---------------------------------------------------------------------------
# equivariant Gromov-Hausdorff distance between actions

@dataclass(frozen=True)
class EghResult:
    value: float
    forward: tuple
    backward: tuple
    exhaustive: bool


def z_action_window(h: DynMap, N: int | None = None) -> list[DynMap]:
    """Window of powers of a single generator for egh comparisons.

    Bijective generators give the two-sided window -N..N (default N = 2|X|);
    non-bijective ones only the forward powers 1..N. For periodic dynamics,
    pass N = period to compare on the full group; N must be an integer >= 1.
    """
    if N is None:
        N = 2 * h.space.size
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise DomainError(f"window needs an integer N >= 1, not {N!r}")
    powers = [h]
    for _ in range(N - 1):
        powers.append(h.compose(powers[-1]))
    if not h.is_bijective:
        return powers
    inv = h.inverse()
    backward = [inv]
    for _ in range(N - 1):
        backward.append(inv.compose(backward[-1]))
    return backward[::-1] + [identity_map(h.space)] + powers


def _egh_one_side(maps1, maps2, X1: FiniteMetricSpace, X2: FiniteMetricSpace,
                  require_isometry: bool, max_maps: int):
    """min over f: X1 -> X2 of max(equivariance defect, density defect
    [, distortion]); exhaustive under the budget, else local search from a
    distance-profile seed and from the search's beam.

    The search grows f point by point and drops partial maps whose terms
    already exceed a cost it has seen. Point k adds the equivariance terms
    D2[a2(f x), f(a1 x)] + proj_pad of the window pairs with max(x, a1 x) = k
    and, with `require_isometry`, the distortion terms
    |D2[f k, f j] - D1[k, j]| and |D2[f j, f k] - D1[j, k]| for j <= k, D1
    and D2 the two metrics. The cost is the max of these terms over every k,
    of the density term, which needs all of f, and of proj_pad: an
    equivariance term is never below proj_pad, even where D2 has a diagonal
    entry a little below 0.
    """
    D2 = X2.dist
    proj_pad = max(m.projection_error for m in maps1 + maps2)

    # each cost term by the point k that completes it: equivariance terms by
    # window pair w and point x (y = a1 x), distortion terms by pair (i, j).
    # A group of terms reads the columns x, y, i, j of a map in one gather.
    A1 = np.asarray([a.idx for a in maps1])
    A2 = np.asarray([a.idx for a in maps2])
    w, x = np.indices(A1.shape).reshape(2, -1)
    y = A1[w, x]
    i, j = np.indices(X1.dist.shape).reshape(2, -1)

    def group(eq, dis):
        return w[eq], np.concatenate([x[eq], y[eq], i[dis], j[dis]]), X1.dist.ravel()[dis]

    every = group(slice(None), slice(None))
    eq_last, dis_last = np.maximum(x, y), np.maximum(i, j)
    by_point = [group(eq_last == k, dis_last == k) for k in range(X1.size)]

    def terms(P, w, cols, d1):
        ne, nd = len(w), len(d1)
        f = P[:, cols]
        val = D2[A2[w, f[:, :ne]], f[:, ne:2 * ne]].max(axis=1, initial=-np.inf) + proj_pad
        if require_isometry:
            g = f[:, 2 * ne:]
            val = np.maximum(val, np.abs(D2[g[:, :nd], g[:, nd:]] - d1).max(axis=1))
        return val

    def partial(P: np.ndarray, k: int) -> np.ndarray:
        return terms(P, *by_point[k])

    def defect(F: np.ndarray) -> np.ndarray:
        return np.maximum(np.maximum(D2[F].min(axis=1).max(axis=1), proj_pad), terms(F, *every))

    value, (f,), exhaustive = search_maps([(X1.size, X2.size)],
                                          MapCost((defect,), partial=(partial,)),
                                          SearchBudget(max_map_pairs=max_maps),
                                          [(profile_seed(X1.dist, D2),)])
    return value, f, exhaustive


def egh_distance(action1, action2, max_maps: int = 70_000,
                 require_isometry: bool = True) -> EghResult:
    """Equivariant GH distance between two actions given on a common window.

    Each action is a sequence of DynMaps (one per window element, same order).
    By default the comparison maps must also be almost isometric; pass
    require_isometry=False for the literal dense+equivariant condition.
    """
    a1 = list(action1)
    a2 = list(action2)
    if not a1 or len(a1) != len(a2):
        raise DomainError("actions need a common nonempty window")
    X1, X2 = a1[0].space, a2[0].space
    v12, f12, ex1 = _egh_one_side(a1, a2, X1, X2, require_isometry, max_maps)
    v21, f21, ex2 = _egh_one_side(a2, a1, X2, X1, require_isometry, max_maps)
    return EghResult(max(v12, v21), f12, f21, ex1 and ex2)


# ---------------------------------------------------------------------------
# crossed-product seminorms on the invariant simplex

def crossed_product_seminorm(a0: Observable, h: DynMap, resolution: int = 4) -> float:
    """Seminorm of a crossed-product element with scalar part a0.

    For uniquely ergodic dynamics the invariant simplex is a point and the
    W1 metric on it degenerates; the convention is then the seminorm of a0
    itself. Otherwise the value is the Lipschitz seminorm of mu -> integral
    of a0 over a 1/m-mixture net of the invariant simplex with the W1 metric.

    That value is the largest ratio over the 1/m mixture net alone, so it is
    a lower value for the seminorm over the whole invariant simplex and can
    rise with `resolution`; it carries no flag. The net is a set of weight
    rows, and the W1 values of all its pairs come from one `_w1_fill` call.
    """
    _same_space(h, a0)
    simplex = invariant_measures(h)
    # built first, so that a resolution below 1 raises on either branch
    W = _mixture_net(simplex.extremes, resolution)
    if simplex.uniquely_ergodic:
        return lipschitz_seminorm(a0)
    vals = np.array([np.dot(w, a0.values) for w in W])
    i, j = np.triu_indices(len(W), 1)
    d = _w1_fill(W[i], W[j], h.space.dist)
    far = d > TOL.metric_atol
    return float(np.max(np.abs(vals[i] - vals[j])[far] / d[far], initial=0.0))
