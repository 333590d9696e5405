"""The benchmark's references against brute force on cases small enough to enumerate."""
import itertools
import math

import numpy as np
import pytest

import reference

DENOM = 4


def _couplings(units_a, units_b):
    """Every nonnegative integer matrix with the given row and column sums."""
    if not units_a:
        if not any(units_b):
            yield []
        return
    first, rest = units_a[0], units_a[1:]
    for row in itertools.product(*(range(c + 1) for c in units_b)):
        if sum(row) == first:
            for tail in _couplings(rest, [c - r for c, r in zip(units_b, row)]):
                yield [list(row)] + tail


def _random_grid_weights(rng, n):
    cuts = np.sort(rng.integers(0, DENOM + 1, size=n - 1))
    return np.diff(np.concatenate([[0], cuts, [DENOM]]))


def _brute_w1(ua, ub, D):
    return min(sum(P[i][j] * D[i][j] for i in range(len(ua)) for j in range(len(ub)))
               for P in _couplings(list(ua), list(ub))) / DENOM


def _brute_winf(ua, ub, D):
    return min(max(D[i][j] for i in range(len(ua)) for j in range(len(ub)) if P[i][j])
               for P in _couplings(list(ua), list(ub)))


@pytest.mark.parametrize("seed", range(12))
def test_interval_forms_match_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    xs = np.sort(rng.uniform(0.0, 3.0, size=n))
    ua, ub = _random_grid_weights(rng, n), _random_grid_weights(rng, n)
    D = np.abs(xs[:, None] - xs[None, :])
    wa, wb = ua / DENOM, ub / DENOM
    assert reference.interval_w1(xs, wa, wb) == pytest.approx(_brute_w1(ua, ub, D), abs=1e-12)
    assert reference.interval_winf(xs, wa, wb) == pytest.approx(_brute_winf(ua, ub, D), abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_circle_form_matches_enumeration(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 6))
    L = float(rng.uniform(1.0, 7.0))
    pos = np.sort(rng.uniform(0.0, L, size=n))
    gap = np.abs(pos[:, None] - pos[None, :])
    D = np.minimum(gap, L - gap)
    ua, ub = _random_grid_weights(rng, n), _random_grid_weights(rng, n)
    got = reference.circle_w1(pos, ua / DENOM, ub / DENOM, L)
    assert got == pytest.approx(_brute_w1(ua, ub, D), abs=1e-12)


def _random_metric(rng, n):
    pts = rng.uniform(0.0, 4.0, size=(n, 2))
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))


def _gh_correspondences(DX, DY):
    """Half the least distortion over every correspondence between X and Y."""
    nx, ny = len(DX), len(DY)
    cells = list(itertools.product(range(nx), range(ny)))
    best = math.inf
    for mask in range(1, 1 << len(cells)):
        R = [c for k, c in enumerate(cells) if mask >> k & 1]
        if {x for x, _ in R} != set(range(nx)) or {y for _, y in R} != set(range(ny)):
            continue
        best = min(best, max(abs(DX[x][u] - DY[y][v]) for x, y in R for u, v in R))
    return 0.5 * best


@pytest.mark.parametrize("sizes", [(1, 3), (2, 2), (2, 3), (3, 3)])
def test_gh_map_pairs_matches_every_correspondence(sizes):
    rng = np.random.default_rng(sum(sizes))
    DX, DY = _random_metric(rng, sizes[0]), _random_metric(rng, sizes[1])
    assert reference.gh_map_pairs(DX, DY) == pytest.approx(_gh_correspondences(DX, DY), abs=1e-12)


def test_gh_map_pairs_two_point_formula():
    assert reference.gh_map_pairs([[0, 1.0], [1.0, 0]], [[0, 2.5], [2.5, 0]]) == 0.75


def test_polytope_members_lie_in_the_polytope_and_reach_its_vertices():
    D = np.array([[0.0, 1.0], [1.0, 0.0]])
    r = 1.0
    members = reference.polytope_members(D, r, 400, np.random.default_rng(1))
    assert np.abs(members).max() <= r
    assert np.abs(members[:, 0] - members[:, 1]).max() <= 1.0 + 1e-12
    # the polytope {|f| <= 1, |f0 - f1| <= 1} has six vertices; samples come near each
    vertices = np.array([[1, 1], [1, 0], [0, -1], [-1, -1], [-1, 0], [0, 1]], dtype=float)
    assert reference.sup_distance_to_net(vertices, members).max() <= 0.2
    assert reference.sup_distance_to_net(members[:5], members).max() == 0.0
