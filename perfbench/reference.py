"""Independent references the benchmark checks metriclab's outputs against.

Nothing here calls metriclab: every value is recomputed from coordinates,
weights and distance matrices with closed forms or exhaustive enumeration.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

# Cumulative masses closer than this are treated as equal, so that float
# round-off in a CDF cannot open a spurious quantile gap.
_MASS_ATOL = 1e-12


def interval_w1(xs, wa, wb) -> float:
    """W1 on the line: the integral of |F_a - F_b| (CDF closed form)."""
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(xs)
    xs = xs[order]
    fa = np.cumsum(np.asarray(wa, dtype=float)[order])
    fb = np.cumsum(np.asarray(wb, dtype=float)[order])
    return float(np.sum(np.abs(fa[:-1] - fb[:-1]) * np.diff(xs)))


def _quantile(xs, cdf, u: float) -> float:
    """Least point whose cumulative mass reaches u."""
    return float(xs[min(int(np.searchsorted(cdf, u - _MASS_ATOL)), len(xs) - 1)])


def interval_winf(xs, wa, wb) -> float:
    """W-infinity on the line: sup over u in (0, 1) of |F_a^-1(u) - F_b^-1(u)|.

    Both quantile functions are step functions that jump only at cumulative
    masses of either measure, so the sup is attained at the midpoint of some
    gap between consecutive jump levels.
    """
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(xs)
    xs = xs[order]
    fa = np.cumsum(np.asarray(wa, dtype=float)[order])
    fb = np.cumsum(np.asarray(wb, dtype=float)[order])
    levels = np.unique(np.concatenate([[0.0, 1.0], fa, fb]).clip(0.0, 1.0))
    worst = 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        if hi - lo <= _MASS_ATOL:
            continue
        u = 0.5 * (lo + hi)
        worst = max(worst, abs(_quantile(xs, fa, u) - _quantile(xs, fb, u)))
    return worst


def circle_w1(pos, wa, wb, circumference: float) -> float:
    """W1 on a circle with the arc metric: min over the shift alpha of the
    integral of |F_a - F_b - alpha|, attained at a length-weighted median of
    F_a - F_b over the arcs between consecutive atoms."""
    pos = np.asarray(pos, dtype=float) % circumference
    order = np.argsort(pos)
    pos = pos[order]
    diff = np.cumsum(np.asarray(wa, dtype=float)[order] - np.asarray(wb, dtype=float)[order])
    # arc k runs from pos[k] to pos[k+1]; the last one wraps to pos[0]
    arcs = np.diff(np.append(pos, pos[0] + circumference))
    by_value = np.argsort(diff)
    cum = np.cumsum(arcs[by_value])
    alpha = diff[by_value][int(np.searchsorted(cum, 0.5 * cum[-1]))]
    return float(np.sum(arcs * np.abs(diff - alpha)))


def _all_maps(n_from: int, n_to: int) -> np.ndarray:
    return np.asarray(list(itertools.product(range(n_to), repeat=n_from)), dtype=int)


def gh_map_pairs(DX, DY) -> float:
    """Gromov-Hausdorff distance of spaces with at most 4 points: half the
    least distortion over correspondences graph(phi) united with the
    transposed graph(psi), enumerating every map pair (phi, psi)."""
    DX, DY = np.asarray(DX, dtype=float), np.asarray(DY, dtype=float)
    nx, ny = len(DX), len(DY)
    if max(nx, ny) > 4:
        raise ValueError("the map-pair enumerator is meant for at most 4 points")
    phis, psis = _all_maps(nx, ny), _all_maps(ny, nx)
    xs, ys = np.arange(nx), np.arange(ny)
    best = math.inf
    for phi in phis:
        # correspondence pairs: (x, phi(x)) for every x and (psi(y), y) for every y
        px = np.concatenate([np.broadcast_to(xs, (len(psis), nx)), psis], axis=1)
        py = np.concatenate([np.broadcast_to(phi, (len(psis), nx)),
                             np.broadcast_to(ys, (len(psis), ny))], axis=1)
        dis = np.abs(DX[px[:, :, None], px[:, None, :]] - DY[py[:, :, None], py[:, None, :]])
        best = min(best, float(dis.max(axis=(1, 2)).min()))
    return 0.5 * best


def polytope_members(D, r: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random members of {f : |f| <= r, f 1-Lipschitz for D}.

    Each member is the McShane extension min_s (v_s + d(., s)) of random
    values on a random anchor set, clipped to [-r, r]. An infimum of
    1-Lipschitz cones is 1-Lipschitz and clipping keeps it so.
    """
    D = np.asarray(D, dtype=float)
    n = len(D)
    out = np.empty((count, n))
    for k in range(count):
        anchors = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        values = rng.uniform(-2.0 * r, 2.0 * r, size=len(anchors))
        out[k] = np.clip((values[None, :] + D[:, anchors]).min(axis=1), -r, r)
    return out


def sup_distance_to_net(members: np.ndarray, net: np.ndarray) -> np.ndarray:
    """For each member, the sup-norm distance to its nearest net function."""
    return np.asarray([np.abs(net - f[None, :]).max(axis=1).min() for f in members])
