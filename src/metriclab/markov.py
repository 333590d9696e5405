"""Markov-Feller processes on finite metric spaces.

Kernels arise from random map families by convolution; trajectories are
reproducible through the pinned splitmix64 generator with per-trial child
seeds, so every trial's map choices are the same bits on every platform.
The large-deviation flags are not yet: the stationary measure (a LAPACK
solve) and the visit-count products go through BLAS, so a trial whose
deviation lies within rounding of eps can flip under another OpenBLAS
kernel.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import TOL, DomainError, as_positive_integer
from .lipgeom import Nucleus
from .rng import RNG_VERSION, derive_seeds, uniform_block
from .spaces import FiniteMetricSpace, _same_space, epsilon_net
from .transport import Measure, _check_weights


@dataclass(frozen=True, eq=False)
class MarkovKernel:
    """Row-stochastic transition matrix; row x is the law of the next state,
    a probability vector by `transport._check_weights`."""

    space: FiniteMetricSpace
    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        n = self.space.size
        if P.shape != (n, n):
            raise DomainError("kernel shape does not match the space")
        _check_weights(P)
        P = np.clip(P, 0.0, None)
        P.flags.writeable = False
        object.__setattr__(self, "P", P)

    def act_on_measure(self, mu: Measure) -> Measure:
        return Measure(self.space, mu.weights @ self.P)


@dataclass(frozen=True, eq=False)
class RandomMapFamily:
    maps: tuple
    probabilities: np.ndarray

    def __post_init__(self):
        maps = tuple(self.maps)
        p = np.asarray(self.probabilities, dtype=float)
        if len(maps) == 0 or p.shape != (len(maps),):
            raise DomainError("need one probability per map")
        _check_weights(p)
        _same_space(*maps)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "probabilities", np.clip(p, 0.0, None))

    @property
    def space(self) -> FiniteMetricSpace:
        return self.maps[0].space


def kernel_from_maps(F: RandomMapFamily) -> MarkovKernel:
    """P[x, y] = total probability of the maps sending x to y."""
    n = F.space.size
    P = np.zeros((n, n))
    for m, p in zip(F.maps, F.probabilities):
        P[np.arange(n), m.idx] += p
    return MarkovKernel(F.space, P)


def stationary_measures(P: MarkovKernel) -> list[Measure]:
    """Extreme invariant distributions, one per recurrent class.

    Uniqueness is equivalent to the returned list having length one.
    """
    n = P.space.size
    R = ((P.P > TOL.weight_atol) | np.eye(n, dtype=bool)).astype(float)
    # after k squarings R[x, y] > 0 iff y is reachable from x in at most 2^k
    # steps; each product entry counts midpoints, at most n, so it is exact
    for _ in range((n - 1).bit_length()):
        R = (R @ R > 0).astype(float)
    R = R > 0
    # x is recurrent when every point it reaches reaches it back, and its
    # class is then R[x]; taking each class at its least point keeps the
    # classes in that order
    recurrent = ~(R & ~R.T).any(axis=1)
    least = R.argmax(axis=1) == np.arange(n)
    out = []
    for x in np.flatnonzero(recurrent & least):
        idx = np.flatnonzero(R[x])
        Q = P.P[np.ix_(idx, idx)]
        A = (Q.T - np.eye(len(idx)))
        A[-1, :] = 1.0
        b = np.zeros(len(idx))
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
        pi = np.clip(pi, 0.0, None)
        pi /= pi.sum()
        w = np.zeros(n)
        w[idx] = pi
        mu = Measure(P.space, w)
        if np.abs(mu.weights @ P.P - mu.weights).max() > TOL.coupling_atol:
            raise DomainError("stationary solve failed its own invariance check")
        out.append(mu)
    return out


@dataclass(frozen=True)
class LdpReport:
    eps: float
    n_values: tuple
    probabilities: tuple
    c1: float
    c2: float
    fit_quality: float
    trials: int
    seed: int
    start_net: tuple           # indices of the trace net used for start points
    rng_version: str = RNG_VERSION

    def curve_rows(self):
        return list(zip(self.n_values, self.probabilities))


# trials per block of ldp_experiment, and prefixes per chunk of its prefix
# table: a block's start walks, visit counts and held visits take about this
# many numbers (4 MB), so each step and each horizon works in cache instead
# of streaming whole-experiment arrays through main memory. A block's
# start-0 products with the values and their deviations from the mean go to
# two (block, members) buffers of at most this many numbers over the number
# of starts, allocated once per experiment and reused by every block
_LDP_BLOCK_CELLS = 1 << 19


def _horizon_counts(flat_maps, size, horizons, offsets, path):
    """Yield every row's visit counts, (rows, size), at each horizon n: its
    positions at steps 0 .. n - 1. path (k, *rows) holds the first k of them;
    the rest are walked on from path[-1], step j going from x to
    flat_maps[offsets[j - 1] + x]. One array, updated in place."""
    k, shape = len(path), path.shape[1:]
    rows = path[0].size
    cells = np.arange(rows).reshape(shape) * size        # each row's first count
    counts = np.zeros(rows * size)
    # positions walked but not yet counted: counted at each horizon, or
    # earlier when the buffer is full
    held = np.empty((max(1, min(horizons[-1] - k, _LDP_BLOCK_CELLS // rows)),) + shape,
                    dtype=np.intp)
    pos, h, walked, counted = path[-1], 0, k, 0
    for n in horizons:
        if counted < min(n, k):
            counts += np.bincount((path[counted:n] + cells).ravel(), minlength=counts.size)
            counted = min(n, k)
        while walked < n:
            pos = flat_maps.take(offsets[walked - 1] + pos, out=held[h])
            h += 1
            walked += 1
            if h == len(held) or walked == n:
                counts += np.bincount((held[:h] + cells).ravel(), minlength=counts.size)
                h = 0
        yield counts.reshape(rows, size)


def _deviates(counts, n, values, mean, eps):
    """(trials,) flags from exact visit counts (S, trials, size) at horizon
    n: does some start's time average of some member leave its mean by
    more than eps? Every count row goes through one product with the
    values."""
    S, B, size = counts.shape
    seg = (counts.reshape(S * B, size) @ values.T).reshape(S, B, -1)
    # rounded seg / n - mean is nondecreasing in seg, and |x| > eps is
    # x > eps or x < -eps, so the largest and the smallest seg over starts
    # decide whether the sup of |seg / n - mean| exceeds eps, exactly
    return (((seg.max(axis=0) / n - mean) > eps).any(axis=1)
            | ((seg.min(axis=0) / n - mean) < -eps).any(axis=1))


def _exact_flags(flat_maps, size, values, mean, eps, horizons, offsets, path):
    """(len(horizons), trials) flags of the rows (start, trial) whose first
    positions are path (k, S, trials), walked on with offsets (see
    _horizon_counts), each horizon decided by _deviates."""
    out = np.empty((len(horizons), path.shape[2]), dtype=bool)
    counts = _horizon_counts(flat_maps, size, horizons, offsets, path)
    for i, (n, c) in enumerate(zip(horizons, counts)):
        out[i] = _deviates(c.reshape(path.shape[1:] + (size,)), n, values, mean, eps)
    return out


def _exceed_flags(flat_maps, size, starts, values, mean, eps, horizons, choices, prod, dev):
    """(len(horizons), trials) flags: does trial t deviate by more than eps
    at horizon n? Trial t applies map choices[k, t] at step k, from every
    start at once. choices needs horizons[-1] - 1 steps, the last that a
    horizon depends on.

    Merge: all starts of a trial take the same maps, so once they sit at
    one point they stay together, and from then on each start's count row
    is start 0's plus the difference of their visits before they met. The
    kernel walks every start until each trial's starts have met, or its
    buffer of _LDP_BLOCK_CELLS positions is full. A trial whose starts meet
    after the first horizon, or not at all, is walked on from there by
    _exact_flags. The other trials walk start 0 alone, and their
    differences are multiplied by the values once per choice prefix.

    Filter: at each horizon a flag is read from (start 0's product + the
    largest or the smallest difference product) / n - mean against eps.
    The counts are exact integers and the exact kernel's seg / n - mean
    differs from this by less than (4 size + 8) u max|values|, u the unit
    roundoff, so a trial whose deviations all stay more than
    TOL.ldp_tie_margin * max(1, max|values|) from eps gets its exact flag.

    Recheck: the few others get their exact count rows back, start 0's
    plus the differences, and _deviates decides them.

    prod and dev are float buffers of at least (trials, members): the
    filter writes start 0's products and their deviations into their first
    rows in place, with the bits of the same expressions evaluated anew."""
    S, B = len(starts), choices.shape[1]
    offsets = choices * size                             # map choice -> flat_maps
    path = np.empty((max(1, min(horizons[-1], _LDP_BLOCK_CELLS // (S * B))), S, B),
                    dtype=np.intp)
    path[0] = starts[:, None]
    k = 1
    # the first and the last start meeting is cheap to test and necessary
    while k < len(path) and not ((path[k - 1, -1] == path[k - 1, 0]).all()
                                 and (path[k - 1] == path[k - 1, 0]).all()):
        flat_maps.take(offsets[k - 1] + path[k - 1], out=path[k])
        k += 1
    path = path[:k]
    # met[t]: the first step at which trial t's starts coincide, k if none
    met = np.full(B, k)
    if (path[-1] == path[-1, 0]).all(axis=0).any():
        met = (path != path[:, :1]).any(axis=1).sum(axis=0)
    late = met > min(horizons[0], k - 1)
    if late.all():
        return _exact_flags(flat_maps, size, values, mean, eps, horizons, offsets, path)
    out = np.empty((len(horizons), B), dtype=bool)
    if late.any():
        out[:, late] = _exact_flags(flat_maps, size, values, mean, eps, horizons,
                                    offsets[:, late], path[:, :, late])
    sure = np.flatnonzero(~late)
    # a trial's differences are fixed by its map choices before its starts
    # met, so they are counted and multiplied once per such prefix; the key
    # is met and the prefix, -1 for later choices, as one byte string per
    # trial, which np.unique sorts fast (met keeps it nonempty at k = 1)
    key = np.vstack([met[sure], np.where(np.arange(k - 1)[:, None] < met[sure] - 1,
                                         choices[:k - 1, sure], -1)])
    key = np.ascontiguousarray(key.T).view(np.dtype((np.void, key.itemsize * k)))
    _, first, which = np.unique(key.ravel(), return_index=True, return_inverse=True)
    cells = np.arange(S * len(first)).reshape(S, -1) * size
    seen = np.bincount((path[:, :, sure[first]] + cells).ravel(), minlength=cells.size * size)
    seen = seen.reshape(S, len(first), size)
    diff = seen - seen[0]
    spread = (diff.reshape(-1, size).astype(float) @ values.T).reshape(S, len(first), -1)
    hi, lo = spread.max(axis=0)[which], spread.min(axis=0)[which]
    margin = TOL.ldp_tie_margin * max(1.0, float(np.abs(values).max()))
    common = _horizon_counts(flat_maps, size, horizons, offsets[:, sure], path[:, 0, sure])
    base, d = prod[:len(sure)], dev[:len(sure)]
    for i, (n, c) in enumerate(zip(horizons, common)):
        np.matmul(c, values.T, out=base)
        up = np.subtract(np.divide(np.add(base, hi, out=d), n, out=d), mean, out=d).max(axis=1)
        down = np.subtract(np.divide(np.add(base, lo, out=d), n, out=d), mean, out=d).min(axis=1)
        out[i, sure] = (up > eps) | (down < -eps)
        near = np.flatnonzero(~((up > eps + margin) | (down < -eps - margin)
                                | ((up < eps - margin) & (down > margin - eps))))
        if near.size:
            out[i, sure[near]] = _deviates(c[near] + diff[:, which[near]], n, values, mean, eps)
    return out


def ldp_experiment(F: RandomMapFamily, nucleus: Nucleus, eps: float,
                   n_values, trials: int = 10_000, seed: int = 0) -> LdpReport:
    """Empirical finite-time large-deviation curve for the random system.

    A trial is a random map sequence; its deviation at horizon n is the sup
    over nucleus observables and over trajectory starts on an eps/4-net of
    the space of |time average - stationary mean|. Reported probabilities
    are the fraction of trials whose deviation exceeds eps, and (c1, c2)
    come from a least-squares fit of log p against n (diagnostic only).

    Trials run in blocks through one walk kernel. A horizon n depends only
    on a trial's first n - 1 map choices, so where maps ** (n - 1) <= trials
    the kernel walks every such choice prefix once and each trial reads its
    flag from that table by its prefix code. The kernel walks all starts of
    a trial until they meet; from then on they move together, so it walks
    start 0 alone and reads each flag from start 0's product with the
    nucleus values plus the product of the starts' visits before the
    meeting. That sum is within (4 size + 8) u max|values| of the exact
    seg (u the unit roundoff), so only trials with a deviation within
    TOL.ldp_tie_margin * max(1, max|values|) of eps are re-decided, from
    their exact count rows; trials whose starts meet after the first
    horizon, or never, are counted exactly throughout. The bits are those
    of evaluating every trial on its own: each exact (trial, start) count
    row goes through the same product with the nucleus values whatever
    block or table it sits in, and |seg / n - mean| > eps is decided at the
    largest and the smallest seg over starts because rounding is monotone.
    """
    if not eps > 0:
        raise DomainError("eps must be positive")
    trials = as_positive_integer(trials, "trials")
    n_values = sorted(as_positive_integer(n, "a horizon") for n in n_values)
    if not n_values:
        raise DomainError("n_values must not be empty")
    X = _same_space(F, nucleus)
    kern = kernel_from_maps(F)
    stat = stationary_measures(kern)
    if len(stat) != 1:
        raise DomainError(f"no unique stationary measure ({len(stat)} recurrent classes)")
    nu = stat[0]
    for m in F.maps:
        if m.expansion() > TOL.lipschitz_atol:
            warnings.warn(f"family map {m.label or '?'} is not 1-Lipschitz "
                          f"(expansion {m.expansion():.3g}); deviation bounds may degrade")
            break

    starts = np.asarray(epsilon_net(X, eps / 4.0).indices, dtype=int)
    mean = nucleus.values @ nu.weights                    # (F,)
    flat_maps = np.concatenate([m.idx for m in F.maps])   # [c * size + x]: map c of x
    cum_p = np.cumsum(F.probabilities)
    maps = len(F.maps)
    block = max(1, _LDP_BLOCK_CELLS // (len(starts) * max(X.size, len(nucleus))))
    # one block's start-0 products with the values and their deviations
    # from the mean, written in place by every walk
    prod = np.empty((block, len(nucleus)))
    dev = np.empty_like(prod)

    def walk(horizons, choices):
        return _exceed_flags(flat_maps, X.size, starts, nucleus.values, mean, eps,
                             horizons, choices, prod, dev)

    horizons = sorted(set(n_values))
    short = [n for n in horizons if maps ** (n - 1) <= trials]
    long = horizons[len(short):]
    # the prefix code of a trial reads its first `width` choices, the first
    # the most significant digit; table[:, code] holds its short-horizon flags
    width = short[-1] - 1 if short else 0
    table = np.empty((len(short), maps ** width), dtype=bool)
    if short:
        digit = maps ** np.arange(width - 1, -1, -1, dtype=np.intp)[:, None]
        for lo in range(0, table.shape[1], block):
            codes = np.arange(lo, min(table.shape[1], lo + block))
            table[:, codes] = walk(short, codes // digit % maps)

    seeds = derive_seeds(seed, trials)
    steps = long[-1] - 1 if long else width
    exceed = np.empty((len(horizons), trials), dtype=bool)
    for lo in range(0, trials, block):
        hi = min(trials, lo + block)
        # trial t draws its map choices from SplitMix64(derive_seed(seed, t));
        # the counter-based block gives the same bits as drawing trial by trial
        u = uniform_block(seeds[lo:hi], steps).T
        choices = np.minimum(np.searchsorted(cum_p, u, side="right"), maps - 1)
        code = np.zeros(hi - lo, dtype=np.intp)
        for row in choices[:width]:
            code = code * maps + row
        exceed[:len(short), lo:hi] = table[:, code]
        if long:
            exceed[len(short):, lo:hi] = walk(long, choices)

    probs = exceed.mean(axis=1)[[horizons.index(n) for n in n_values]]
    c1, c2, r2 = _ldp_fit(n_values, probs.tolist(), eps)
    return LdpReport(eps, tuple(n_values), tuple(float(p) for p in probs),
                     c1, c2, r2, trials, seed, tuple(int(s) for s in starts))


def _ldp_fit(n_values, probs, eps: float) -> tuple[float, float, float]:
    """(c1, c2, R^2) of the least-squares line log p = log c1 - c2 n eps^2
    over the horizons with p > 0, all nan unless two of them differ.

    The 2x2 normal equations are solved in centred form, in plain floats
    summed in horizon order, so no BLAS or LAPACK kernel moves the bits.
    """
    pts = [(-n * eps ** 2, math.log(p)) for n, p in zip(n_values, probs) if p > 0]
    k = len(pts)
    if k < 2:
        return math.nan, math.nan, math.nan
    x_bar = sum(x for x, _ in pts) / k
    y_bar = sum(y for _, y in pts) / k
    sxx = sum((x - x_bar) ** 2 for x, _ in pts)
    if sxx == 0:
        return math.nan, math.nan, math.nan
    slope = sum((x - x_bar) * (y - y_bar) for x, y in pts) / sxx
    intercept = y_bar - slope * x_bar
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in pts)
    ss_tot = sum((y - y_bar) ** 2 for _, y in pts)
    return math.exp(intercept), slope, 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
