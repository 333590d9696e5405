"""Markov-Feller processes on finite metric spaces.

Kernels arise from random map families by convolution; trajectories are
reproducible through the pinned splitmix64 generator with per-trial child
seeds, so the large-deviation experiment is bit-stable across platforms.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import TOL, DomainError
from .lipgeom import Nucleus
from .rng import RNG_VERSION, SplitMix64, derive_seeds, uniform_block
from .spaces import FiniteMetricSpace, epsilon_net
from .transport import Measure


@dataclass(frozen=True, eq=False)
class MarkovKernel:
    """Row-stochastic transition matrix; row x is the law of the next state."""

    space: FiniteMetricSpace
    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        n = self.space.size
        if P.shape != (n, n):
            raise DomainError("kernel shape does not match the space")
        if P.min() < -TOL.weight_atol:
            raise DomainError("kernel has a negative entry")
        if np.abs(P.sum(axis=1) - 1.0).max() > TOL.weight_atol:
            raise DomainError("kernel rows must sum to 1")
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
        if p.min() < -TOL.weight_atol or abs(p.sum() - 1.0) > TOL.weight_atol:
            raise DomainError("probabilities are not convex")
        space = maps[0].space
        for m in maps:
            if m.space is not space:
                raise DomainError("family maps live on different spaces")
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


def simulate(P: MarkovKernel, x0: int, n: int, seed: int) -> np.ndarray:
    """Trajectory [x0, x1, ..., xn]; each step by inverse CDF over the fixed
    point order, driven by the pinned generator. Bit-identical across runs."""
    if n < 1:
        raise DomainError("need at least one step")
    cum = np.cumsum(P.P, axis=1)
    out = np.empty(n + 1, dtype=int)
    out[0] = x0
    x = x0
    for k, u in enumerate(SplitMix64(seed).uniforms(n), start=1):
        x = int(np.searchsorted(cum[x], u, side="right"))
        x = min(x, P.space.size - 1)
        out[k] = x
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
# table: a block's visit counts, member sums and held visits take about this
# many numbers (1 MB), so each step and each horizon works in cache instead
# of streaming whole-experiment arrays through main memory
_LDP_BLOCK_CELLS = 1 << 17


def _exceed_flags(flat_maps, size, starts, values, mean, eps, horizons, choices):
    """(len(horizons), trials) flags: does trial t deviate by more than eps
    at horizon n? Trial t applies map choices[k, t] at step k, from every
    start at once; rows are start-major, (start, trial). choices needs
    horizons[-1] - 1 steps, the last that a horizon depends on."""
    S, B = len(starts), choices.shape[1]
    cells = np.arange(S * B).reshape(S, B) * size        # each row's first count
    offsets = choices * size                             # map choice -> flat_maps
    counts = np.zeros(S * B * size)
    counts[(cells + starts[:, None]).ravel()] = 1.0
    # positions walked but not yet counted: counted at each horizon, or
    # earlier when the buffer is full
    held = np.empty((max(1, min(horizons[-1] - 1, _LDP_BLOCK_CELLS // (S * B))), S, B),
                    dtype=np.intp)
    pos, h, walked = starts[:, None], 0, 1
    out = np.empty((len(horizons), B), dtype=bool)
    for i, n in enumerate(horizons):
        while walked < n:
            pos = flat_maps.take(offsets[walked - 1] + pos, out=held[h])
            h += 1
            walked += 1
            if h == len(held) or walked == n:
                counts += np.bincount((held[:h] + cells).ravel(), minlength=counts.size)
                h = 0
        seg = (counts.reshape(S * B, size) @ values.T).reshape(S, B, -1)
        # rounded seg / n - mean is nondecreasing in seg, and |x| > eps is
        # x > eps or x < -eps, so the largest and the smallest seg over starts
        # decide whether the sup of |seg / n - mean| exceeds eps, exactly
        out[i] = (((seg.max(axis=0) / n - mean) > eps).any(axis=1)
                  | ((seg.min(axis=0) / n - mean) < -eps).any(axis=1))
    return out


def _positive_int(v, what: str) -> int:
    try:
        ok = int(v) == v and v >= 1
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"{what} must be a positive integer, not {v!r}")
    return int(v)


def ldp_experiment(F: RandomMapFamily, nucleus: Nucleus, eps: float,
                   n_values, trials: int = 10_000, seed: int = 0) -> LdpReport:
    """Empirical finite-time large-deviation curve for the random system.

    A trial is a random map sequence; its deviation at horizon n is the sup
    over nucleus observables and over trajectory starts on an eps/4-net of
    the space of |time average - stationary mean|. Reported probabilities
    are the fraction of trials whose deviation exceeds eps, and (c1, c2)
    come from a least-squares fit of log p against n (diagnostic only).

    Trials run in blocks through one walk kernel. Its rows are start-major,
    (start, trial), so the max and the min over starts reduce contiguous
    slabs; it holds the positions of each step and adds them to the visit
    counts with one bincount per horizon. A horizon n depends only on a
    trial's first n - 1 map choices, so where maps ** (n - 1) <= trials the
    kernel walks every such choice prefix once and each trial reads its
    flag from that table by its prefix code. The bits are those of
    evaluating every trial: each (trial, start) count row goes through the
    same product with the nucleus values whatever block or table it sits
    in, and |seg / n - mean| > eps is decided at the largest and the
    smallest seg over starts because rounding is monotone.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    trials = _positive_int(trials, "trials")
    n_values = sorted(_positive_int(n, "a horizon") for n in n_values)
    if not n_values:
        raise DomainError("n_values must not be empty")
    X = F.space
    if nucleus.space is not X:
        raise DomainError("nucleus lives on a different space")
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
    walk = partial(_exceed_flags, flat_maps, X.size, starts, nucleus.values, mean, eps)
    block = max(1, _LDP_BLOCK_CELLS // (len(starts) * max(X.size, len(nucleus))))

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
    ns = np.asarray(n_values, dtype=float)
    mask = probs > 0
    if mask.sum() >= 2:
        logs = np.log(probs[mask])
        A = np.stack([np.ones(mask.sum()), -ns[mask] * eps ** 2], axis=1)
        coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
        c1 = float(math.exp(coef[0]))
        c2 = float(coef[1])
        pred = A @ coef
        ss_res = float(((logs - pred) ** 2).sum())
        ss_tot = float(((logs - logs.mean()) ** 2).sum())
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    else:
        c1, c2, r2 = float("nan"), float("nan"), float("nan")
    return LdpReport(eps, tuple(n_values), tuple(float(p) for p in probs),
                     c1, c2, r2, trials, seed, tuple(int(s) for s in starts))
