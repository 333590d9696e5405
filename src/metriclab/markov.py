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


# one budget of numbers for the stages of ldp_experiment, each sized by
# what it holds (4 MB): a walk block of trials draws its map choices, finds
# where its starts meet, walks start 0 and counts its horizons, holding at
# most starts x size numbers per trial (its leaves' differences); the
# stages that hold starts x members numbers per trial or leaf (the
# products of the differences, the late trials' exact count rows and
# products) run in chunks of this many over starts x max(size, members).
# The chunk's start-0 products and their deviations from the mean go to
# two (chunk, members) buffers, allocated once per experiment
_LDP_BLOCK_CELLS = 1 << 19


def _horizon_counts(flat_maps, size, horizons, offsets, pos):
    """Yield every row's visit counts, (*rows, size), at each horizon n: its
    positions at steps 0 .. n - 1, from pos (*rows) at step 0, step j going
    from x to flat_maps[offsets[j - 1] + x]. One array, updated in place."""
    shape, rows = pos.shape, pos.size
    cells = np.arange(rows).reshape(shape) * size        # each row's first count
    counts = np.zeros(rows * size)
    # the count cells of positions walked but not yet counted: counted at
    # each horizon, or earlier when the buffer is full
    held = np.empty((max(1, min(horizons[-1], _LDP_BLOCK_CELLS // rows)),) + shape,
                    dtype=np.intp)
    np.add(pos, cells, out=held[0])
    h = walked = 1
    for n in horizons:
        while walked < n:
            if h == len(held):
                counts += np.bincount(held.ravel(), minlength=counts.size)
                h = 0
            pos = flat_maps.take(offsets[walked - 1] + pos)
            np.add(pos, cells, out=held[h])
            h += 1
            walked += 1
        if h:
            counts += np.bincount(held[:h].ravel(), minlength=counts.size)
            h = 0
        yield counts.reshape(shape + (size,))


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


def _exact_flags(flat_maps, size, values, mean, eps, horizons, offsets, pos):
    """(len(horizons), trials) flags of the rows (start, trial) that stand
    at pos (S, trials) at step 0 and walk on with offsets (see
    _horizon_counts), each horizon decided by _deviates."""
    out = np.empty((len(horizons), pos.shape[1]), dtype=bool)
    counts = _horizon_counts(flat_maps, size, horizons, offsets, pos)
    for i, (n, c) in enumerate(zip(horizons, counts)):
        out[i] = _deviates(c, n, values, mean, eps)
    return out


def _coalescence(flat_maps, starts, offsets, depth):
    """Where the starts of each trial meet: (leaf, met, reps). Trial t
    goes from x to flat_maps[offsets[j, t] + x] at step j + 1.

    The starts' positions after j steps depend only on the first j map
    choices, so they are walked once per choice prefix that some trial
    drew, not once per trial: the nodes at depth j are those prefixes whose
    starts have not all met, each with its (starts,) positions. A child
    whose starts meet becomes a leaf. leaf[t] is trial t's leaf, -1 if its
    starts have not met after `depth` steps; met[l] is the step at which
    leaf l's starts met and reps[l] one trial that reaches it. The trials
    of a leaf share their positions up to met, where the starts coincide."""
    span, B = len(flat_maps), offsets.shape[1]
    leaf = np.full(B, -1)
    live = np.arange(B)                     # trials whose starts have not met
    node = np.zeros(B, dtype=np.intp)       # the node of each live trial
    pos = starts[None, :]                   # (nodes, starts)
    met, reps = [], []
    for j in range(depth):
        key = node * span + offsets[j, live]
        used = np.zeros(len(pos) * span, dtype=bool)
        used[key] = True
        kids = np.flatnonzero(used)
        pos = flat_maps[(kids % span)[:, None] + pos[kids // span]]
        child = (np.cumsum(used) - 1)[key]
        joined = (pos == pos[:, :1]).all(axis=1)
        if joined.any():
            ids = np.cumsum(joined) - 1 + len(reps)
            done = joined[child]
            leaf[live[done]] = ids[child[done]]
            rep = np.empty(int(joined.sum()), dtype=np.intp)
            rep[ids[child[done]] - len(reps)] = live[done]
            reps.extend(rep.tolist())
            met.extend([j + 1] * len(rep))
            live, child = live[~done], child[~done]
            pos = pos[~joined]
            child = (np.cumsum(~joined) - 1)[child]
        node = child
        if not live.size:
            break
    return leaf, np.asarray(met, dtype=np.intp), np.asarray(reps, dtype=np.intp)


def _leaf_spreads(flat_maps, size, starts, values, offsets, met, reps, chunk):
    """(diff, hi, lo) of the leaves of _coalescence: diff (S, leaves, size)
    holds each start's visits less start 0's before the starts met, counted
    from the walk of the leaf's trial reps[l] (later steps, where the starts
    coincide, cancel), and hi and lo (leaves, members) the largest and the
    smallest product of a start's differences with the values. The products
    run over chunks of at most `chunk` leaves."""
    S = len(starts)
    diff = np.empty((S, len(reps), size), dtype=np.intp)
    hi = np.empty((len(reps), len(values)))
    lo = np.empty_like(hi)
    for a in range(0, len(reps), chunk):
        r = slice(a, min(len(reps), a + chunk))
        path = np.empty((max(1, met[r].max()), S, r.stop - a), dtype=np.intp)
        path[0] = starts[:, None]
        for k in range(1, len(path)):
            flat_maps.take(offsets[k - 1, reps[r]] + path[k - 1], out=path[k])
        cells = np.arange(path[0].size).reshape(S, -1) * size
        seen = np.bincount((path + cells).ravel(), minlength=cells.size * size)
        seen = seen.reshape(S, -1, size)
        diff[:, r] = seen - seen[0]
        spread = (diff[:, r].reshape(-1, size).astype(float) @ values.T).reshape(S, -1, len(values))
        spread.max(axis=0, out=hi[r])
        spread.min(axis=0, out=lo[r])
    return diff, hi, lo


def _abel_bound(counts, n, nu, steps):
    """(rows,) bounds on |<f, row - n nu>| over the count rows (rows, size)
    and every f with |f(k) - f(k+1)| <= steps[k] and |f(last)| <= steps[-1]:
    sum_k steps[k] |G_k|, G the cumulative sum of row - n nu in point order.
    This is Abel summation, <f, g> = sum_k (f(k) - f(k+1)) G_k + f(last)
    G_last. With steps[k] = D[k, k+1] (those of the 1-Lipschitz ball) and
    rows of mass n, n times W1(row / n, nu) is at most the bound, and equal
    to it on a line net."""
    size = counts.shape[1]
    # integer counts make this product exact whatever the kernel
    G = counts @ np.triu(np.ones((size, size))) - n * np.cumsum(nu)
    return np.abs(G, out=G) @ steps


def _exceed_flags(flat_maps, size, starts, values, nu, eps, horizons, offsets, prod, dev):
    """(len(horizons), trials) flags: does trial t deviate by more than eps
    at horizon n? At step k + 1 trial t goes from x to flat_maps[offsets[k,
    t] + x], size times its map choice, from every start at once. offsets
    needs horizons[-1] - 1 steps, the last that a horizon depends on; nu is
    the stationary law, and the member means are values @ nu.

    Merge: all starts of a trial take the same maps, so once they sit at
    one point they stay together, and from then on each start's count row
    is start 0's plus the difference of their visits before they met.
    _coalescence finds where each trial's starts meet, once per choice
    prefix. A trial whose starts meet after the first horizon, or after more
    steps than a chunk of leaf walks holds in _LDP_BLOCK_CELLS positions, is
    walked from its starts by _exact_flags. The other trials walk start 0
    alone, and each leaf's differences are counted and multiplied by the
    values once (_leaf_spreads).

    Screen: with G the cumulative sum, in point order, of start 0's counts
    less n nu, Abel summation gives <f, counts - n nu> = sum_k (f(k) -
    f(k+1)) G_k + f(last) G_last for every member f. So no start deviates by
    more than (sum_k w_k |G_k| + reach) / n, where w_k is the members'
    largest |f(k) - f(k+1)| (|f(last)| at the last point) and reach the
    largest |difference product| of the trial's leaf. For 1-Lipschitz
    members w_k <= D[k, k+1] + TOL.lipschitz_atol, so on a line net the
    first term is at most W1 of the occupation measure and nu. A trial whose
    bound lies below eps - margin (the filter's margin) gets flag False with
    no product.

    Filter: the others' flags are read from start 0's product plus the
    largest or the smallest difference product, less n mean, against n eps.
    The counts are exact integers and the exact kernel's seg / n - mean
    differs from that sum over n by less than (4 size + 8) u max|values|, u
    the unit roundoff, so a trial whose deviations all stay more than
    margin = TOL.ldp_tie_margin * max(1, max|values|) from eps gets its
    exact flag.

    Recheck: the few others get their exact count rows back, start 0's
    plus the differences, and _deviates decides them.

    prod and dev are float buffers of (chunk, members). Every stage that
    holds starts or members numbers per trial runs over at most chunk
    trials or leaves at a time, and the filter writes start 0's products
    and their deviations into the buffers' first rows."""
    S, B = len(starts), offsets.shape[1]
    chunk = len(prod)
    mean = values @ nu
    margin = TOL.ldp_tie_margin * max(1.0, float(np.abs(values).max()))
    depth = max(0, min(horizons[0], len(offsets), _LDP_BLOCK_CELLS // (S * chunk) - 1))
    leaf, met, reps = _coalescence(flat_maps, starts, offsets, depth)
    out = np.empty((len(horizons), B), dtype=bool)
    late = np.flatnonzero(leaf < 0)
    for a in range(0, len(late), chunk):
        t = late[a:a + chunk]
        out[:, t] = _exact_flags(flat_maps, size, values, mean, eps, horizons, offsets[:, t],
                                 np.repeat(starts[:, None], len(t), axis=1))
    diff, hi, lo = _leaf_spreads(flat_maps, size, starts, values, offsets, met, reps, chunk)
    sure = np.flatnonzero(leaf >= 0)
    reach = np.maximum(hi.max(axis=1), -lo.min(axis=1))[leaf[sure]]
    steps = np.abs(np.diff(values, axis=1, append=0.0)).max(axis=0)
    common = _horizon_counts(flat_maps, size, horizons, offsets,
                             np.full(B, starts[0], dtype=np.intp))
    for i, (n, c) in enumerate(zip(horizons, common)):
        out[i, sure] = False
        rest = sure[_abel_bound(c[sure], n, nu, steps) + reach >= n * (eps - margin)]
        for a in range(0, len(rest), chunk):
            t = rest[a:a + chunk]
            w = leaf[t]
            base, d = prod[:len(t)], dev[:len(t)]
            np.matmul(c[t], values.T, out=base)
            # n times the largest and the smallest deviation over starts
            up = np.add(base, np.take(hi - n * mean, w, axis=0, out=d), out=d).max(axis=1)
            down = np.add(base, np.take(lo - n * mean, w, axis=0, out=d), out=d).min(axis=1)
            out[i, t] = (up > n * eps) | (down < -n * eps)
            near = np.flatnonzero(~((up > n * (eps + margin)) | (down < -n * (eps + margin))
                                    | ((up < n * (eps - margin)) & (down > n * (margin - eps)))))
            if near.size:
                out[i, t[near]] = _deviates(c[t[near]] + diff[:, w[near]], n, values, mean, eps)
    return out


def _map_choices(cum_p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The map each uniform draw in u picks under the cumulative
    probabilities cum_p: the number of cum_p[:-1] entries at or below it.
    That is min(searchsorted(cum_p, u, side="right"), maps - 1), so a draw
    at or above a cum_p[-1] that rounds below 1 picks the last map, but it
    costs one compare per map boundary, not a binary search per draw."""
    choices = np.zeros(u.shape, dtype=np.intp)
    for q in cum_p[:-1].tolist():
        choices += u >= q
    return choices


def ldp_experiment(F: RandomMapFamily, nucleus: Nucleus, eps: float,
                   n_values, trials: int = 10_000, seed: int = 0) -> LdpReport:
    """Empirical finite-time large-deviation curve for the random system.

    A trial is a random map sequence; its deviation at horizon n is the sup
    over nucleus observables and over trajectory starts on an eps/4-net of
    the space of |time average - stationary mean|. Reported probabilities
    are the fraction of trials whose deviation exceeds eps, and (c1, c2)
    come from a least-squares fit of log p against n (diagnostic only).

    Trials run in walk blocks through one kernel, _exceed_flags. A horizon
    n depends only on a trial's first n - 1 map choices, so where
    maps ** (n - 1) <= trials the kernel walks every such choice prefix once
    and each trial reads its flag from that table by its prefix code. The
    starts of a trial take the same maps, so once they meet they move
    together: the kernel finds where they meet once per choice prefix, walks
    start 0 alone, and reads each flag from start 0's product with the
    nucleus values plus the product of the starts' visits before the
    meeting. That sum is within (4 size + 8) u max|values| of the exact
    seg (u the unit roundoff), so only trials with a deviation within
    TOL.ldp_tie_margin * max(1, max|values|) of eps are re-decided, from
    their exact count rows; trials whose starts meet after the first
    horizon, or never, are counted exactly throughout. Before any product,
    a trial whose deviation an Abel-summation bound keeps below eps less
    that margin gets its flag, False, from the bound alone.
    The bits are those of evaluating every trial on its own: each exact
    (trial, start) count row goes through the same product with the nucleus
    values whatever block or table it sits in, and |seg / n - mean| > eps is
    decided at the largest and the smallest seg over starts because rounding
    is monotone.
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
    flat_maps = np.concatenate([m.idx for m in F.maps])   # [c * size + x]: map c of x
    cum_p = np.cumsum(F.probabilities)
    maps = len(F.maps)
    # trials per walk block and per chunk (see _LDP_BLOCK_CELLS); chunk <= block
    block = max(1, _LDP_BLOCK_CELLS // (len(starts) * X.size))
    chunk = max(1, _LDP_BLOCK_CELLS // (len(starts) * max(X.size, len(nucleus))))
    # one chunk's start-0 products with the values and their deviations
    # from the mean, written in place by every chunk
    prod = np.empty((chunk, len(nucleus)))
    dev = np.empty_like(prod)

    def walk(horizons, offsets):
        return _exceed_flags(flat_maps, X.size, starts, nucleus.values, nu.weights, eps,
                             horizons, offsets, prod, dev)

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
            table[:, codes] = walk(short, codes // digit % maps * X.size)

    seeds = derive_seeds(seed, trials)
    steps = long[-1] - 1 if long else width
    exceed = np.empty((len(horizons), trials), dtype=bool)
    for lo in range(0, trials, block):
        hi = min(trials, lo + block)
        # trial t draws its map choices from SplitMix64(derive_seed(seed, t));
        # the counter-based block gives the same bits as drawing trial by trial
        choices = _map_choices(cum_p, uniform_block(seeds[lo:hi], steps).T)
        code = np.zeros(hi - lo, dtype=np.intp)
        for row in choices[:width]:
            code = code * maps + row
        exceed[:len(short), lo:hi] = table[:, code]
        if long:
            choices *= X.size                            # map choice -> flat_maps offset
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
