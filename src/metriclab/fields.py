"""Parameter-indexed families of metrics and dynamics on a fixed point set.

The wave field realises a vibrating-string deformation of the interval:
each fibre metric is the arc length along the displaced string, computed by
adaptive Simpson quadrature from a truncated sine series. Envelope reports
carry the tight fibre-pair constants k, K (inf and sup distance ratios),
both exactly 1 on the diagonal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL, DomainError, as_integer_argument, as_positive_integer
from .dynamics import DynMap, birkhoff_rate, invariant_measures, rotation, sine_pluck
from .lipgeom import (Observable, _directed_sup_hausdorff, _lipschitz_excess,
                      lipschitz_seminorm, nucleus_net)
from .spaces import FiniteMetricSpace, circle_net, validate_metric
from .transport import (Measure, _circle_w1, _table_hausdorff, convex_grid, mixture_rows,
                        w1_table)


# ---------------------------------------------------------------------------
# quadrature

_SIMPSON_MAX_DEPTH = 40   # deepest bisection of adaptive_simpson


def adaptive_simpson(fn, a: float, b: float,
                     atol: float = TOL.quadrature_atol) -> tuple[float, float]:
    """Adaptive Simpson integral of a smooth function; returns (value, error bound)."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def rec(x0, x2, f0, f1, f2, whole, tol, depth):
        xm = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        flm, frm = fn(lm), fn(rm)
        left = simpson(x0, xm, f0, flm, f1)
        right = simpson(xm, x2, f1, frm, f2)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0, abs(delta) / 15.0
        lv, le = rec(x0, xm, f0, flm, f1, left, tol / 2.0, depth - 1)
        rv, re = rec(xm, x2, f1, frm, f2, right, tol / 2.0, depth - 1)
        return lv + rv, le + re

    if a == b:
        return 0.0, 0.0
    f0, f1, f2 = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = simpson(a, b, f0, f1, f2)
    return rec(a, b, f0, f1, f2, whole, atol, _SIMPSON_MAX_DEPTH)


# ---------------------------------------------------------------------------
# wave profiles and metric fields

@dataclass(frozen=True)
class WaveProfile:
    """Truncated sine-series standing wave on a string with fixed ends."""

    modes: tuple                 # coefficient of sin(m pi x / length), m = 1..M
    speed: float = 1.0
    length: float = math.pi

    def __post_init__(self):
        if len(self.modes) < 1:
            raise DomainError("need at least one mode")
        if not (self.speed > 0 and self.length > 0):
            raise DomainError("speed and length must be positive")
        object.__setattr__(self, "modes", tuple(float(a) for a in self.modes))

    @classmethod
    def triangular_pluck(cls, amplitude: float = 0.3, n_modes: int = 16) -> "WaveProfile":
        """A string of the default length and speed plucked at its midpoint."""
        length = cls.length
        a = length / 2.0
        coeffs = []
        for m in range(1, n_modes + 1):
            c = (2.0 * amplitude * length ** 2 /
                 (math.pi ** 2 * m ** 2 * a * (length - a))) * math.sin(m * math.pi * a / length)
            coeffs.append(c)
        return cls(tuple(coeffs))

    def slope(self, x: float, t: float) -> float:
        """d/dx of the displacement u(x, t)."""
        L, c = self.length, self.speed
        s = 0.0
        for m, A in enumerate(self.modes, start=1):
            w = m * math.pi / L
            s += A * w * math.cos(w * x) * math.cos(w * c * t)
        return s

    @property
    def period(self) -> float:
        return 2.0 * self.length / self.speed


@dataclass(frozen=True, eq=False)
class MetricField:
    """Family of validated metrics over a fixed label set, one per parameter.

    Each fibre is validated once, when the field is built: a matrix that is
    no metric on the labels raises MetricValidationError (a DomainError)
    there. `fibre_space(k)` returns the space kept from that validation, its
    meta the field's plus "theta", and `fibres` holds those spaces' read-only
    distance matrices.
    """

    labels: tuple
    thetas: tuple
    fibres: tuple                # distance matrices, one per theta
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.thetas) != len(self.fibres):
            raise DomainError("one fibre per parameter required")
        spaces = tuple(validate_metric(F, labels=self.labels, meta={**self.meta, "theta": t})
                       for t, F in zip(self.thetas, self.fibres))
        object.__setattr__(self, "_spaces", spaces)
        object.__setattr__(self, "fibres", tuple(sp.dist for sp in spaces))

    def __len__(self):
        return len(self.thetas)

    def fibre_space(self, k: int) -> FiniteMetricSpace:
        return self._spaces[k]


def wave_metric_field(profile: WaveProfile, t_grid, n_points: int = 17) -> MetricField:
    """Fibre metrics rho_t(a, b) = arc length along the displaced string.

    The integrand sqrt(1 + slope^2) is integrated per grid segment and
    accumulated, so fibres are line metrics (triangle equality along the
    order). The summed quadrature error bound is recorded in meta. n_points
    is a count (`config.as_positive_integer`: 17.0 is 17) of at least 2.
    """
    n_points = as_positive_integer(n_points, "n_points")
    if n_points < 2:
        raise DomainError("need at least two sample points")
    t_grid = tuple(float(t) for t in t_grid)
    if not t_grid:
        raise DomainError("empty parameter grid")
    xs = np.linspace(0.0, profile.length, n_points)
    fibres = []
    worst_err = 0.0
    for t in t_grid:
        fn = lambda x: math.sqrt(1.0 + profile.slope(x, t) ** 2)
        seg = np.zeros(n_points)
        err_total = 0.0
        for i in range(n_points - 1):
            val, err = adaptive_simpson(fn, xs[i], xs[i + 1])
            seg[i + 1] = val
            err_total += err
        S = np.cumsum(seg)
        fibres.append(np.abs(S[:, None] - S[None, :]))
        worst_err = max(worst_err, err_total)
    labels = tuple(f"x{i}" for i in range(n_points))
    return MetricField(labels, t_grid, tuple(fibres),
                       meta={"generator": "wave", "coords": tuple(map(float, xs)),
                             "length": profile.length, "quadrature_error": worst_err})


def circle_wave_metric(fld: MetricField) -> MetricField:
    """Quotient field on the circle obtained by identifying the string ends.

    The duplicated endpoint is dropped; distances take the shorter of the
    direct path and the two wrap-around paths through the seam, which
    symmetrises the one-wrap quotient formula.
    """
    if fld.meta.get("generator") != "wave":
        raise DomainError("circle identification expects a wave interval field")
    n = len(fld.labels)
    if n < 3:
        raise DomainError("need at least three points to glue the ends")
    out = []
    for D in fld.fibres:
        keep = slice(0, n - 1)
        direct = D[keep, keep]
        wrap_a = D[keep, 0][:, None] + D[n - 1, keep][None, :]
        Q = np.minimum(direct, np.minimum(wrap_a, wrap_a.T))
        out.append(Q)
    labels = fld.labels[:-1]
    coords = fld.meta.get("coords", ())[: n - 1]
    return MetricField(labels, fld.thetas, tuple(out),
                       meta={"generator": "wave-circle", "coords": coords,
                             "circumference": fld.meta.get("length"),
                             "quadrature_error": fld.meta.get("quadrature_error", 0.0)})


# ---------------------------------------------------------------------------
# Lipschitz envelopes

@dataclass(frozen=True)
class EnvelopeReport:
    thetas: tuple
    m: np.ndarray            # inf ratio against fibre 0
    M: np.ndarray            # sup ratio against fibre 0
    k: np.ndarray            # tight pairwise lower constants, k[s, t] rho_s <= rho_t
    K: np.ndarray            # tight pairwise upper constants, rho_t <= K[s, t] rho_s


def lipschitz_envelope(fld: MetricField) -> EnvelopeReport:
    """Exact inf/sup pairwise-ratio constants for every fibre pair.

    k[s, t] = min over point pairs of rho_t / rho_s (and K the max), so the
    sandwich k[s,t] rho_s <= rho_t <= K[s,t] rho_s holds with equality
    somewhere, and both constants are exactly 1 on the diagonal. The m/M
    curves are the constants against fibre 0, the first parameter.
    """
    T = len(fld)
    if T < 2:
        raise DomainError("need at least two fibres")
    n = len(fld.labels)
    iu = np.triu_indices(n, k=1)
    # validated fibres: every off-diagonal distance exceeds TOL.metric_atol
    flat = np.stack([F[iu] for F in fld.fibres])
    k = np.empty((T, T))
    K = np.empty((T, T))
    for s in range(T):
        ratios = flat / flat[s][None, :]
        k[s] = ratios.min(axis=1)
        K[s] = ratios.max(axis=1)
    for s in range(T):
        for t in range(T):
            lhs = k[s, t] * flat[s]
            rhs = K[s, t] * flat[s]
            if (lhs - flat[t]).max() > TOL.metric_atol or (flat[t] - rhs).max() > TOL.metric_atol:
                raise DomainError(f"envelope sandwich failed at fibre pair ({s},{t})")
    return EnvelopeReport(fld.thetas, k[0].copy(), K[0].copy(), k, K)


# ---------------------------------------------------------------------------
# nucleus fields

def retract_between_fibres(values: np.ndarray, K_upper: float, r: float) -> np.ndarray:
    """Map r-bounded 1-Lipschitz functions of one fibre into another's polytope:
    divide by the upper envelope constant and clip to [-r, r]."""
    return np.clip(values / K_upper, -r, r)


@dataclass(frozen=True)
class NucleusFieldReport:
    thetas: tuple
    nuclei: tuple
    hausdorff: np.ndarray        # sup-norm Hausdorff distance, consecutive fibres
    bound: np.ndarray            # retraction displacement + densities
    retraction_ok: bool = True


def nucleus_field(fld: MetricField, r: float, eps: float, **nucleus_kwargs):
    """Per-fibre nuclei plus measured sup-norm Hausdorff distances between
    consecutive fibres, certified against the retraction displacement bound."""
    sup_radius = max(0.5 * F.max() for F in fld.fibres)
    if r < sup_radius - TOL.metric_atol:
        raise DomainError(f"need r >= sup of fibre radii = {sup_radius!r}")
    spaces = [fld.fibre_space(k) for k in range(len(fld))]
    nuclei = [nucleus_net(sp, r, eps, **nucleus_kwargs) for sp in spaces]
    env = lipschitz_envelope(fld)
    T = len(fld)
    haus = np.zeros(max(T - 1, 0))
    bound = np.zeros(max(T - 1, 0))
    ok = True
    for i in range(T - 1):
        a, b = nuclei[i], nuclei[i + 1]
        d_ab = max(_directed_sup_hausdorff(a.values, b.values),
                   _directed_sup_hausdorff(b.values, a.values))
        haus[i] = d_ab
        # retraction i -> i+1 divides by K[i+1, i]; i+1 -> i by K[i, i+1]
        disp_ab = r * abs(1.0 - 1.0 / env.K[i + 1, i])
        disp_ba = r * abs(1.0 - 1.0 / env.K[i, i + 1])
        bound[i] = max(disp_ab + b.density, disp_ba + a.density)
        for (src, dst, Kc) in ((a, spaces[i + 1], env.K[i + 1, i]),
                               (b, spaces[i], env.K[i, i + 1])):
            moved = retract_between_fibres(src.values, Kc, r)
            if (_lipschitz_excess(moved, dst.dist) > TOL.lipschitz_atol
                    or np.abs(moved).max() > r + TOL.lipschitz_atol):
                ok = False
        if haus[i] > bound[i] + TOL.lipschitz_atol:
            ok = False
    return NucleusFieldReport(fld.thetas, tuple(nuclei), haus, bound, ok)


# ---------------------------------------------------------------------------
# Birkhoff-rate fields

@dataclass(frozen=True)
class BirkhoffFieldReport:
    thetas: tuple
    rates: tuple                 # per-fibre rate (None if unresolved)
    usc_flags: tuple             # sampled parameters where the rate dips below both neighbours


def birkhoff_field(fld: MetricField, h: DynMap, eps: float, r: float, n_max: int,
                   **nucleus_kwargs) -> BirkhoffFieldReport:
    """Per-fibre Birkhoff rates of h's point map with that fibre's nucleus,
    plus an upper semicontinuity diagnostic at the grid resolution."""
    rates = []
    for k in range(len(fld)):
        sp = fld.fibre_space(k)
        hk = DynMap(sp, h.idx, projection_error=h.projection_error)
        nuc = nucleus_net(sp, r, eps, **nucleus_kwargs)
        rep = birkhoff_rate(hk, nuc, eps, n_max)
        rates.append(rep.rate)
    flags = []
    for i in range(1, len(rates) - 1):
        trio = rates[i - 1], rates[i], rates[i + 1]
        if None in trio:
            continue
        if trio[0] > trio[1] < trio[2]:
            flags.append(fld.thetas[i])
    return BirkhoffFieldReport(fld.thetas, tuple(rates), tuple(flags))


# ---------------------------------------------------------------------------
# rotation fields

def circle_w1_atoms(pos_a, w_a, pos_b, w_b, L: float) -> float:
    """Exact 1-Wasserstein distance between atomic measures on a circle of
    circumference L with the arc metric: minimise the integral of
    |F_a - F_b - alpha| over the shift alpha (weighted median).

    The breakpoints are the atom positions (taken mod L) with 0 and L; the
    mass difference is read at every breakpoint before L, where an atom
    within TOL.atom_slack past a breakpoint counts as reached.
    """
    na = len(pos_a)
    W = np.zeros((2, na + len(pos_b)))
    W[0, :na] = w_a
    W[1, na:] = w_b
    pos = np.asarray(np.concatenate([pos_a, pos_b]), dtype=float) % L
    pts = np.unique(np.concatenate([pos, [0.0, L]]))
    order = np.argsort(pos, kind="stable")
    reached = np.searchsorted(pos[order], pts[:-1] + TOL.atom_slack, side="right")
    F = np.concatenate([np.zeros((2, 1)), np.cumsum(W[:, order], axis=1)], axis=1)[:, reached]
    return float(_circle_w1(F[0] - F[1], np.diff(pts)))


@dataclass(frozen=True)
class RotationFieldReport:
    t_grid: tuple
    theta: tuple                 # (p, q)
    net_size: int
    extremes_per_fibre: tuple
    dhat: np.ndarray             # invariant-simplex Hausdorff distances
    gamma: np.ndarray            # witnessed intertwining gaps via the fibre maps
    resolution: int
    extremes: tuple = ()         # per-fibre tuple of extreme invariant measures


def rotation_field(p: int, q: int, t_grid, net_size: int,
                   resolution: int = 1) -> RotationFieldReport:
    """Deformed rotation family g_t o h o g_t^{-1} with g_t(x) = x + (t/2) sin^2 x
    on the circle of circumference pi, where g_t is a homeomorphism since
    sin^2 has period pi.

    The base rotation turns by the fraction p/q of the full circle, p and q
    integers (`config.as_integer_argument`: 4.0 is 4); the net size, a count
    (`config.as_positive_integer`: 16.0 is 16), must be a multiple of q so
    the rotation is exact on the net. Each
    fibre's invariant simplex is spanned by the pushforwards of the periodic
    orbit uniforms under the projected g_t (a net permutation cannot carry a
    non-measure-preserving homeomorphism, so the projected g_t may be
    non-injective; pushforwards are still exact). Pairwise tables: dhat from
    mixture-net Hausdorff distances, gamma from the intertwining defect
    witnessed by the projected fibre maps g_s o g_t^{-1}.

    Each fibre's images g_t(x) of the net points are computed once, as one
    array. The projected g_t splits each image's mass linearly between its
    two net neighbours, so pushforwards vary continuously with t; an image
    within TOL.mesh_snap mesh lengths of a net point stays a point mass
    there. Both tables are closed-form W1 on the circle: the net is a
    cycle metric, so one `w1_table` per fibre s, from its mixture net to the
    nets of every later fibre (the weight rows that `mixture_rows` builds
    from the extremes in the report), holds a block per fibre t, and
    dhat[s, t] is that block's Hausdorff distance. Gamma reads the moved
    net g_t(X) itself: its arcs, with a table of cumulative mixture masses
    that the whole field shares, give each fibre's W1 between all mixture
    pairs in one weighted-median pass.
    """
    p, q = as_integer_argument(p, "p"), as_integer_argument(q, "q")
    if q <= 0 or math.gcd(p, q) != 1:
        raise DomainError("theta must be given as a reduced fraction p/q")
    net_size = as_positive_integer(net_size, "net_size")
    if net_size % q != 0:
        raise DomainError(f"net size must be a multiple of q={q}")
    X = circle_net(net_size, math.pi)
    base = invariant_measures(rotation(X, net_size * p // q)).extremes
    t_grid = tuple(float(t) for t in t_grid)
    T = len(t_grid)
    lam_grid = convex_grid(len(base), resolution)
    # g_t is increasing and fixes 0, so the moved net g_t(X) lists its atoms
    # in net order; every net point lies on exactly one orbit (of q points),
    # so in the mixture lam point x weighs lam_k / q, k its orbit. The mass on
    # [0, g_t(x)] is then one table for every fibre, and so are its pair
    # differences: only the arcs of the moved net change with t.
    orbit = np.argmax([mu.weights for mu in base], axis=0)
    F = np.cumsum(lam_grid[:, orbit] / q, axis=1)
    iu = np.triu_indices(len(lam_grid), k=1)
    G = F[iu[0]] - F[iu[1]]
    rows = np.arange(net_size)
    extreme_sets, atom_tables = [], []
    for t in t_grid:
        g = sine_pluck(t)
        images = np.array([g(x) for x in X.meta["coords"]])
        pos = images % math.pi / X.meta["mesh"]
        j = np.floor(pos)
        frac = pos - j
        j = j.astype(int)
        up = frac > 1.0 - TOL.mesh_snap
        j[up] += 1
        frac[up | (frac < TOL.mesh_snap)] = 0.0
        K = np.zeros((net_size, net_size))
        K[rows, j % net_size] = 1.0 - frac
        K[rows, (j + 1) % net_size] += frac
        extreme_sets.append([Measure(X, mu.weights @ K) for mu in base])
        tab = np.zeros((len(lam_grid), len(lam_grid)))
        tab[iu] = tab[iu[::-1]] = _circle_w1(G, np.diff(np.append(images, math.pi)))
        atom_tables.append(tab)
    nets = [mixture_rows(np.array([mu.weights for mu in ex]), lam_grid) for ex in extreme_sets]

    dhat = np.zeros((T, T))
    gamma = np.zeros((T, T))
    # The comparison map (g_s o g_t^{-1})_* carries the t-fibre extremes onto
    # the s-fibre extremes one by one, so its affine extension matches mixtures
    # with equal weights: the inversion defect vanishes exactly and the
    # intertwining defect is the worst change of W1 between matched mixtures,
    # evaluated on the exact (continuum) fibre atoms.
    for s in range(T - 1):
        table = w1_table(X, nets[s], np.concatenate(nets[s + 1:]))
        for t, block in enumerate(np.split(table, T - 1 - s, axis=1), start=s + 1):
            dhat[s, t] = dhat[t, s] = _table_hausdorff(block)
            gamma[s, t] = gamma[t, s] = float(np.abs(atom_tables[s] - atom_tables[t]).max())
    return RotationFieldReport(t_grid, (p, q), net_size,
                               tuple(len(ex) for ex in extreme_sets),
                               dhat, gamma, resolution,
                               extremes=tuple(tuple(ex) for ex in extreme_sets))


# ---------------------------------------------------------------------------
# continuity diagnostics for seminorm fields

@dataclass(frozen=True)
class ContinuityReport:
    thetas: tuple
    values: np.ndarray           # (sections, thetas) sampled seminorms
    usc_flags: tuple             # (section, theta) pairs where a lower dip was sampled
    envelope_ok: bool            # constant sections stayed within envelope bounds


def field_continuity_check(fld: MetricField, sections) -> ContinuityReport:
    """Sample per-fibre Lipschitz seminorms of the given sections.

    sections: arrays of shape (n_thetas, n_points) (a constant row means a
    constant section). Upper semicontinuity is diagnosed at grid resolution:
    a flag marks a sampled dip below both neighbours. For constant sections
    the envelope inequality k L_s <= L_t <= K L_s is asserted pairwise.
    """
    T = len(fld)
    atol = TOL.lipschitz_atol
    spaces = [fld.fibre_space(k) for k in range(T)]
    env = lipschitz_envelope(fld) if T >= 2 else None
    rows = []
    flags = []
    envelope_ok = True
    for si, sec in enumerate(sections):
        sec = np.asarray(sec, dtype=float)
        if sec.shape != (T, len(fld.labels)):
            raise DomainError("section shape must be (n_thetas, n_points)")
        vals = np.array([lipschitz_seminorm(Observable(spaces[k], sec[k])) for k in range(T)])
        rows.append(vals)
        for i in range(1, T - 1):
            if vals[i - 1] > vals[i] + atol and vals[i + 1] > vals[i] + atol:
                flags.append((si, fld.thetas[i]))
        constant = np.all(np.abs(sec - sec[0][None, :]) <= TOL.section_constant_atol)
        if constant and env is not None:
            # seminorms of a fixed function obey L_t in [k[t,s] L_s, K[t,s] L_s]
            for s in range(T):
                for t in range(T):
                    lo = env.k[t, s] * vals[s] - atol - TOL.metric_atol * vals[s]
                    hi = env.K[t, s] * vals[s] + atol + TOL.metric_atol * vals[s]
                    if not (lo <= vals[t] <= hi):
                        envelope_ok = False
    return ContinuityReport(fld.thetas, np.asarray(rows), tuple(flags), envelope_ok)
