"""Finite metric spaces: validation, constructors, nets, bridges.

A ``FiniteMetricSpace`` is a labelled point set with a validated distance
matrix, standing in for a compact metric space sampled on a finite net.
All operations are pure; spaces are immutable after construction.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import (TOL, DomainError, SpaceMismatchError, as_integer, as_integer_argument,
                     as_positive_integer)


class MetricValidationError(DomainError):
    """Raised when a matrix fails the metric axioms; carries every violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        head = "; ".join(v.detail for v in self.violations[:4])
        more = "" if len(self.violations) <= 4 else f" (+{len(self.violations) - 4} more)"
        super().__init__(f"not a metric: {head}{more}")


@dataclass(frozen=True)
class MetricViolation:
    kind: str              # shape | nonfinite | asymmetry | diagonal | negative | triangle
    indices: tuple
    detail: str


# cells of one (rows, n, n) block of the triangle test: each block takes
# max(1, _TRIANGLE_CELLS // n**2) rows of i. 256 KiB of float64: on a 2-core
# x86-64 host this ran faster than 2**14 or 2**16 cells at 48 and 64 points.
_TRIANGLE_CELLS = 1 << 15


def _triangle_bad(D, lo, rows, k0) -> np.ndarray:
    """bad[i - lo, j, k - k0] = D[i,k] > D[i,j] + D[j,k] + TOL.metric_atol,
    for the block of rows i = lo .. lo + rows - 1 and every k >= k0."""
    block = D[lo:lo + rows]
    rhs = block[:, :, None] + D[None, :, k0:]
    rhs += TOL.metric_atol
    return block[:, None, k0:] > rhs


def check_metric(D) -> list[MetricViolation]:
    """Return a report of every violated metric axiom (empty list if valid),
    each tested with slack TOL.metric_atol.

    Triangle violations are listed with their witnessing triples (i, j, k)
    in lexicographic order, capped at 64 entries per call. The triangle test
    runs over blocks of i, max(1, _TRIANGLE_CELLS // n**2) rows at a time,
    so its memory is O(n**2): one block of max(n**2, _TRIANGLE_CELLS) cells
    instead of three (n, n, n) arrays. Up to 32 points it is one block. Each
    block evaluates the same expression in the same order as the full cube,
    so every decision and the listed triples are the cube's. When D equals
    D.T exactly, a first pass tests only k >= lo in the block from row lo,
    which holds every triple with k >= i and, from 33 points up, skips up to
    half the cube; the full pass runs only when that one finds a violation.
    """
    D = np.asarray(D, dtype=float)
    out: list[MetricViolation] = []
    if D.ndim != 2 or D.shape[0] != D.shape[1] or D.shape[0] == 0:
        return [MetricViolation("shape", D.shape, f"expected nonempty square matrix, got shape {D.shape}")]
    if not np.all(np.isfinite(D)):
        i, j = np.argwhere(~np.isfinite(D))[0]
        return [MetricViolation("nonfinite", (int(i), int(j)), f"non-finite entry at ({i},{j})")]
    n = D.shape[0]
    atol = TOL.metric_atol
    skew = D - D.T
    asym = np.argwhere(np.abs(skew) > atol)
    for i, j in asym:
        if i < j:
            out.append(MetricViolation("asymmetry", (int(i), int(j)),
                                       f"asymmetry at ({i},{j}): {D[i, j]!r} != {D[j, i]!r}"))
    diag = np.argwhere(np.abs(np.diag(D)) > atol).ravel()
    for i in diag:
        out.append(MetricViolation("diagonal", (int(i),),
                                   f"nonzero diagonal at {i}: {D[i, i]!r}"))
    off = ~np.eye(n, dtype=bool)
    neg = np.argwhere((D <= atol) & off)
    for i, j in neg:
        if i < j:
            kind = "negative" if D[i, j] < -atol else "degenerate"
            out.append(MetricViolation(kind, (int(i), int(j)),
                                       f"nonpositive off-diagonal at ({i},{j}): {D[i, j]!r}"))
    # triangle: D[i,k] <= D[i,j] + D[j,k] for all triples, one block of i at a time
    rows = max(1, _TRIANGLE_CELLS // (n * n))
    blocks = range(0, n, rows)
    # an exactly symmetric D gives (i, j, k) and (k, j, i) the same two
    # sides, so the triples with k >= i decide; only a violation among them
    # runs the full test, which lists the witnesses
    if not skew.any() and not any(_triangle_bad(D, lo, rows, lo).any() for lo in blocks):
        return out
    left = 64
    for lo in blocks:
        bad = _triangle_bad(D, lo, rows, 0)
        if not bad.any():
            continue
        for i, j, k in np.argwhere(bad)[:left]:
            i += lo
            out.append(MetricViolation("triangle", (int(i), int(j), int(k)),
                                       f"triangle violation ({i},{j},{k}): "
                                       f"d({i},{k})={D[i, k]!r} > {D[i, j]!r}+{D[j, k]!r}"))
            left -= 1
        if not left:
            break
    return out


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Labelled point set with a validated distance matrix (length units shared)."""

    labels: tuple
    dist: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    @property
    def radius(self) -> float:
        return 0.5 * float(self.dist.max())


def validate_metric(D, labels: Sequence | None = None,
                    meta: dict | None = None) -> FiniteMetricSpace:
    """Validate a square distance matrix and wrap it as a space.

    Raises MetricValidationError carrying the full list of violated axioms.
    """
    violations = check_metric(D)
    if violations:
        raise MetricValidationError(violations)
    D = np.asarray(D, dtype=float).copy()
    D.flags.writeable = False
    n = D.shape[0]
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise MetricValidationError(
                [MetricViolation("shape", (len(labels), n), "label count does not match matrix size")])
    return FiniteMetricSpace(labels=labels, dist=D, meta=dict(meta or {}))


@dataclass(frozen=True)
class SubsetRef:
    """Nonempty, duplicate-free index set inside a fixed space; each index
    an integer by the rule of `config.as_integer_argument` (2.0 passes, 1.5
    and True do not)."""

    space: FiniteMetricSpace
    indices: tuple

    def __post_init__(self):
        idx = tuple(as_integer_argument(i, "subset index") for i in self.indices)
        if len(idx) == 0:
            raise DomainError("subset must be nonempty")
        if len(set(idx)) != len(idx):
            raise DomainError("subset contains duplicate indices")
        if min(idx) < 0 or max(idx) >= self.space.size:
            raise DomainError("subset index out of bounds")
        object.__setattr__(self, "indices", idx)


# ---------------------------------------------------------------------------
# constructors

def circle_net(n: int, circumference: float) -> FiniteMetricSpace:
    """n equispaced points on a circle with the geodesic (arc-length) metric;
    n is a count (`config.as_positive_integer`: 4.0 is 4) of at least 2."""
    n = as_positive_integer(n, "n")
    if n < 2:
        raise DomainError("circle_net needs n >= 2")
    if not circumference > 0:
        raise DomainError("circumference must be positive")
    step = circumference / n
    idx = np.arange(n)
    hops = np.minimum(np.abs(idx[:, None] - idx[None, :]), n - np.abs(idx[:, None] - idx[None, :]))
    D = hops * step
    coords = tuple(float(i * step) for i in range(n))
    return validate_metric(D, meta={"generator": "circle", "n": n,
                                    "circumference": float(circumference),
                                    "coords": coords, "mesh": step})


def interval_net(n: int, length: float) -> FiniteMetricSpace:
    """n equispaced points on [0, length] with the Euclidean metric; n is a
    count (`config.as_positive_integer`: 4.0 is 4) of at least 2."""
    n = as_positive_integer(n, "n")
    if n < 2:
        raise DomainError("interval_net needs n >= 2")
    if not length > 0:
        raise DomainError("length must be positive")
    xs = np.linspace(0.0, length, n)
    D = np.abs(xs[:, None] - xs[None, :])
    return validate_metric(D, meta={"generator": "interval", "n": n,
                                    "length": float(length),
                                    "coords": tuple(map(float, xs)),
                                    "mesh": length / (n - 1)})


def product_space(T: FiniteMetricSpace, X: FiniteMetricSpace,
                  combiner: str = "max") -> FiniteMetricSpace:
    """Product point set with the max or sum combination of the two metrics."""
    if combiner not in ("max", "sum"):
        raise DomainError(f"unknown combiner {combiner!r}")
    dT = T.dist[:, None, :, None]
    dX = X.dist[None, :, None, :]
    if combiner == "max":
        D = np.maximum(dT, dX)
    else:
        D = dT + dX
    n = T.size * X.size
    D = D.reshape(n, n)
    labels = tuple((lt, lx) for lt in T.labels for lx in X.labels)
    return validate_metric(D, labels=labels, meta={"generator": "product", "combiner": combiner})


# ---------------------------------------------------------------------------
# nets

def epsilon_net(X: FiniteMetricSpace, eps: float) -> SubsetRef:
    """Greedy farthest-point eps-net seeded at index 0.

    Every point of X ends up within eps (closed) of the returned subset.
    """
    if not eps > 0:      # negated, so a NaN eps cannot loop forever
        raise DomainError("eps must be positive")
    chosen = [0]
    mind = X.dist[0].copy()
    while True:
        far = int(np.argmax(mind))      # argmax takes the lowest index on ties
        if mind[far] <= eps:
            break
        chosen.append(far)
        mind = np.minimum(mind, X.dist[far])
    return SubsetRef(X, tuple(chosen))


# ---------------------------------------------------------------------------
# bridges and serialization

class BridgeConstructionError(DomainError):
    pass


def _check_map(f, X: FiniteMetricSpace, Y: FiniteMetricSpace) -> np.ndarray:
    """f as an int64 array; DomainError unless it has one entry per point of
    X, each an integer index of Y in [0, Y.size): a negative index would
    wrap, and a float would be truncated."""
    fm = np.asarray(f)
    if (fm.shape != (X.size,) or fm.dtype.kind not in "iu"
            or fm.min() < 0 or fm.max() >= Y.size):
        raise DomainError(f"map must send each of the {X.size} points to an integer "
                          f"index in [0, {Y.size})")
    return fm.astype(np.int64, copy=False)


def _same_space(*items) -> FiniteMetricSpace:
    """The one space that every item (a measure, map, nucleus, observable...)
    lives on, by identity; SpaceMismatchError naming the kinds of the first
    item and of the first that lives elsewhere."""
    space = items[0].space
    for x in items:
        if x.space is not space:
            raise SpaceMismatchError(f"{type(items[0]).__name__} and {type(x).__name__} "
                                     "live on different spaces")
    return space


def _map_distortion(f, X: FiniteMetricSpace, Y: FiniteMetricSpace) -> float:
    """max over point pairs (i, j) of X of |D_Y[f i, f j] - D_X[i, j]|."""
    return float(np.abs(Y.dist[np.ix_(f, f)] - X.dist).max())


def bridge_metric(X: FiniteMetricSpace, Y: FiniteMetricSpace, f, delta: float) -> FiniteMetricSpace:
    """Metric on the disjoint union X ⊔ Y induced by a comparison map f: X → Y.

    Cross distance: d(x, y) = min_z (d_X(x, z) + d_Y(f(z), y)) + delta/2.
    The parts keep their original metrics exactly. The construction yields a
    true metric when the distortion of f does not exceed delta; otherwise the
    triangle inequality can genuinely fail and a structured error is raised.
    """
    if not delta > 0:
        raise DomainError("delta must be positive")
    fm = _check_map(f, X, Y)
    distortion = _map_distortion(fm, X, Y)
    cross = (X.dist[:, :, None] + Y.dist[fm][None, :, :]).min(axis=1) + delta / 2.0
    n, m = X.size, Y.size
    D = np.zeros((n + m, n + m))
    D[:n, :n] = X.dist
    D[n:, n:] = Y.dist
    D[:n, n:] = cross
    D[n:, :n] = cross.T
    labels = tuple(("X", l) for l in X.labels) + tuple(("Y", l) for l in Y.labels)
    try:
        return validate_metric(D, labels=labels,
                               meta={"generator": "bridge", "delta": float(delta),
                                     "split": n, "distortion": distortion})
    except MetricValidationError as exc:
        raise BridgeConstructionError(
            f"bridge output is not a metric (map distortion {distortion:.3g} exceeds "
            f"delta {delta:.3g}?): {exc}") from exc


def space_from_json(doc: dict | str) -> FiniteMetricSpace:
    """Load a space from {"labels", "dist"} or {"generator", "params"} documents.

    A malformed document (a missing key, a generator other than circle,
    interval and product, a product combiner other than max and sum, or a
    generator param its conversion rejects: a circle or interval "n" must
    be an integer, so 6.7, "6" and true are refused) raises ValueError
    naming the key."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError(f"a space must be a JSON object, not {type(doc).__name__}")
    if "generator" in doc:
        gen = doc["generator"]
        params = doc.get("params", {})
        if gen == "circle":
            return circle_net(_key(params, "n", as_integer), _key(params, "circumference", float))
        if gen == "interval":
            return interval_net(_key(params, "n", as_integer), _key(params, "length", float))
        if gen == "product":
            left, right = (space_from_json(_key(params, side)) for side in ("left", "right"))
            combiner = params.get("combiner", "max")
            if combiner not in ("max", "sum"):
                raise ValueError(f"space key 'combiner' must be 'max' or 'sum', not {combiner!r}")
            return product_space(left, right, combiner)
        raise ValueError(f"space key 'generator' must be circle, interval or product, not {gen!r}")
    labels = doc.get("labels")
    if labels is not None:
        labels = tuple(tuple(l) if isinstance(l, list) else l for l in labels)
    return validate_metric(_key(doc, "dist", lambda v: np.asarray(v, dtype=float)),
                           labels=labels)


def _key(doc, key: str, convert=None):
    """doc[key] passed through convert; ValueError naming the key when it is
    missing or convert rejects it."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"space document is missing key {key!r}")
    if convert is None:
        return doc[key]
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"space key {key!r} has an invalid value {doc[key]!r}: {exc}") from exc
