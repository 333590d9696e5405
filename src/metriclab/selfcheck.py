"""Seeded invariant battery behind the CLI `check` scenario.

Each check re-verifies one cross-module identity on randomized inputs;
the suite is deterministic for a fixed seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .lipgeom import (MatrixObservable, matrix_trace_observable, nucleus_net,
                      operator_norm, state_metric)
from .rng import SplitMix64
from .spaces import circle_net, interval_net, validate_metric
from .transport import (Measure, _w1_solve, _w1_witness, mix, point_mass, pushforward,
                        wasserstein1, wasserstein_inf)


# a worst value at or below this is rounding noise, printed as the bound
# "<= 1e-12" and not as its digits, which vary with the BLAS kernel
_NOISE_FLOOR = 1e-12


def _max_detail(label: str, worst: float) -> str:
    """The detail "max <label> <worst>", with worst as "<= 1e-12" when it is
    at most _NOISE_FLOOR and at .2e otherwise."""
    return f"max {label} " + (f"<= {_NOISE_FLOOR:g}" if worst <= _NOISE_FLOOR else f"{worst:.2e}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _random_space(rng: SplitMix64, n: int):
    pts = rng.uniforms(2 * n).reshape(n, 2) * 4.0
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return validate_metric(D)


def _random_measure(rng: SplitMix64, space) -> Measure:
    w = rng.uniforms(space.size) + 1e-3
    return Measure(space, w / w.sum())


def run_checks(seed: int = 0) -> list[CheckResult]:
    rng = SplitMix64(seed)
    out: list[CheckResult] = []

    worst = 0.0
    for _ in range(20):
        X = _random_space(rng, 3 + rng.randint(5))
        mu, nu = _random_measure(rng, X), _random_measure(rng, X)
        primal, _, sinks, col_pot = _w1_solve(mu, nu)
        dual, _ = _w1_witness(mu, nu, primal, sinks, col_pot)
        worst = max(worst, abs(primal - dual))
    out.append(CheckResult("transport-duality", worst <= TOL.duality_gap,
                           _max_detail("gap", worst)))

    worst = 0.0
    for _ in range(15):
        X = _random_space(rng, 3 + rng.randint(4))
        a, b, c = (_random_measure(rng, X) for _ in range(3))
        ab, _ = wasserstein1(a, b)
        bc, _ = wasserstein1(b, c)
        ac, _ = wasserstein1(a, c)
        worst = max(worst, ac - ab - bc)
    out.append(CheckResult("w1-triangle", worst <= TOL.duality_gap,
                           _max_detail("excess", worst)))

    worst = 0.0
    for _ in range(15):
        X = _random_space(rng, 4 + rng.randint(3))
        mu, nu = _random_measure(rng, X), _random_measure(rng, X)
        w1v, _ = wasserstein1(mu, nu)
        winf = wasserstein_inf(mu, nu)
        worst = max(worst, w1v - winf)
    out.append(CheckResult("w1-below-winf", worst <= TOL.duality_gap,
                           _max_detail("excess", worst)))

    ok = True
    detail = ""
    for _ in range(10):
        X = circle_net(6 + 2 * rng.randint(3), 2 * np.pi)
        shift = rng.randint(X.size)
        h = (np.arange(X.size) + shift) % X.size
        mu, nu = _random_measure(rng, X), _random_measure(rng, X)
        before, _ = wasserstein1(mu, nu)
        after, _ = wasserstein1(pushforward(mu, h), pushforward(nu, h))
        if after > before + TOL.duality_gap:
            ok, detail = False, f"isometry pushforward expanded W1 by {after - before:.2e}"
    out.append(CheckResult("pushforward-contraction", ok, detail or "ok"))

    worst = 0.0
    for _ in range(20):
        X = _random_space(rng, 3 + rng.randint(3))
        n = 2 + rng.randint(2)
        vals = rng.uniforms(X.size * n * n).reshape(X.size, n, n) - 0.5
        herm = vals + vals.transpose(0, 2, 1)
        F = MatrixObservable(X, n, herm.astype(complex))
        tr = matrix_trace_observable(F)
        for i in range(X.size):
            for j in range(i + 1, X.size):
                gap = abs(tr.values[i] - tr.values[j])
                opn = operator_norm(F.values[i] - F.values[j])
                worst = max(worst, gap - opn)
    out.append(CheckResult("trace-inequality", worst <= TOL.lipschitz_atol,
                           _max_detail("excess", worst)))

    ok = True
    X = interval_net(4, 2.0)
    nuc = nucleus_net(X, X.radius, 0.4)
    metric = state_metric([point_mass(X, i) for i in range(X.size)], nuc.values)
    err = np.abs(metric - X.dist).max()
    ok = err <= 0.4 * (1.0 + X.diameter / X.radius) + 1e-12
    out.append(CheckResult("duality-roundtrip", ok, f"recovery error {err:.2e}"))

    ok = True
    for _ in range(10):
        X = _random_space(rng, 4)
        ms = [_random_measure(rng, X) for _ in range(3)]
        lam = rng.uniforms(3)
        lam /= lam.sum()
        h = np.array([rng.randint(X.size) for _ in range(X.size)])
        a = pushforward(mix(ms, lam), h)
        b = mix([pushforward(m, h) for m in ms], lam)
        if np.abs(a.weights - b.weights).max() > TOL.weight_atol:
            ok = False
    out.append(CheckResult("mix-pushforward-commute", ok, "ok" if ok else "failed"))

    return out
