"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary and timings.
"""
import itertools
import math
import time

import numpy as np
import pytest

from metriclab import (DynMap, MatrixObservable, Measure, MetricField, RandomMapFamily,
                       SearchBudget, WaveProfile, circle_net, dq_upper,
                       fukaya_distance, gh_distance, intertwining_gap, interval_net,
                       invariant_measures, ldp_experiment, lipschitz_envelope,
                       lipschitz_seminorm, matrix_nucleus_membership,
                       matrix_trace_observable, nucleus_decompose, nucleus_field,
                       nucleus_net, point_mass, rotation, rotation_field, simplex_net,
                       state_metric, validate_metric, wasserstein1, wasserstein1_dual,
                       wasserstein_inf, wave_metric_field)
from metriclab.dynamics import birkhoff_rate
from metriclab.fields import retract_between_fibres
from metriclab.lipgeom import operator_norm
from metriclab.transport import convex_grid

from oracles import (birkhoff_curve_brute, gh_exhaustive, riemann_arc_length,
                     w1_exhaustive, winf_hall)


def _report(num, text, t0):
    print(f"\n[PASS] criterion {num}: {text} ({time.time() - t0:.1f}s)")


def _random_space(rng, n):
    pts = rng.uniform(0, 4, size=(n, 2))
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    D += 0.05 * (1 - np.eye(n))
    return validate_metric(D)


def _random_measure(rng, X):
    w = rng.uniform(0.01, 1.0, size=X.size)
    return Measure(X, w / w.sum())


def test_criterion_1_transport_duality():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for _ in range(200):
        X = _random_space(rng, int(rng.integers(2, 13)))
        mu, nu = _random_measure(rng, X), _random_measure(rng, X)
        primal, _ = wasserstein1(mu, nu)
        dual, _ = wasserstein1_dual(mu, nu)
        assert abs(primal - dual) <= 1e-7
    for _ in range(100):
        X = _random_space(rng, int(rng.integers(2, 13)))
        a, b, c = (_random_measure(rng, X) for _ in range(3))
        ab, _ = wasserstein1(a, b)
        bc, _ = wasserstein1(b, c)
        ac, _ = wasserstein1(a, c)
        assert ac <= ab + bc + 1e-7
        assert abs(ab - wasserstein1(b, a)[0]) <= 1e-7
        assert wasserstein1(a, a)[0] <= 1e-7
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(1, "duality gap <= 1e-7 on 200 pairs; W1 metric axioms on 100 triples", t0)


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    X = _random_space(rng, 4)
    D = X.dist.tolist()
    grid = [Measure(X, w) for w in convex_grid(4, 4)]
    assert len(grid) == 35
    for mu, nu in itertools.combinations(grid, 2):
        expect = w1_exhaustive(mu.weights, nu.weights, D, 4)
        got, _ = wasserstein1(mu, nu)
        assert abs(got - expect) <= 1e-9
        assert abs(wasserstein_inf(mu, nu)
                   - winf_hall(mu.weights.tolist(), nu.weights.tolist(), D)) <= 1e-9
    _report(2, "W1 and Winf match exhaustive oracles on the full quarter-weight family", t0)


def test_criterion_3_duality_round_trip():
    t0 = time.time()
    for X in (interval_net(6, math.pi), circle_net(8, 2 * math.pi)):
        r = X.radius
        bound_scale = 1.0 + X.diameter / r
        states = [point_mass(X, i) for i in range(X.size)]
        errors = []
        for eps in (0.2, 0.1, 0.05):
            nuc = nucleus_net(X, r, eps, sample_budget=256, probe_count=32)
            M = state_metric(states, nuc.values)
            err = float(np.abs(M - X.dist).max())
            assert err <= eps * bound_scale + 1e-9
            errors.append(err)
        assert errors[0] >= errors[1] - 1e-12 >= errors[2] - 2e-12
    _report(3, "state metric from nuclei recovers the ground metric, error decreasing", t0)


def test_criterion_4_matrix_model():
    t0 = time.time()
    rng = np.random.default_rng(404)
    done = 0
    while done < 100:
        n = int(rng.choice([2, 3]))
        X = _random_space(rng, int(rng.integers(2, 7)))
        a = rng.normal(size=(X.size, n, n)) + 1j * rng.normal(size=(X.size, n, n))
        F = MatrixObservable(X, n, (a + a.conj().transpose(0, 2, 1)) / 2)
        tr = matrix_trace_observable(F)
        for i in range(X.size):
            for j in range(i + 1, X.size):
                gap = abs(tr.values[i] - tr.values[j])
                assert gap <= operator_norm(F.values[i] - F.values[j]) + 1e-9
        L = lipschitz_seminorm(tr)
        if L < 1e-9:
            continue
        F = MatrixObservable(X, n, F.values / L)
        dec = nucleus_decompose(F, X.radius)
        eye = np.eye(n, dtype=complex)
        recon = dec.G.values + dec.c * eye[None] + dec.H.values
        assert np.abs(recon - F.values).max() <= 1e-12
        assert matrix_nucleus_membership(dec.G, X.radius).ok
        assert (np.abs(np.trace(dec.H.values, axis1=1, axis2=2)) / n).max() <= 1e-9
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(4, "Weyl trace inequality and exact nucleus decomposition on 100 fields", t0)


def test_criterion_5_quasimetric_and_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(505)
    nets = []
    for k in range(10):
        n = 3 if k % 2 == 0 else 4
        m = 2 if n == 3 else 1
        nets.append(simplex_net(_random_space(rng, n), m))
    triples = list(itertools.combinations(range(len(nets)), 3))[:30]
    assert len(triples) == 30
    budget = SearchBudget(max_map_pairs=300_000)
    gap_cache = {}

    def gap(i, j):
        if (i, j) not in gap_cache:
            res = intertwining_gap(nets[i], nets[j], budget)
            assert res.exhaustive
            gap_cache[(i, j)] = gap_cache[(j, i)] = res
        return gap_cache[(i, j)]

    for (a, b, c) in triples:
        gab, gbc, gac = gap(a, b), gap(b, c), gap(a, c)
        dens = 2 * max(nets[a].density, nets[b].density, nets[c].density)
        assert gac.value <= 2 * (gab.value + gbc.value) + dens + 1e-9
        fac = fukaya_distance(nets[a], nets[c], budget)
        assert fac.exhaustive
        assert fac.value <= gac.value + 1e-9
        dq = dq_upper(nets[a], nets[c], gac.report.forward)
        assert gac.value <= 2 * dq + 2 * max(nets[a].density, nets[c].density) + 1e-9
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(5, "quasimetric with constant 2, fukaya <= gamma <= 2 dq_upper on 30 triples", t0)


def test_criterion_6_gh_oracle():
    t0 = time.time()
    rng = np.random.default_rng(606)
    for _ in range(20):
        d1, d2 = rng.uniform(0.3, 5.0, size=2)
        X = validate_metric([[0, d1], [d1, 0]])
        Y = validate_metric([[0, d2], [d2, 0]])
        v, kind = gh_distance(X, Y)
        assert kind == "exact"
        assert v == pytest.approx(abs(d1 - d2) / 2, abs=1e-12)
    for _ in range(5):
        X = _random_space(rng, int(rng.integers(2, 5)))
        Y = _random_space(rng, int(rng.integers(2, 5)))
        v, kind = gh_distance(X, Y)
        assert kind == "exact"
        assert v == pytest.approx(gh_exhaustive(X.dist.tolist(), Y.dist.tolist()), abs=1e-9)
    _report(6, "two-point GH formula (20 draws) and exhaustive confirmation (<= 4 points)", t0)


def test_criterion_7_birkhoff_rates():
    t0 = time.time()
    for q in (4, 6, 8):
        X = circle_net(q, 2 * math.pi)
        h = rotation(X, 1)
        nuc = nucleus_net(X, X.radius, 0.1, sample_budget=128, probe_count=16)
        n_max = 8 * q
        rep = birkhoff_rate(h, nuc, eps=0.1, n_max=n_max)
        for k in range(1, n_max // q + 1):
            assert rep.deviation(k * q) <= 1e-12
        nu = invariant_measures(h).extremes[0]
        means = nuc.values @ nu.weights
        curve = birkhoff_curve_brute(h.idx.tolist(), nuc.values.tolist(),
                                     means.tolist(), n_max)
        above = [n for n in range(1, n_max + 1) if curve[n - 1] > 0.1]
        expect = (above[-1] + 1) if above else 1
        assert rep.resolved and rep.rate == expect
    _report(7, "deviation vanishes on full orbits; rates match the trajectory oracle", t0)


def test_criterion_8_ldp_two_contractions():
    t0 = time.time()
    X = interval_net(16, 1.0)
    coords = np.asarray(X.meta["coords"])

    def proj(y):
        return int(np.argmin(np.abs(coords - y)))

    half = DynMap(X, np.array([proj(c / 2) for c in coords]), label="half")
    shift = DynMap(X, np.array([proj(c / 2 + 0.5) for c in coords]), label="half+")
    fam = RandomMapFamily((half, shift), np.array([0.5, 0.5]))
    nuc = nucleus_net(X, X.radius, 0.25, sample_budget=64, probe_count=16)
    rep = ldp_experiment(fam, nuc, eps=0.15, n_values=[4, 8, 16, 32, 64],
                         trials=10_000, seed=2024)
    probs = np.asarray(rep.probabilities)
    bands = 3.0 * np.sqrt(np.maximum(probs * (1 - probs), 1e-6) / rep.trials)
    assert (np.diff(probs) <= bands[:-1] + bands[1:]).all()
    assert rep.c2 > 0
    assert rep.fit_quality >= 0.9
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(8, f"deviation decay fit c2={rep.c2:.3g} with quality {rep.fit_quality:.3f}", t0)


def test_criterion_9_wave_field():
    t0 = time.time()
    # flat profile: Euclidean at every time, exactly
    flat = wave_metric_field(WaveProfile((0.0,), 1.0, math.pi),
                             [0.0, 0.8, 1.7, 2.9], n_points=9)
    xs = np.asarray(flat.meta["coords"])
    euclid = np.abs(xs[:, None] - xs[None, :])
    for F in flat.fibres:
        assert np.abs(F - euclid).max() == 0.0
    # single mode at the zero crossing of cos t
    A = 0.5
    single = wave_metric_field(WaveProfile((A,), 1.0, math.pi),
                               [math.pi / 2], n_points=9)
    assert np.abs(single.fibres[0] - euclid).max() <= 1e-8
    # k/K sandwich at every sampled fibre pair
    wave = wave_metric_field(WaveProfile((A,), 1.0, math.pi),
                             np.linspace(0.0, 2.5, 6), n_points=9)
    env = lipschitz_envelope(wave)
    iu = np.triu_indices(9, k=1)
    for s in range(6):
        for t in range(6):
            assert (env.k[s, t] * wave.fibres[s][iu] <= wave.fibres[t][iu] + 1e-9).all()
            assert (wave.fibres[t][iu] <= env.K[s, t] * wave.fibres[s][iu] + 1e-9).all()
    # arc lengths against the million-point Riemann oracle
    t_probe = 0.4
    fld = wave_metric_field(WaveProfile((A,), 1.0, math.pi), [t_probe], n_points=5)
    xs5 = np.asarray(fld.meta["coords"])
    for i, j in ((0, 4), (1, 3), (0, 2)):
        expect = riemann_arc_length(
            lambda x: A * np.cos(x) * math.cos(t_probe), xs5[i], xs5[j], n=1_000_000)
        assert abs(fld.fibres[0][i, j] - expect) <= 1e-6
    _report(9, "flat/zero-crossing fibres Euclidean; sandwich holds; quadrature vs 1e6-point oracle", t0)


def test_criterion_10_rotation_field():
    t0 = time.time()
    rep = rotation_field(1, 4, np.linspace(-1.0, 1.0, 9), 32, resolution=1)
    assert np.abs(np.diag(rep.dhat)).max() == 0.0
    assert np.abs(np.diag(rep.gamma)).max() == 0.0
    assert np.array_equal(rep.dhat, rep.dhat.T)
    assert np.array_equal(rep.gamma, rep.gamma.T)
    for M in (rep.dhat, rep.gamma):
        for i in range(9):
            row = M[i]
            left = row[:i + 1][::-1]
            right = row[i:]
            assert all(left[k] <= left[k + 1] + 1e-12 for k in range(len(left) - 1))
            assert all(right[k] <= right[k + 1] + 1e-12 for k in range(len(right) - 1))
    # the t = 0 fibre extremes are exactly the 4-periodic orbit uniforms
    k0 = list(rep.t_grid).index(0.0)
    X = circle_net(32, math.pi)
    base = invariant_measures(rotation(X, 8))
    got = sorted(tuple(m.weights) for m in rep.extremes[k0])
    expect = sorted(tuple(m.weights) for m in base.extremes)
    assert len(got) == 8
    for g, e in zip(got, expect):
        assert np.abs(np.asarray(g) - np.asarray(e)).max() <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(10, "fibre tables vanish on the diagonal, symmetric, monotone; exact base extremes", t0)


def test_criterion_11_nucleus_field_retraction():
    t0 = time.time()
    X = interval_net(3, 2.0)
    thetas = (0.0, 0.25, 0.5)
    fld = MetricField(X.labels, thetas, tuple((1.0 + t) * X.dist for t in thetas),
                      meta={"generator": "scaled"})
    r = 1.5 * X.radius
    rep = nucleus_field(fld, r, 0.4, sample_budget=256, probe_count=32)
    assert all(nuc.complete for nuc in rep.nuclei)
    assert rep.retraction_ok
    env = lipschitz_envelope(fld)
    for i in range(len(thetas) - 1):
        assert rep.hausdorff[i] <= rep.bound[i] + 1e-9
        for (src, dst, Kc) in ((rep.nuclei[i], fld.fibre_space(i + 1), env.K[i + 1, i]),
                               (rep.nuclei[i + 1], fld.fibre_space(i), env.K[i, i + 1])):
            moved = retract_between_fibres(src.values, Kc, r)
            diffs = np.abs(moved[:, :, None] - moved[:, None, :]) - dst.dist[None, :, :]
            assert diffs.max() <= 1e-9
            assert np.abs(moved).max() <= r + 1e-9
    _report(11, "retracted nuclei pass target membership; Hausdorff within displacement bound", t0)
