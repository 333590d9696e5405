import math

import numpy as np
import pytest

from metriclab import (DomainError, DynMap, Observable, SpaceMismatchError, birkhoff_rate,
                       circle_net, crossed_product_seminorm, deform, egh_distance,
                       identity_map, interval_net, invariant_measures,
                       invariant_simplex_hausdorff, lipschitz_seminorm, mix, nucleus_net,
                       point_mass, project_circle_map, rotation, sine_pluck_map,
                       validate_metric, wasserstein1)
from metriclab import distances, dynamics
from metriclab.distances import MapCost
from metriclab.dynamics import z_action_window
from metriclab.spaces import _map_distortion

from oracles import (birkhoff_curve_brute, crossed_product_seminorm_loop, egh_cost_direct,
                     enumerate_maps_loop, invariant_simplex_hausdorff_loop,
                     lipnorm_from_state_metric, measure_mixtures_loop,
                     permutation_invariant_measures, project_circle_map_loop)


def _random_dynamics(rng, extremes: int = 2):
    """A random self-map with at least `extremes` extreme invariant measures
    on a random circle net, interval net or planar space."""
    while True:
        n = int(rng.integers(2, 8))
        kind = int(rng.integers(3))
        if kind == 0:
            X = circle_net(n, float(rng.uniform(0.5, 8.0)))
        elif kind == 1:
            X = interval_net(n, float(rng.uniform(0.5, 8.0)))
        else:
            pts = rng.uniform(0.0, 5.0, size=(n, 2))
            X = validate_metric(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2)))
        idx = rng.permutation(n) if rng.uniform() < 0.6 else rng.integers(0, n, size=n)
        h = DynMap(X, idx)
        if len(invariant_measures(h).extremes) >= extremes:
            return h


class TestMaps:
    def test_rotation_examples(self):
        X = circle_net(4, 2 * math.pi)
        assert np.array_equal(rotation(X, 0).idx, np.arange(4))
        r1 = rotation(X, 1)
        assert np.array_equal(r1.idx, [1, 2, 3, 0])
        assert np.array_equal(rotation(X, 4).idx, np.arange(4))

    def test_rotation_needs_circle(self):
        with pytest.raises(DomainError):
            rotation(interval_net(4, 1.0), 1)

    def test_compose_needs_one_space(self):
        # a map on another space of the same size is no map of this one
        h, g = rotation(circle_net(5, 2 * math.pi), 1), rotation(circle_net(5, 7.0), 2)
        with pytest.raises(SpaceMismatchError):
            h.compose(g)
        with pytest.raises(SpaceMismatchError):
            g.compose(h)
        assert np.array_equal(h.compose(h).idx, rotation(h.space, 2).idx)

    def test_sine_pluck_projection(self):
        X = circle_net(16, math.pi)
        g0 = sine_pluck_map(X, 0.0)
        assert np.array_equal(g0.idx, np.arange(16))
        assert g0.projection_error == 0.0
        g = sine_pluck_map(X, 0.4)
        assert g.projection_error <= 0.5 * X.meta["mesh"] + 1e-12


class TestProjectCircleMap:
    """One vectorised pass gives the indices and projection error of the
    scalar loop it replaced, ties included."""

    def test_equal_to_scalar_loop(self, rng):
        ties = 0
        for _ in range(600):
            n = int(rng.integers(2, 25))
            L = float(rng.choice([math.pi, 1.0, 2 * math.pi, rng.uniform(0.3, 9.0)]))
            X = circle_net(n, L)
            mesh = L / n
            kind = int(rng.integers(5))
            a, b, c = rng.uniform(-2.0, 2.0), int(rng.integers(1, 6)), rng.uniform(-L, L)
            if kind == 0:       # sine pluck, any circumference
                fn = lambda x, a=a: x + 0.5 * a * math.sin(x) ** 2
            elif kind == 1:     # shift, possibly by more than a turn
                fn = lambda x, c=c: x + 2.0 * c
            elif kind == 2:     # exact half-mesh shift: every image ties
                fn = lambda x, k=b - 3: x + (k + 0.5) * mesh
            elif kind == 3:     # whole-mesh shift: every image on the net
                fn = lambda x, k=b - 3: x + k * mesh
            else:               # non-monotone
                fn = lambda x, a=a, b=b, c=c: x + a * L * math.sin(b * x + c)
            want_idx, want_err = project_circle_map_loop(X, fn)
            got = project_circle_map(X, fn)
            assert np.array_equal(got.idx, want_idx)
            assert got.projection_error == want_err
            y = np.array([fn(x) for x in X.meta["coords"]]) % L
            ties += int(np.sum(got.idx != np.rint(y / mesh).astype(int) % n))
        assert ties > 0         # the lower-index rule was exercised

    def test_non_finite_image_rejected(self):
        X = circle_net(6, math.pi)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="non-finite"):
                project_circle_map(X, lambda x, bad=bad: bad if x > 1.0 else x)


class TestDeform:
    def test_identity_deformation(self):
        X = circle_net(6, 2 * math.pi)
        h = rotation(X, 1)
        assert np.array_equal(deform(identity_map(X), h).idx, h.idx)

    def test_commuting_rotations(self):
        X = circle_net(6, 2 * math.pi)
        g, h = rotation(X, 2), rotation(X, 1)
        assert np.array_equal(deform(g, h).idx, h.idx)

    def test_zero_pluck_is_identity_deformation(self):
        X = circle_net(8, math.pi)
        h = rotation(X, 2)
        g0 = sine_pluck_map(X, 0.0)
        assert np.array_equal(deform(g0, h).idx, h.idx)

    def test_non_invertible_rejected(self):
        X = interval_net(3, 1.0)
        g = DynMap(X, [0, 0, 2])
        with pytest.raises(DomainError):
            deform(g, identity_map(X))


class TestInvariantMeasures:
    def test_identity_gives_point_masses(self):
        X = interval_net(3, 1.0)
        sim = invariant_measures(identity_map(X))
        assert len(sim.extremes) == 3
        assert all(m.weights.max() == 1.0 for m in sim.extremes)

    def test_four_cycle_uniquely_ergodic(self):
        X = circle_net(4, 2 * math.pi)
        sim = invariant_measures(rotation(X, 1))
        assert sim.uniquely_ergodic
        assert np.allclose(sim.extremes[0].weights, 0.25)

    def test_two_cycles_match_eigen_oracle(self):
        X = circle_net(4, 2 * math.pi)
        h = rotation(X, 2)
        sim = invariant_measures(h)
        assert len(sim.extremes) == 2
        got = sorted(tuple(m.weights) for m in sim.extremes)
        assert got == [(0.0, 0.5, 0.0, 0.5), (0.5, 0.0, 0.5, 0.0)]
        # every eigenvector-oracle invariant vector lies in the extreme hull
        hull = np.stack([m.weights for m in sim.extremes])
        for v in permutation_invariant_measures(h.idx.tolist()):
            coef, *_ = np.linalg.lstsq(hull.T, v, rcond=None)
            assert np.allclose(hull.T @ coef, v, atol=1e-9)

    def test_non_bijective_terminal_cycle(self):
        X = interval_net(4, 1.0)
        h = DynMap(X, [1, 2, 1, 2])   # everything falls into the 2-cycle {1, 2}
        sim = invariant_measures(h)
        assert len(sim.extremes) == 1
        assert np.allclose(sim.extremes[0].weights, [0, 0.5, 0.5, 0])

    def test_convex_combinations_invariant(self, rng):
        X = circle_net(6, 3.0)
        h = rotation(X, 2)
        sim = invariant_measures(h)
        lam = rng.dirichlet(np.ones(len(sim.extremes)))
        mu = mix(list(sim.extremes), lam)
        from metriclab import pushforward
        assert np.allclose(pushforward(mu, h).weights, mu.weights)

    def test_supports_partition(self):
        X = circle_net(6, 3.0)
        sim = invariant_measures(rotation(X, 3))
        total = np.zeros(6)
        for m in sim.extremes:
            total += (m.weights > 0)
        assert np.array_equal(total, np.ones(6))


class TestSimplexHausdorff:
    def test_same_dynamics_zero(self):
        X = circle_net(4, 2.0)
        h = rotation(X, 2)
        assert invariant_simplex_hausdorff(h, h, 2) == 0.0

    def test_uniquely_ergodic_pair(self):
        X = circle_net(4, 2 * math.pi)
        h1 = rotation(X, 1)
        h2 = DynMap(X, [0, 0, 0, 0])
        v = invariant_simplex_hausdorff(h1, h2, 3)
        mu1 = invariant_measures(h1).extremes[0]
        mu2 = invariant_measures(h2).extremes[0]
        assert v == pytest.approx(wasserstein1(mu1, mu2)[0])

    def test_equal_to_measure_list_route(self, rng):
        for _ in range(60):
            h1 = _random_dynamics(rng, 1)
            h2 = DynMap(h1.space, rng.integers(0, h1.space.size, size=h1.space.size))
            m = int(rng.integers(1, 4))
            assert invariant_simplex_hausdorff(h1, h2, m) == \
                invariant_simplex_hausdorff_loop(h1, h2, m)


class TestBirkhoff:
    def test_constant_contributes_zero(self):
        X = circle_net(4, 2.0)
        h = rotation(X, 1)
        nuc = nucleus_net(X, X.radius, 0.4)
        rep = birkhoff_rate(h, nuc, eps=2 * X.radius + 1.0, n_max=10)
        assert rep.rate == 1

    def test_nan_eps_rejected(self):
        # `curve > NaN` is all False, which would read as rate 1, resolved
        X = circle_net(4, 2.0)
        nuc = nucleus_net(X, X.radius, 0.4)
        with pytest.raises(DomainError):
            birkhoff_rate(rotation(X, 1), nuc, eps=math.nan, n_max=10)

    def test_cycle_multiples_vanish(self):
        for q in (4, 6):
            X = circle_net(q, 2 * math.pi)
            h = rotation(X, 1)
            nuc = nucleus_net(X, X.radius, 0.3)
            rep = birkhoff_rate(h, nuc, eps=0.1, n_max=4 * q)
            for k in range(1, 4):
                assert rep.deviation(k * q) <= 1e-12

    def test_rate_matches_brute_force(self):
        X = circle_net(4, 2 * math.pi)
        h = rotation(X, 1)
        nuc = nucleus_net(X, X.radius, 0.35)
        n_max = 30
        rep = birkhoff_rate(h, nuc, eps=0.1, n_max=n_max)
        nu = invariant_measures(h).extremes[0]
        means = nuc.values @ nu.weights
        curve = birkhoff_curve_brute(h.idx.tolist(), nuc.values.tolist(),
                                     means.tolist(), n_max)
        assert np.allclose(rep.curve, curve, atol=1e-12)
        above = [n for n in range(1, n_max + 1) if curve[n - 1] > 0.1]
        expect = (above[-1] + 1) if above else 1
        assert rep.rate == expect
        if rep.rate > 1:
            assert rep.deviation(rep.rate - 1) > 0.1

    def test_requires_unique_ergodicity(self):
        X = circle_net(4, 2.0)
        nuc = nucleus_net(X, X.radius, 0.4)
        with pytest.raises(DomainError):
            birkhoff_rate(rotation(X, 2), nuc, 0.1, 10)

    def test_unresolved_rate(self):
        X = circle_net(8, 2 * math.pi)
        h = rotation(X, 1)
        nuc = nucleus_net(X, X.radius, 0.3)
        rep = birkhoff_rate(h, nuc, eps=1e-6, n_max=5)
        assert not rep.resolved and rep.rate is None

    def test_deviation_bounded_by_2r(self):
        X = circle_net(6, 2 * math.pi)
        h = rotation(X, 1)
        nuc = nucleus_net(X, X.radius, 0.3)
        rep = birkhoff_rate(h, nuc, eps=0.5, n_max=20)
        assert rep.curve.max() <= 2 * nuc.r + 1e-9


def _rotation_action(rng):
    """A rotation of a 5-point circle of random circumference, acting through
    its powers -1, 0 and 1."""
    X = circle_net(5, float(rng.uniform(4.0, 8.0)))
    return z_action_window(rotation(X, int(rng.integers(1, 5))), 1)


def _pluck_action(rng):
    """Forward powers of a projected sine pluck on a circle net of 3 to 6
    points; the projection error is positive."""
    X = circle_net(int(rng.integers(3, 7)), math.pi * float(rng.uniform(0.8, 1.2)))
    h = sine_pluck_map(X, float(rng.uniform(-1.5, 1.5)))
    return [h, h.compose(h)]


def _skewed_action():
    """A 4-cycle on a metric with every diagonal entry -5e-10 and one
    asymmetric pair, both within the tolerance `validate_metric` allows."""
    D = circle_net(4, 3.0).dist - 5e-10 * np.eye(4)
    D[0, 1] += 5e-10
    Z = validate_metric(D)
    return [identity_map(Z), DynMap(Z, [1, 2, 3, 0])]


def _egh_pairs(rng):
    pairs = []
    for _ in range(3):
        A, B = _rotation_action(rng), _rotation_action(rng)
        pairs += [(A, B), (B, A), (A, A)]
    pairs += [(_pluck_action(rng), _pluck_action(rng)) for _ in range(6)]
    return pairs + [(_skewed_action(), _skewed_action())]


def _record_costs(monkeypatch):
    """Record the (blocks, cost) of every map search egh_distance asks for,
    and answer each with its first seed, unsearched."""
    costs = []

    def record(blocks, cost, budget, seeds):
        costs.append((tuple(blocks), cost))
        return 0.0, (tuple(seeds[0][0].tolist()),), True
    monkeypatch.setattr(dynamics, "search_maps", record)
    return costs


class TestEgh:
    def test_identical_actions(self):
        X = circle_net(4, 2.0)
        h = rotation(X, 1)
        action = [rotation(X, k) for k in range(4)]
        res = egh_distance(action, action)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_relabelled_action(self):
        X = circle_net(4, 2.0)
        perm = np.array([2, 3, 0, 1])
        Y = validate_metric(X.dist[np.ix_(perm, perm)], meta=X.meta)
        a1 = [rotation(X, k) for k in range(4)]
        inv = np.empty(4, dtype=int)
        inv[perm] = np.arange(4)
        a2 = [DynMap(Y, inv[a.idx[perm]]) for a in a1]
        res = egh_distance(a1, a2)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_conjugated_actions_defect_bound(self):
        # exactly conjugate actions: the conjugating permutation witnesses an
        # equivariance defect of zero, so egh is at most its distortion
        X = circle_net(6, 3.0)
        h = rotation(X, 1)
        g = DynMap(X, [1, 0, 2, 3, 4, 5])   # swap two adjacent points
        hc = deform(g, h)

        def power(m: DynMap, k: int) -> DynMap:
            out = identity_map(X)
            for _ in range(k):
                out = m.compose(out)
            return out

        a1 = [power(h, k) for k in range(1, 4)]
        a2 = [power(hc, k) for k in range(1, 4)]
        res = egh_distance(a1, a2)
        assert res.value <= _map_distortion(g.idx, X, X) + 1e-9

    def test_full_group_window_periodicity(self):
        X = circle_net(4, 2.0)
        h = rotation(X, 1)
        full = [rotation(X, k) for k in range(4)]
        doubled = full + full
        assert egh_distance(full, full).value == pytest.approx(
            egh_distance(doubled, doubled).value, abs=1e-12)

    def test_relaxed_mode_ignores_distortion(self):
        X = interval_net(3, 1.0)
        Y = interval_net(3, 3.0)
        a1 = [identity_map(X)]
        a2 = [identity_map(Y)]
        strict = egh_distance(a1, a2, require_isometry=True)
        relaxed = egh_distance(a1, a2, require_isometry=False)
        assert relaxed.value <= strict.value

    def test_budget_forced_descent_bounds_exhaustive(self):
        a = z_action_window(rotation(circle_net(6, 2 * math.pi), 1), 1)
        b = z_action_window(rotation(circle_net(6, 2 * math.pi * 1.3), 2), 1)
        exact = egh_distance(a, b)
        res = egh_distance(a, b, max_maps=100)
        assert exact.exhaustive and not res.exhaustive
        assert res.value >= exact.value - 1e-12
        # every point of a circle net has the same distance profile, so the
        # profile seed is a constant map, whose density defect is the diameter
        assert res.value < b[0].space.diameter

    def test_matches_full_loop(self, rng, monkeypatch):
        pairs = _egh_pairs(rng)
        grown = [egh_distance(a, b, require_isometry=iso)
                 for a, b in pairs for iso in (True, False)]
        monkeypatch.setattr(distances, "_enumerate", enumerate_maps_loop)
        assert grown == [egh_distance(a, b, require_isometry=iso)
                         for a, b in pairs for iso in (True, False)]
        assert all(res.exhaustive for res in grown)

    def test_partial_terms_bound_the_cost(self, rng, monkeypatch):
        costs = _record_costs(monkeypatch)
        pairs = _egh_pairs(rng)
        for a, b in pairs:
            for iso in (True, False):
                egh_distance(a, b, require_isometry=iso)
        assert len(costs) == 4 * len(pairs)
        for ((n_from, n_to),), cost in costs:
            F = rng.integers(0, n_to, size=(300, n_from))
            full = cost.unary[0](F)
            running = np.full(len(F), -np.inf)
            for k in range(n_from):
                running = np.maximum(running, cost.partial[0](F[:, :k + 1], k))
                assert (running <= full).all()
            assert (running > -np.inf).all()

    def test_cost_matches_direct_formula(self, rng, monkeypatch):
        costs = _record_costs(monkeypatch)
        pairs = _egh_pairs(rng)
        sides = []
        for a, b in pairs:
            for iso in (True, False):
                egh_distance(a, b, require_isometry=iso)
                sides += [(a, b, iso), (b, a, iso)]
        for (m1, m2, iso), (((n_from, n_to),), cost) in zip(sides, costs, strict=True):
            F = rng.integers(0, n_to, size=(300, n_from))
            if n_from == n_to:
                F = np.vstack([F, np.arange(n_from)])
            assert (cost.unary[0](F) == egh_cost_direct(m1, m2, iso, F)).all()

    def test_scores_fewer_maps(self, monkeypatch):
        rng = np.random.default_rng([3, 2])
        a, b = _rotation_action(rng), _rotation_action(rng)
        search = dynamics.search_maps
        scored = []

        def counting(blocks, cost, budget, seeds):
            rows = [0]

            def unary(F):
                rows[0] += len(F)
                return cost.unary[0](F)
            found = search(blocks, MapCost((unary,), None, cost.partial), budget, seeds)
            scored.append(rows[0])
            assert found == search(blocks, cost, budget, seeds)
            return found

        monkeypatch.setattr(dynamics, "search_maps", counting)
        assert egh_distance(a, b).exhaustive
        assert len(scored) == 2 and max(scored) < 5 ** 5

    def test_z_action_window(self):
        X = circle_net(4, 2.0)
        h = rotation(X, 1)
        window = z_action_window(h, N=2)
        assert len(window) == 5
        assert np.array_equal(window[2].idx, np.arange(4))      # identity in the middle
        assert np.array_equal(window[1].compose(window[3]).idx, np.arange(4))
        default = z_action_window(h)
        assert len(default) == 2 * (2 * X.size) + 1

    def test_z_action_window_needs_n_at_least_one(self):
        h = rotation(circle_net(4, 2.0), 1)
        for N in (0, -2, 1.0, True):
            with pytest.raises(DomainError, match="N >= 1"):
                z_action_window(h, N)
        # the smallest window, the one the benchmark's rotation actions use
        window = z_action_window(h, 1)
        assert [w.idx.tolist() for w in window] == [[3, 0, 1, 2], [0, 1, 2, 3], [1, 2, 3, 0]]


class TestCrossedProduct:
    def test_identity_matches_full_seminorm(self):
        X = interval_net(3, 2.0)
        a0 = Observable(X, [0.1, 0.8, 0.3])
        v = crossed_product_seminorm(a0, identity_map(X), resolution=6)
        # invariant simplex of the identity is all of Prob(X)
        assert v == pytest.approx(lipschitz_seminorm(a0), rel=0.2)
        assert v <= lipschitz_seminorm(a0) + 1e-9

    def test_constant_zero(self):
        X = circle_net(4, 2.0)
        a0 = Observable(X, np.ones(4))
        assert crossed_product_seminorm(a0, rotation(X, 2)) == 0.0

    def test_two_cycle_closed_form(self):
        X = circle_net(4, 2 * math.pi)
        h = rotation(X, 2)
        a0 = Observable(X, [1.0, 0.0, 1.0, 0.0])
        sim = invariant_measures(h)
        w = wasserstein1(sim.extremes[0], sim.extremes[1])[0]
        closed = abs(1.0 - 0.0) / w
        assert crossed_product_seminorm(a0, h, resolution=4) == pytest.approx(closed)

    def test_uniquely_ergodic_mode(self):
        # a one-point invariant simplex takes the convention: a0's own seminorm
        X = circle_net(4, 2.0)
        h = rotation(X, 1)
        a0 = Observable(X, [0.0, 1.0, 0.0, 1.0])
        assert crossed_product_seminorm(a0, h) == lipschitz_seminorm(a0)

    def test_dominated(self):
        X = circle_net(4, 2 * math.pi)
        h = rotation(X, 2)
        # constant on each cycle but steep pointwise: restriction strictly smaller
        a0 = Observable(X, [1.0, 0.0, 0.0, 1.0])
        general, full = crossed_product_seminorm(a0, h), lipschitz_seminorm(a0)
        assert general <= full + 1e-9
        means = [m.integrate(a0.values) for m in invariant_measures(h).extremes]
        if abs(means[0] - means[1]) < 1e-12:
            assert general < full

    def test_isometry_preserves_invariant_w1(self):
        X = circle_net(6, 3.0)
        h = rotation(X, 2)
        sim = invariant_measures(h)
        from metriclab import pushforward
        iso = rotation(X, 1)
        before = wasserstein1(sim.extremes[0], sim.extremes[1])[0]
        after = wasserstein1(pushforward(sim.extremes[0], iso),
                             pushforward(sim.extremes[1], iso))[0]
        assert after == pytest.approx(before, abs=1e-9)

    def test_usc_hook_at_uniquely_ergodic_parameter(self):
        # family h_t jumping from two cycles to one: the uniquely ergodic
        # convention dominates nearby restricted seminorms, so the sampled
        # seminorm map is upper semicontinuous at the ergodic parameter
        X = circle_net(4, 2 * math.pi)
        a0 = Observable(X, [0.4, 0.0, 1.0, 0.2])
        ergodic_value = crossed_product_seminorm(a0, rotation(X, 1))
        nearby = crossed_product_seminorm(a0, rotation(X, 2), resolution=4)
        assert ergodic_value >= nearby - 1e-9

    def test_resolution_below_one_rejected(self):
        X = circle_net(4, 2 * math.pi)
        h = rotation(X, 2)
        with pytest.raises(DomainError, match="resolution"):
            crossed_product_seminorm(Observable(X, [1.0, 0.0, 1.0, 0.0]), h, resolution=0)
        with pytest.raises(DomainError, match="resolution"):
            invariant_simplex_hausdorff(h, identity_map(X), 0)

    def test_resolution_below_one_rejected_when_uniquely_ergodic(self):
        # one extreme: the convention returns a0's own seminorm, but only
        # for a resolution the other branch accepts too
        X = circle_net(4, 2 * math.pi)
        a0 = Observable(X, [0.0, 1.0, 0.0, 1.0])
        for resolution in (-7, 0):
            with pytest.raises(DomainError, match="resolution"):
                crossed_product_seminorm(a0, rotation(X, 1), resolution=resolution)
        assert crossed_product_seminorm(a0, rotation(X, 1), resolution=1) == lipschitz_seminorm(a0)

    def test_monotone_under_subsimplex(self):
        X = circle_net(6, 3.0)
        h = rotation(X, 2)   # two 3-cycles
        a0 = Observable(X, [0.9, 0.2, 0.4, 0.1, 0.7, 0.3])
        sim = invariant_measures(h)
        full_net = measure_mixtures_loop(list(sim.extremes), 4)
        sub_net = measure_mixtures_loop([sim.extremes[0]], 4)

        def seminorm(net):
            vals = [mu.integrate(a0.values) for mu in net]
            if len(net) < 2:
                return 0.0
            W = np.array([[wasserstein1(a, b)[0] for b in net] for a in net])
            try:
                return lipnorm_from_state_metric(vals, W)
            except ValueError:
                return 0.0

        assert seminorm(sub_net) <= seminorm(full_net) + 1e-9

    def test_equal_to_pairwise_loop(self, rng):
        # one batched fill over the pairs gives the value of one
        # `wasserstein1` call per pair
        for k in range(120):
            h = _random_dynamics(rng)
            a0 = Observable(h.space, rng.uniform(-1.0, 1.0, size=h.space.size))
            resolution = 1 + k % 4
            assert crossed_product_seminorm(a0, h, resolution) == \
                crossed_product_seminorm_loop(a0, h, resolution)
