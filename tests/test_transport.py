import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from metriclab import (Coupling, DomainError, Measure, SpaceMismatchError, WaveProfile,
                       bridge_metric, circle_net, circle_wave_metric, dq_upper,
                       interval_net, invariant_simplex_hausdorff, mix, point_mass,
                       prob_net, pushforward, rotation, simplex_net, uniform_measure,
                       validate_metric, wasserstein1, wasserstein1_dual, wasserstein_inf,
                       wave_metric_field)
from metriclab.config import TOL
from metriclab.transport import (_SimplexStall, _circle_w1, _cycle_arcs, _least_cost_basis,
                                 _transport_simplex, _w1_fill, _winf_bracket, convex_grid,
                                 w1_hausdorff, w1_table)

from oracles import (circle_w1_left_to_right, net_measures, northwest_corner,
                     transport_simplex_rebuild, w1_dual_lp, w1_exhaustive, w1_line,
                     wasserstein1_dual_full_support, wasserstein1_full_support,
                     winf_cold_search, winf_exhaustive, winf_hall)


def random_space(rng, n):
    pts = rng.uniform(0, 5, size=(n, 2))
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    D += 0.05 * (1 - np.eye(n))
    return validate_metric(D)


def random_measure(rng, X):
    w = rng.uniform(0.01, 1.0, size=X.size)
    return Measure(X, w / w.sum())


def threshold_inputs(count, seed=7):
    """Seeded (a, b, D, t): a random planar space's distances between two
    random supports, weights on them, and one of the distances as a
    W-infinity threshold."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 25))
        X = random_space(rng, n)
        sa = np.flatnonzero(rng.uniform(size=n) < 0.7)
        sb = np.flatnonzero(rng.uniform(size=n) < 0.7)
        if len(sa) == 0 or len(sb) == 0:
            continue
        D = X.dist[np.ix_(sa, sb)]
        t = rng.choice(np.unique(D))
        a, b = rng.uniform(0.01, 1.0, size=len(sa)), rng.uniform(0.01, 1.0, size=len(sb))
        out.append((a / a.sum(), b / b.sum(), D, t))
    return out


def simplex_inputs(kind, count, seed=7):
    """Seeded (a, b, C) transport problems of one kind."""
    if kind == "threshold":
        # the 0/1 "farther than t" costs of wasserstein_inf
        return [(a, b, (D > t + TOL.threshold_slack).astype(float))
                for a, b, D, t in threshold_inputs(count, seed)]
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        if kind == "planar":
            n, m = (int(k) for k in rng.integers(2, 41, size=2))
            pa, pb = rng.uniform(0, 5, size=(n, 2)), rng.uniform(0, 5, size=(m, 2))
            C = np.sqrt(((pa[:, None] - pb[None]) ** 2).sum(axis=2))
            a, b = rng.uniform(0.01, 1.0, size=n), rng.uniform(0.01, 1.0, size=m)
            out.append((a / a.sum(), b / b.sum(), C))
        elif kind == "integer":
            # integer masses or a 1/k grid, integer costs: degenerate pivots
            n, m = (int(k) for k in rng.integers(2, 13, size=2))
            total = int(rng.integers(max(n, m), 3 * max(n, m) + 1))
            a = 1.0 + rng.multinomial(total - n, np.ones(n) / n)
            b = 1.0 + rng.multinomial(total - m, np.ones(m) / m)
            if len(out) % 2:
                a, b = a / total, b / total
            out.append((a, b, rng.integers(0, 5, size=(n, m)).astype(float)))
        elif kind == "circle":
            # tied distances of a circle net, weights on a 1/4 grid
            k = int(rng.integers(3, 10))
            X = circle_net(k, 2 * math.pi)
            wa, wb = (rng.multinomial(4, np.ones(k) / k) / 4 for _ in range(2))
            sa, sb = np.flatnonzero(wa), np.flatnonzero(wb)
            out.append((wa[sa], wb[sb], X.dist[np.ix_(sa, sb)]))
        else:
            # one source or one target
            k = int(rng.integers(1, 41))
            w = rng.uniform(0.01, 1.0, size=k)
            C = rng.uniform(0, 5, size=(1, k))
            if len(out) % 2:
                out.append((np.ones(1), w / w.sum(), C))
            else:
                out.append((w / w.sum(), np.ones(1), C.T.copy()))
    return out


# 550 inputs in all
SIMPLEX_KINDS = {"planar": 200, "integer": 150, "threshold": 100, "circle": 60, "single": 40}


class TestSimplex:
    @pytest.mark.parametrize("kind", SIMPLEX_KINDS)
    def test_matches_rebuild_oracle(self, kind):
        # from the same northwest-corner start, the rooted-tree solver makes
        # the same pivots as the one that rebuilds its tree every pivot:
        # (cost, P, u, v) agree bit for bit; from its own least-cost start it
        # reaches the same optimal cost up to rounding
        for a, b, C in simplex_inputs(kind, SIMPLEX_KINDS[kind]):
            cost, P, u, v = _transport_simplex(a, b, C, basis=northwest_corner(a, b))
            want = transport_simplex_rebuild(a, b, C)
            assert cost == want[0]
            assert np.array_equal(P, want[1])
            assert np.array_equal(u, want[2]) and np.array_equal(v, want[3])
            assert abs(_transport_simplex(a, b, C)[0] - want[0]) <= 1e-12

    @pytest.mark.parametrize("kind", SIMPLEX_KINDS)
    def test_least_cost_basis_is_a_feasible_tree(self, kind):
        for a, b, C in simplex_inputs(kind, SIMPLEX_KINDS[kind]):
            n, m = len(a), len(b)
            basis = _least_cost_basis(a, b, C)
            assert len(basis) == n + m - 1
            P = np.zeros((n, m))
            for (i, j), q in basis.items():
                P[i, j] = q
            assert P.min() >= 0
            assert np.abs(P.sum(axis=1) - a).max() <= 1e-12
            assert np.abs(P.sum(axis=0) - b).max() <= 1e-12
            # a basis that is not a spanning tree raises _SimplexStall
            tree = _transport_simplex(a, b, C, basis=basis)
            # a fresh solve, the forced plan of the one-row and one-column
            # "single" problems included, is the tree path from the same start
            cost, P, u, v = _transport_simplex(a, b, C)
            assert cost == tree[0]
            assert np.array_equal(P, tree[1])
            assert np.array_equal(u, tree[2]) and np.array_equal(v, tree[3])
            # with every cost tied, row-major order is the northwest staircase
            assert _least_cost_basis(a, b, np.zeros((n, m))) == northwest_corner(a, b)

    @pytest.mark.parametrize("kind", SIMPLEX_KINDS)
    def test_potentials_certify_optimality(self, kind):
        for a, b, C in simplex_inputs(kind, SIMPLEX_KINDS[kind]):
            cost, P, u, v = _transport_simplex(a, b, C)
            reduced = C - u[:, None] - v[None, :]
            assert reduced.min() >= -TOL.simplex_opt_tol
            assert np.abs(reduced[P > 0]).max(initial=0.0) <= 1e-12
            assert abs(a @ u + b @ v - cost) <= 1e-12

    def test_pivot_budget(self):
        # the northwest corner ships along the diagonal at cost 1; optimum 0
        a = b = np.array([0.5, 0.5])
        C = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(_SimplexStall):
            _transport_simplex(a, b, C, max_pivots=0, basis=northwest_corner(a, b))
        assert _transport_simplex(a, b, C, max_pivots=1, basis=northwest_corner(a, b))[0] == 0.0

    def test_least_cost_start_needs_no_pivot_when_optimal(self):
        # the least-cost basis ships along the zero-cost antidiagonal
        a = b = np.array([0.5, 0.5])
        C = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert _transport_simplex(a, b, C, max_pivots=0)[0] == 0.0

    def test_least_cost_start_saves_pivots(self):
        # two measures on one 64-point planar space: the least-cost start
        # finishes within 128 pivots (56), the northwest corner needs 256
        rng = np.random.default_rng(1)
        X = random_space(rng, 64)
        C = X.dist
        a, b = (w / w.sum() for w in rng.uniform(0.01, 1.0, size=(2, 64)))
        cost = _transport_simplex(a, b, C, max_pivots=128)[0]
        with pytest.raises(_SimplexStall, match="pivot budget"):
            _transport_simplex(a, b, C, max_pivots=128, basis=northwest_corner(a, b))
        assert abs(cost - transport_simplex_rebuild(a, b, C)[0]) <= 1e-12

    def test_warm_basis_certifies_optimality(self):
        # every "threshold" input solved from the optimal basis of another
        # threshold of the same (a, b), as wasserstein_inf does
        for a, b, D, t in threshold_inputs(SIMPLEX_KINDS["threshold"]):
            cands = np.unique(D)
            others = cands[cands != t]
            t_other = others[len(others) // 2] if len(others) else t
            basis = _least_cost_basis(a, b, D)
            _transport_simplex(a, b, (D > t_other + TOL.threshold_slack).astype(float),
                               basis=basis)
            C = (D > t + TOL.threshold_slack).astype(float)
            cost, P, u, v = _transport_simplex(a, b, C, basis=basis)
            # the dict now holds the optimal basis and its flows
            assert len(basis) == len(a) + len(b) - 1
            assert all(P[i, j] == q for (i, j), q in basis.items())
            assert np.count_nonzero(P) <= len(basis)
            reduced = C - u[:, None] - v[None, :]
            assert reduced.min() >= -TOL.simplex_opt_tol
            assert np.abs(reduced[P > 0]).max(initial=0.0) <= 1e-12
            assert abs(a @ u + b @ v - cost) <= 1e-12
            assert np.abs(P.sum(axis=1) - a).max() <= 1e-12
            assert np.abs(P.sum(axis=0) - b).max() <= 1e-12
            assert abs(cost - _transport_simplex(a, b, C)[0]) <= 1e-12

    def test_basis_must_be_a_spanning_tree(self):
        a = b = np.full(3, 1 / 3)
        C = np.ones((3, 3))
        # n + m - 1 arcs, but a cycle on rows and columns 0, 1 leaves row 2
        # and column 2 cut off
        cycle = {(0, 0): 1 / 6, (0, 1): 1 / 6, (1, 0): 1 / 6, (1, 1): 1 / 6, (2, 2): 1 / 3}
        # a forest: one arc short of a tree
        forest = {(0, 0): 1 / 3, (1, 1): 1 / 3, (2, 2): 1 / 3, (0, 1): 0.0}
        for basis in (cycle, forest):
            with pytest.raises(_SimplexStall, match="spanning tree"):
                _transport_simplex(a, b, C, basis=basis)

    def test_basic_arc_never_enters(self):
        # at costs near 1e7 the rounding error of the potentials exceeds
        # opt_tol and a basic arc shows a negative reduced cost; the solver
        # stops at once instead of pivoting on it until the budget runs out
        a = b = np.array([0.5, 0.5])
        C = np.array([[6000000.1, 1000000.8], [8000000.4, 9000000.0]])
        with pytest.raises(_SimplexStall, match="rounding error"):
            _transport_simplex(a, b, C)


class TestMeasure:
    def test_weight_validation(self):
        X = interval_net(3, 1.0)
        with pytest.raises(DomainError):
            Measure(X, [0.5, 0.5, 0.5])
        with pytest.raises(DomainError):
            Measure(X, [-0.2, 0.6, 0.6])

    @pytest.mark.parametrize("w", [[math.nan, 0.5, 0.5], [0.5, math.nan, 0.5]])
    def test_nan_weight_rejected(self, w):
        with pytest.raises(DomainError, match="not a number"):
            Measure(interval_net(3, 1.0), w)

    def test_point_mass_and_uniform(self):
        X = interval_net(4, 1.0)
        assert point_mass(X, 2).weights[2] == 1.0
        assert uniform_measure(X).weights.sum() == pytest.approx(1.0)


class TestWasserstein1:
    def test_point_masses(self):
        X = random_space(np.random.default_rng(0), 5)
        v, plan = wasserstein1(point_mass(X, 1), point_mass(X, 3))
        assert v == pytest.approx(X.dist[1, 3])
        assert isinstance(plan, Coupling)

    def test_identical_measures(self):
        X = interval_net(4, 1.0)
        mu = uniform_measure(X)
        v, plan = wasserstein1(mu, mu)
        assert v == 0.0
        assert np.allclose(plan.matrix, np.diag(mu.weights))

    def test_line_example_frozen(self):
        X = interval_net(3, 2.0)
        mu = Measure(X, [1, 0, 0])
        nu = Measure(X, [0, 0, 1])
        # oracle: exhaustive coupling enumeration on the 1/4 grid
        assert w1_exhaustive(mu.weights, nu.weights, X.dist.tolist(), 4) == pytest.approx(2.0)
        assert wasserstein1(mu, nu)[0] == pytest.approx(2.0)

    def test_mismatched_spaces(self):
        X, Y = interval_net(3, 1.0), interval_net(3, 1.0)
        with pytest.raises(SpaceMismatchError):
            wasserstein1(point_mass(X, 0), point_mass(Y, 0))

    def test_far_point_mass_is_the_product_coupling(self):
        # a one-point side has one plan, the product coupling; on a circle of
        # circumference 1e6 the potentials' rounding error on a basic arc
        # exceeds TOL.simplex_opt_tol, so no pivot may be tried
        X = circle_net(6, 1e6)
        mu, nu = uniform_measure(X), point_mass(X, 1)
        for source, target in ((mu, nu), (nu, mu)):
            v, plan = wasserstein1(source, target)
            assert abs(v - X.dist[:, 1].sum() / 6) <= 1e-12 * v
            product = np.outer(source.weights, target.weights)
            assert np.abs(plan.matrix - product).max() <= TOL.coupling_atol

    def test_exhaustive_oracle_quarter_grid(self):
        # every pair of quarter-weight measures on a 4-point space
        X = random_space(np.random.default_rng(1), 4)
        grid = [Measure(X, w) for w in convex_grid(4, 4)]
        D = X.dist.tolist()
        for mu, nu in itertools.combinations(grid[::6], 2):
            expect = w1_exhaustive(mu.weights, nu.weights, D, 4)
            got, plan = wasserstein1(mu, nu)
            assert got == pytest.approx(expect, abs=1e-9)
            assert plan.cost() == pytest.approx(got, abs=1e-9)

    def test_line_closed_form_oracle(self, rng):
        X = interval_net(6, 3.0)
        xs = np.asarray(X.meta["coords"])
        for _ in range(25):
            mu, nu = random_measure(rng, X), random_measure(rng, X)
            assert wasserstein1(mu, nu)[0] == pytest.approx(
                w1_line(xs, mu.weights, nu.weights), abs=1e-9)


class TestDual:
    def test_nan_gap_rejected(self, monkeypatch):
        # `abs(cost - value) > tol` is False for a NaN gap; the check must not be
        from metriclab import transport
        real = transport._transport_simplex

        def nan_cost(*args, **kwargs):
            return (math.nan, *real(*args, **kwargs)[1:])

        monkeypatch.setattr(transport, "_transport_simplex", nan_cost)
        X = interval_net(3, 2.0)
        with pytest.raises(DomainError, match="not a number"):
            wasserstein1_dual(Measure(X, [1, 0, 0]), Measure(X, [0, 0, 1]))

    def test_identical(self):
        X = interval_net(3, 1.0)
        mu = uniform_measure(X)
        v, pot = wasserstein1_dual(mu, mu)
        assert v == 0.0 and np.ptp(pot.values) == 0.0

    def test_line_example(self):
        X = interval_net(3, 2.0)
        v, pot = wasserstein1_dual(Measure(X, [1, 0, 0]), Measure(X, [0, 0, 1]))
        assert v == pytest.approx(2.0)
        diffs = pot.values[0] - pot.values[2]
        assert abs(diffs) == pytest.approx(2.0)

    def test_point_mass_mcshane(self):
        X = random_space(np.random.default_rng(3), 5)
        mu, nu = point_mass(X, 0), point_mass(X, 4)
        v, pot = wasserstein1_dual(mu, nu)
        assert v == pytest.approx(X.dist[0, 4])
        assert pot.pairing(mu, nu) == pytest.approx(v, abs=1e-9)

    def test_duality_gap_random(self, rng):
        for _ in range(30):
            X = random_space(rng, int(rng.integers(2, 8)))
            mu, nu = random_measure(rng, X), random_measure(rng, X)
            primal, _ = wasserstein1(mu, nu)
            dual, pot = wasserstein1_dual(mu, nu)
            assert abs(primal - dual) <= 1e-7
            assert pot.pairing(mu, nu) == pytest.approx(dual, abs=1e-9)

    def test_matches_lp_oracle(self):
        # 200 planar inputs of 2-40 points; in two of three, each measure
        # misses a random part of the space
        rng = np.random.default_rng(17)
        partial = 0
        for k in range(200):
            n = int(rng.integers(2, 41))
            X = random_space(rng, n)
            mu, nu = random_measure(rng, X), random_measure(rng, X)
            if k % 3:
                w = [m.weights * (rng.uniform(size=n) < 0.6) for m in (mu, nu)]
                for x in w:
                    x[rng.integers(n)] += 0.1
                mu, nu = (Measure(X, x / x.sum()) for x in w)
                partial += len(mu.support) < n and len(nu.support) < n
            value, pot = wasserstein1_dual(mu, nu)
            want, _ = w1_dual_lp(X.dist, mu.weights, nu.weights)
            assert abs(value - want) <= TOL.duality_gap
            f = pot.values
            assert f[0] == 0.0
            assert (np.abs(f[:, None] - f[None, :]) - X.dist).max() <= TOL.lipschitz_atol
        assert partial >= 100


MOVED_MASS_KINDS = ("full", "partial", "shared", "disjoint", "net", "counts")


def moved_mass_pairs(count, seed=11):
    """Seeded (kind, mu, nu) on random planar spaces of 3-64 points, cycling
    through MOVED_MASS_KINDS: full supports, independent partial supports,
    one partial support shared by both, disjoint supports, two rows of a
    `prob_net` (3-8 points, resolution 1-3) and integer counts over a
    resolution (many points where the two measures agree exactly)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        kind = MOVED_MASS_KINDS[k % len(MOVED_MASS_KINDS)]
        n = int(rng.integers(3, 9 if kind == "net" else 65))
        X = random_space(rng, n)
        wa, wb = rng.uniform(0.01, 1.0, size=(2, n))
        if kind == "partial":
            wa[rng.uniform(size=n) < 0.5] = 0.0
            wb[rng.uniform(size=n) < 0.5] = 0.0
            wa[rng.integers(n)] = wb[rng.integers(n)] = 1.0
        elif kind == "shared":
            off = rng.uniform(size=n) < 0.5
            off[rng.integers(n)] = False
            wa[off] = wb[off] = 0.0
        elif kind == "disjoint":
            side = rng.permutation(n) < int(rng.integers(1, n))
            wa[~side] = wb[side] = 0.0
        elif kind == "net":
            S = prob_net(X, int(rng.integers(1, 4)))
            i, j = rng.choice(len(S.counts), size=2, replace=False)
            wa, wb = S.counts[i] / S.resolution, S.counts[j] / S.resolution
        elif kind == "counts":
            m = int(rng.integers(2, 2 * n))
            wa, wb = (rng.multinomial(m, np.ones(n) / n) / m for _ in range(2))
        out.append((kind, Measure(X, wa / wa.sum()), Measure(X, wb / wb.sum())))
    return out


class TestMovedMass:
    """The simplex moves only (mu - nu)+ to (mu - nu)-; the earlier solvers
    from the whole supports are `wasserstein1_full_support` and
    `wasserstein1_dual_full_support` in oracles.py."""

    def test_matches_full_support_solves(self):
        kinds = set()
        for kind, mu, nu in moved_mass_pairs(180):
            X = mu.space
            value, plan = wasserstein1(mu, nu)
            dual, pot = wasserstein1_dual(mu, nu)
            want, want_plan = wasserstein1_full_support(mu, nu)
            want_dual, want_pot = wasserstein1_dual_full_support(mu, nu)
            if kind == "disjoint":
                # (mu - nu)+ is mu and (mu - nu)- is nu: the same solve
                assert value == want and dual == want_dual
                assert np.array_equal(plan.matrix, want_plan.matrix)
                assert np.array_equal(pot.values, want_pot.values)
            else:
                assert abs(value - want) <= 1e-12 * want
                assert abs(dual - want_dual) <= 1e-12 * want_dual
            # the shared mass stays in place, and the plan is optimal
            assert np.array_equal(np.diag(plan.matrix), np.minimum(mu.weights, nu.weights))
            assert abs(plan.cost() - value) <= 1e-12 * value
            assert _w1_fill(mu.weights, nu.weights, X.dist) == value
            f = pot.values
            assert (np.abs(f[:, None] - f[None, :]) - X.dist).max() <= TOL.lipschitz_atol
            assert abs(dual - value) <= TOL.duality_gap
            kinds.add(kind)
        assert kinds == set(MOVED_MASS_KINDS)

    def test_cost_within_metric_atol_on_a_small_diagonal(self, rng):
        # the value leaves the shared mass's diagonal cost out; a validated
        # diagonal is within TOL.metric_atol of 0, and so is that cost
        for n in (3, 9, 24):
            X = validate_metric(random_space(rng, n).dist + 1e-12 * np.eye(n))
            for _ in range(4):
                mu, nu = random_measure(rng, X), random_measure(rng, X)
                value, plan = wasserstein1(mu, nu)
                assert abs(plan.cost() - value) <= TOL.metric_atol
                assert abs(value - wasserstein1_full_support(mu, nu)[0]) <= TOL.metric_atol

    def test_measures_equal_up_to_rounding_move_nothing(self, rng):
        # mu - nu of one sign: no sources or no sinks, so no solve
        X = random_space(rng, 6)
        w = rng.uniform(0.1, 1.0, size=6)
        w /= w.sum()
        bumped = w.copy()
        bumped[2] += 1e-13
        for a, b in ((w, bumped), (bumped, w)):
            mu, nu = Measure(X, a), Measure(X, b)
            value, plan = wasserstein1(mu, nu)
            assert value == 0.0
            assert np.array_equal(plan.matrix, np.diag(np.minimum(a, b)))
            dual, pot = wasserstein1_dual(mu, nu)
            assert dual == 0.0 and not pot.values.any()
            assert _w1_fill(a, b, X.dist) == 0.0
            assert w1_table(X, [a], [b]).tolist() == [[0.0]]

    def test_winf_is_not_reduced(self):
        # W-inf is no function of mu - nu: the moved mass alone would give 2
        X = interval_net(3, 2.0)
        mu, nu = Measure(X, [0.5, 0.5, 0.0]), Measure(X, [0.0, 0.5, 0.5])
        assert wasserstein_inf(mu, nu) == 1.0
        assert wasserstein_inf(point_mass(X, 0), point_mass(X, 2)) == 2.0
        assert wasserstein1(mu, nu)[0] == 1.0


def simplex_table(A, B):
    return np.array([[wasserstein1(mu, nu)[0] for nu in B] for mu in A])


def rows(measures):
    return np.array([mu.weights for mu in measures])


def mixed_measures(rng, X, count):
    """Random measures on X, cycling through full supports, partial supports
    and point masses."""
    out = []
    for k in range(count):
        w = rng.uniform(0.01, 1.0, size=X.size)
        if k % 3 == 1:
            w[rng.uniform(size=X.size) < 0.5] = 0.0
            if not w.any():
                w[rng.integers(X.size)] = 1.0
        elif k % 3 == 2:
            w = np.zeros(X.size)
            w[rng.integers(X.size)] = 1.0
        out.append(Measure(X, w / w.sum()))
    return out


class TestW1Table:
    @pytest.mark.parametrize("width", [3, 16, 37])
    def test_circle_w1_adds_left_to_right(self, width):
        # == a scalar left-to-right sum: the arc sum does not depend on the
        # grouping of numpy's SIMD kernels, so artifacts built on it do not
        rng = np.random.default_rng(width)
        arcs = rng.uniform(0.1, 2.0, width)
        G = rng.normal(size=(40, width))
        assert np.array_equal(_circle_w1(G, arcs), circle_w1_left_to_right(G, arcs))
        # ties: dyadic arcs add exactly in any order, so the median is the
        # same whichever tied entry a sort puts first
        dyadic = rng.integers(1, 8, width) / 8.0
        ties = rng.integers(-2, 3, size=(40, width)) / 3.0
        assert np.array_equal(_circle_w1(ties, dyadic), circle_w1_left_to_right(ties, dyadic))
        zero = _circle_w1(np.zeros((1, width)), arcs)
        assert zero[0] == 0.0 and np.array_equal(zero, circle_w1_left_to_right(np.zeros(width), arcs))

    def check_closed_form(self, rng, X):
        assert _cycle_arcs(X.dist) is not None
        A, B = mixed_measures(rng, X, 5), mixed_measures(rng, X, 4)
        got = w1_table(X, rows(A), rows(B))
        assert got.shape == (5, 4)
        assert np.abs(got - simplex_table(A, B)).max() <= 1e-12

    def test_circle_nets(self, rng):
        for n in range(2, 41):
            self.check_closed_form(rng, circle_net(n, float(rng.uniform(0.5, 10.0))))

    def test_interval_nets_are_half_circles(self, rng):
        for n in range(2, 25):
            self.check_closed_form(rng, interval_net(n, float(rng.uniform(0.5, 10.0))))

    def test_wave_circle_fibres_with_uneven_arcs(self, rng):
        prof = WaveProfile.triangular_pluck(amplitude=0.4)
        fld = circle_wave_metric(wave_metric_field(prof, [0.0, 0.7, 1.9], n_points=13))
        for k in range(len(fld)):
            X = fld.fibre_space(k)
            assert np.ptp(_cycle_arcs(X.dist)) > 1e-3
            self.check_closed_form(rng, X)

    def test_identical_measures_give_exact_zero(self, rng):
        X = circle_net(12, 5.0)
        A = mixed_measures(rng, X, 6)
        assert np.all(np.diag(w1_table(X, rows(A), rows(A))) == 0.0)
        assert w1_hausdorff(X, rows(A), rows(A)) == 0.0
        h = rotation(X, 4)
        assert invariant_simplex_hausdorff(h, h, 2) == 0.0
        # off the cycle too, where a diagonal within TOL.metric_atol of 0
        # would give the simplex a positive cost
        X = validate_metric(random_space(rng, 6).dist + 1e-12 * np.eye(6))
        A = mixed_measures(rng, X, 6)
        assert np.all(np.diag(w1_table(X, rows(A), rows(A))) == 0.0)

    def test_non_cyclic_spaces_keep_the_simplex(self, rng):
        planar = random_space(rng, 7)
        discrete = validate_metric(1.0 - np.eye(4))
        bridge = bridge_metric(interval_net(3, 1.0), interval_net(3, 1.2), (0, 1, 2), 0.2)
        for X in (planar, discrete, bridge):
            assert _cycle_arcs(X.dist) is None
            A, B = mixed_measures(rng, X, 5), mixed_measures(rng, X, 4)
            assert np.array_equal(w1_table(X, rows(A), rows(B)), simplex_table(A, B))

    def test_point_masses_off_one_by_rounding(self, rng):
        # a point mass whose one weight is within TOL.weight_atol of 1 but
        # not 1 ships the lesser weight, as the simplex does
        X = random_space(rng, 5)
        A = [Measure(X, np.eye(5)[k] * (1.0 - 1e-13 * k)) for k in range(5)]
        B = [Measure(X, np.eye(5)[k] * (1.0 - 2e-13 * k)) for k in (4, 2, 0)]
        table = w1_table(X, rows(A), rows(B))
        assert np.array_equal(table, simplex_table(A, B))
        assert table[3, 0] == B[0].weights[4] * X.dist[3, 4]       # B's weight is the lesser
        assert table[4, 2] == A[4].weights[4] * X.dist[4, 0]       # A's weight is the lesser

    def test_dq_upper_reads_the_simplex_table(self):
        SX, SY = simplex_net(interval_net(3, 1.0), 2), simplex_net(interval_net(3, 1.2), 2)
        f = (0, 1, 2)
        bridge = bridge_metric(SX.boundary, SY.boundary, f, 0.2)
        assert _cycle_arcs(bridge.dist) is None
        lift = lambda mu, at: Measure(bridge, np.insert(np.zeros(3), at, mu.weights))
        A = [lift(mu, 0) for mu in net_measures(SX)]
        B = [lift(nu, 3) for nu in net_measures(SY)]
        W = simplex_table(A, B)
        assert dq_upper(SX, SY, f, 0.2) == max(W.min(axis=1).max(), W.min(axis=0).max())

    def test_weights_not_rows_of_the_space_rejected(self):
        X = circle_net(4, 1.0)
        for WA, WB in ((np.eye(4)[0], np.eye(4)),           # one row, not a 2-D array
                       (np.eye(4), np.eye(4)[None]),        # a stack of tables, not rows
                       (np.eye(4)[:, :3], np.eye(4)),       # a column short
                       (np.eye(4), np.eye(5)),              # a column too many
                       (np.zeros((0, 3)), np.eye(4))):      # empty, but not X.size wide
            with pytest.raises(DomainError, match="weights must be"):
                w1_table(X, WA, WB)
            with pytest.raises(DomainError, match="weights must be"):
                w1_hausdorff(X, WB, WA)

    @pytest.mark.parametrize("row, match", [
        ([1.0, 1.0, 0.0, 0.0], "sum to"),
        ([-0.5, 1.5, 0.0, 0.0], "negative weight"),
        ([math.nan, 1.0, 0.0, 0.0], "not a number")])
    def test_rows_that_are_not_measures_rejected(self, row, match):
        # on the cycle metric and off it, as either argument
        for X in (circle_net(4, 4.0), validate_metric(1.0 - np.eye(4))):
            good = np.eye(4)[:1]
            for WA, WB in (([row], good), (good, [row])):
                with pytest.raises(DomainError, match=match):
                    w1_table(X, WA, WB)
                with pytest.raises(DomainError, match=match):
                    w1_hausdorff(X, WA, WB)

    def test_empty_rows_give_an_empty_table(self):
        X = circle_net(4, 1.0)
        assert w1_table(X, np.zeros((0, 4)), np.eye(4)).shape == (0, 4)
        assert w1_table(X, np.eye(4), np.zeros((0, 4))).shape == (4, 0)


class TestWinf:
    def test_trivial(self):
        X = interval_net(4, 1.0)
        mu = uniform_measure(X)
        assert wasserstein_inf(mu, mu) == 0.0
        assert wasserstein_inf(point_mass(X, 0), point_mass(X, 3)) == pytest.approx(1.0)

    def test_line_example_frozen(self):
        X = interval_net(3, 2.0)
        mu = Measure(X, [0.5, 0.5, 0.0])
        nu = Measure(X, [0.0, 0.5, 0.5])
        assert winf_exhaustive(mu.weights, nu.weights, X.dist.tolist(), 2) == pytest.approx(1.0)
        assert wasserstein_inf(mu, nu) == pytest.approx(1.0)

    def test_matches_oracle_quarter_grid(self):
        X = random_space(np.random.default_rng(5), 4)
        D = X.dist.tolist()
        grid = [Measure(X, w) for w in convex_grid(4, 4)]
        for mu, nu in itertools.combinations(grid[::7], 2):
            assert wasserstein_inf(mu, nu) == pytest.approx(
                winf_exhaustive(mu.weights, nu.weights, D, 4), abs=1e-9)

    def test_w1_below_winf(self, rng):
        for _ in range(20):
            X = random_space(rng, int(rng.integers(2, 7)))
            mu, nu = random_measure(rng, X), random_measure(rng, X)
            assert wasserstein1(mu, nu)[0] <= wasserstein_inf(mu, nu) + 1e-9

    def test_matches_hall_oracle_on_tied_circle_distances(self):
        # the 6-point circle has three distinct distances: many 0/1 threshold
        # costs tie, the degenerate case for the simplex feasibility test
        X = circle_net(6, 2 * math.pi)
        D = X.dist.tolist()
        grid = [Measure(X, w) for w in convex_grid(6, 2)]
        pairs = list(itertools.combinations(grid, 2))
        assert len(pairs) == 210
        for mu, nu in pairs:
            assert wasserstein_inf(mu, nu) == pytest.approx(
                winf_hall(mu.weights.tolist(), nu.weights.tolist(), D), abs=1e-9)

    def test_warm_start_matches_cold_search(self):
        # one basis carried through the thresholds gives the value of a
        # fresh start at every threshold, bit for bit
        rng = np.random.default_rng(12)
        pairs = []
        for _ in range(600):
            # planar spaces of 2-24 points, sparse supports
            X = random_space(rng, int(rng.integers(2, 25)))
            w = rng.uniform(0.01, 1.0, size=(2, X.size)) * (rng.uniform(size=(2, X.size)) < 0.5)
            w[:, 0] += w.sum(axis=1) == 0
            pairs.append((Measure(X, w[0] / w[0].sum()), Measure(X, w[1] / w[1].sum())))
        # tie-heavy circle grids: every pair of the 6-point 1/2 grid, every
        # 30th pair of the 8-point 1/3 grid
        X = circle_net(6, 2 * math.pi)
        pairs += itertools.combinations([Measure(X, w) for w in convex_grid(6, 2)], 2)
        X = circle_net(8, 2 * math.pi)
        pairs += list(itertools.combinations([Measure(X, w) for w in convex_grid(8, 3)], 2))[::30]
        for _ in range(150):
            # integer masses on interval nets
            n = int(rng.integers(2, 13))
            X = interval_net(n, float(rng.uniform(0.5, 3.0)))
            total = int(rng.integers(2, 3 * n))
            pairs.append(tuple(Measure(X, rng.multinomial(total, np.ones(n) / n) / total)
                               for _ in range(2)))
        assert len(pairs) >= 1000
        for mu, nu in pairs:
            assert wasserstein_inf(mu, nu) == winf_cold_search(mu, nu)

    def test_threshold_slack_counts_near_ties_as_equal(self):
        # d12 exceeds the candidate 1 by 5e-13, inside the 1e-12 threshold slack
        X = validate_metric(np.array([[0.0, 1.0, 2.0],
                                      [1.0, 0.0, 1.0 + 5e-13],
                                      [2.0, 1.0 + 5e-13, 0.0]]))
        mu = Measure(X, [0.5, 0.5, 0.0])
        nu = Measure(X, [0.0, 0.5, 0.5])
        assert wasserstein_inf(mu, nu) == 1.0


    def test_bracket_holds_the_cold_search_value(self):
        # the floor and ceiling, found without a solve, hold the value of a
        # bisection over every candidate
        rng = np.random.default_rng(29)
        pairs = []
        for _ in range(150):
            # planar spaces of 2-24 points, sparse supports
            X = random_space(rng, int(rng.integers(2, 25)))
            w = rng.uniform(0.01, 1.0, size=(2, X.size)) * (rng.uniform(size=(2, X.size)) < 0.5)
            w[:, 0] += w.sum(axis=1) == 0
            pairs.append((Measure(X, w[0] / w[0].sum()), Measure(X, w[1] / w[1].sum())))
        for _ in range(100):
            # full supports on planar spaces of 2-40 points
            X = random_space(rng, int(rng.integers(2, 41)))
            pairs.append((random_measure(rng, X), random_measure(rng, X)))
        # tie-heavy circle grid
        X = circle_net(6, 2 * math.pi)
        pairs += list(itertools.combinations([Measure(X, w) for w in convex_grid(6, 2)], 2))[::3]
        for _ in range(50):
            # integer masses on interval nets
            n = int(rng.integers(2, 13))
            X = interval_net(n, float(rng.uniform(0.5, 3.0)))
            total = int(rng.integers(2, 3 * n))
            pairs.append(tuple(Measure(X, rng.multinomial(total, np.ones(n) / n) / total)
                               for _ in range(2)))
        exact_floors = 0
        for mu, nu in pairs:
            if np.array_equal(mu.weights, nu.weights):
                continue
            sa, sb = mu.support, nu.support
            a, b = mu.weights[sa], nu.weights[sb]
            D = mu.space.dist[np.ix_(sa, sb)]
            cands = np.unique(D)
            lo, hi = _winf_bracket(a, b, D, cands, _least_cost_basis(a, b, D))
            value = winf_cold_search(mu, nu)
            assert cands[lo] <= value <= cands[hi]
            exact_floors += cands[lo] == value
        # in most pairs the floor is the value itself
        assert exact_floors >= len(pairs) // 2

    def test_bracket_rejects_inconsistent_marginals(self):
        a, b = np.array([0.5, 0.5]), np.array([0.5, 0.25])
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError, match="marginals inconsistent"):
            _winf_bracket(a, b, D, np.unique(D), _least_cost_basis(a, b, D))

    def test_bracket_saves_solves(self, monkeypatch):
        # on full-support 24-point planar pairs the bracketed search makes
        # fewer threshold solves than a bisection over every candidate
        from metriclab import transport
        real = transport._transport_simplex
        solves = [0]

        def counted(*args, **kwargs):
            solves[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(transport, "_transport_simplex", counted)
        rng = np.random.default_rng(24)
        pairs = []
        for _ in range(20):
            X = random_space(rng, 24)
            pairs.append((random_measure(rng, X), random_measure(rng, X)))
        for mu, nu in pairs:
            wasserstein_inf(mu, nu)
        bracketed, solves[0] = solves[0], 0
        for mu, nu in pairs:
            winf_cold_search(mu, nu)
        assert bracketed < solves[0]

class TestPushforward:
    def test_identity_and_delta(self):
        X = interval_net(4, 1.0)
        mu = uniform_measure(X)
        assert np.allclose(pushforward(mu, range(4)).weights, mu.weights)
        assert pushforward(point_mass(X, 1), [3, 3, 3, 3]).weights[3] == 1.0

    @pytest.mark.parametrize("h", [[-1, 0, 1], [0, 1, 3], [0.7, 1, 2], [0, 1], [0, 1, 2, 0]])
    def test_map_off_the_space_rejected(self, h):
        # before, -1 wrapped round and put the mass on point 2, and 0.7 became 0
        with pytest.raises(DomainError, match="integer index in"):
            pushforward(point_mass(interval_net(3, 1.0), 0), h)

    def test_merge(self):
        X = interval_net(3, 1.0)
        mu = Measure(X, [0.3, 0.7, 0.0])
        out = pushforward(mu, [2, 2, 2])
        assert out.weights[2] == pytest.approx(1.0)

    def test_one_lipschitz_contraction(self, rng):
        X = circle_net(8, 2 * math.pi)
        shift = (np.arange(8) + 3) % 8        # isometry, in particular 1-Lipschitz
        fold = np.minimum(np.arange(8), 8 - np.arange(8))  # contraction
        for h in (shift, fold):
            for _ in range(10):
                mu, nu = random_measure(rng, X), random_measure(rng, X)
                before, _ = wasserstein1(mu, nu)
                after, _ = wasserstein1(pushforward(mu, h), pushforward(nu, h))
                assert after <= before + 1e-7

    def test_averaged_pushforward_contraction(self, rng):
        X = interval_net(6, 2.0)
        maps = [np.minimum(np.arange(6), 5 - 0 * np.arange(6)),
                np.maximum(np.arange(6) - 1, 0),
                np.arange(6)]
        for _ in range(10):
            mu, nu = random_measure(rng, X), random_measure(rng, X)
            before, _ = wasserstein1(mu, nu)
            avg_mu = mix([pushforward(mu, h) for h in maps], [1 / 3] * 3)
            avg_nu = mix([pushforward(nu, h) for h in maps], [1 / 3] * 3)
            after, _ = wasserstein1(avg_mu, avg_nu)
            assert after <= before + 1e-7

    def test_epsilon_isometry_transport_stability(self, rng):
        X = interval_net(5, 2.0)
        # perturbed identity: distortion bounded by twice the perturbation scale
        h = np.array([0, 1, 2, 3, 4])
        h_pert = np.array([0, 2, 2, 3, 4])
        D = X.dist
        eps = float(np.abs(D[np.ix_(h_pert, h_pert)] - D).max())
        for _ in range(15):
            mu, nu = random_measure(rng, X), random_measure(rng, X)
            before, _ = wasserstein1(mu, nu)
            after, _ = wasserstein1(pushforward(mu, h_pert), pushforward(nu, h_pert))
            assert abs(after - before) <= eps + 1e-7


class TestProbNetMix:
    def test_singleton_and_small(self):
        X1 = validate_metric([[0.0]])
        net = prob_net(X1, 3)
        assert len(net_measures(net)) == 1 and net_measures(net)[0].weights[0] == 1.0
        X2 = validate_metric([[0, 1], [1, 0]])
        net2 = prob_net(X2, 2)
        got = sorted(tuple(m.weights) for m in net_measures(net2))
        assert got == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
        X3 = interval_net(3, 1.0)
        net3 = prob_net(X3, 1)
        assert len(net_measures(net3)) == 3
        assert all(m.weights.max() == 1.0 for m in net_measures(net3))

    def test_convex_grid_lexicographic(self):
        for k in range(1, 7):
            for m in range(1, 7):
                want = [c for c in itertools.product(range(m + 1), repeat=k) if sum(c) == m]
                got = convex_grid(k, m)
                assert got.shape == (len(want), k)
                assert np.array_equal(got, np.asarray(want) / m)

    def test_convex_grid_needs_resolution_one(self):
        for k, m in ((1, 0), (3, 0), (2, -1)):
            with pytest.raises(DomainError, match="resolution"):
                convex_grid(k, m)
        with pytest.raises(DomainError, match="resolution"):
            prob_net(interval_net(3, 1.0), 0)

    def test_cap_error(self):
        # C(49, 9), about 2e9 weight vectors, is over the default cap of 200 000
        with pytest.raises(DomainError):
            prob_net(interval_net(10, 1.0), 40)

    def test_density_bound_holds_empirically(self, rng):
        X = interval_net(4, 2.0)
        net = prob_net(X, 3)
        for _ in range(10):
            mu = random_measure(rng, X)
            best = min(wasserstein1(mu, nu)[0] for nu in net_measures(net))
            assert best <= net.density + 1e-9

    def test_mix(self):
        X = interval_net(3, 1.0)
        a, b = point_mass(X, 0), point_mass(X, 2)
        m = mix([a, b], [0.5, 0.5])
        assert m.weights[0] == m.weights[2] == pytest.approx(0.5)
        assert np.allclose(mix([a], [1.0]).weights, a.weights)
        with pytest.raises(DomainError):
            mix([a, b], [0.7, 0.7])

    def test_mix_pushforward_commute(self, rng):
        X = interval_net(4, 1.0)
        ms = [random_measure(rng, X) for _ in range(3)]
        lam = rng.dirichlet(np.ones(3))
        h = rng.integers(0, 4, size=4)
        left = pushforward(mix(ms, lam), h)
        right = mix([pushforward(m, h) for m in ms], lam)
        assert np.allclose(left.weights, right.weights)


class TestMetricAxioms:
    @given(st.integers(0, 10_000))
    def test_w1_triangle_on_random_triples(self, seed):
        rng = np.random.default_rng(seed)
        X = random_space(rng, int(rng.integers(2, 6)))
        a, b, c = (random_measure(rng, X) for _ in range(3))
        ab, _ = wasserstein1(a, b)
        bc, _ = wasserstein1(b, c)
        ac, _ = wasserstein1(a, c)
        assert ac <= ab + bc + 1e-7
        assert ab == pytest.approx(wasserstein1(b, a)[0], abs=1e-9)
        assert wasserstein1(a, a)[0] == 0.0
