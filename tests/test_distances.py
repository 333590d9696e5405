import itertools
import math

import numpy as np
import pytest

from metriclab import (TOL, DomainError, Measure, SearchBudget, circle_net, dq_upper,
                       epsilon_isometry_check, fukaya_distance, gh_distance,
                       intertwining_gap, interval_net, simplex_net,
                       validate_metric, wasserstein1)
from metriclab import distances
from metriclab.distances import MapCost, SimplexNet, _W1Table, search_maps
from metriclab.transport import convex_grid

from oracles import enumerate_maps_loop, gh_exhaustive, net_measures


def _planar(rng, n):
    """n random points of the plane, every distance raised by 0.05."""
    pts = rng.uniform(0.0, 4.0, size=(n, 2))
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return validate_metric(D + 0.05 * (1.0 - np.eye(n)))


def _coded_cost(blocks, t0, t1, t01):
    """MapCost read off tables indexed by each map's position in
    lexicographic order."""
    (n0, m0), (n1, m1) = blocks
    c0, c1 = m0 ** np.arange(n0)[::-1], m1 ** np.arange(n1)[::-1]
    return MapCost((lambda F: t0[F @ c0], lambda G: t1[G @ c1]),
                   lambda F, G: t01[np.ix_(F @ c0, G @ c1)])


class TestGH:
    def test_isometric_zero(self):
        X = circle_net(4, 2.0)
        Y = circle_net(4, 2.0)
        v, kind = gh_distance(X, Y)
        assert v == 0.0 and kind == "exact"

    def test_singletons(self):
        X = validate_metric([[0.0]])
        assert gh_distance(X, X)[0] == 0.0

    def test_two_point_formula(self, rng):
        for _ in range(20):
            d1, d2 = rng.uniform(0.5, 4.0, size=2)
            X = validate_metric([[0, d1], [d1, 0]])
            Y = validate_metric([[0, d2], [d2, 0]])
            v, kind = gh_distance(X, Y)
            assert kind == "exact"
            assert v == pytest.approx(abs(d1 - d2) / 2)

    def test_exhaustive_matches_oracle(self, rng):
        for nx, ny in [rng.integers(2, 4, size=2) for _ in range(4)] + [(4, 4), (4, 4)]:
            ax = np.sort(rng.uniform(0, 3, size=nx))
            ay = np.sort(rng.uniform(0, 3, size=ny))
            X = validate_metric(np.abs(ax[:, None] - ax[None, :]) + 0.01 * (1 - np.eye(nx)))
            Y = validate_metric(np.abs(ay[:, None] - ay[None, :]) + 0.01 * (1 - np.eye(ny)))
            v, kind = gh_distance(X, Y)
            assert kind == "exact"
            assert v == pytest.approx(gh_exhaustive(X.dist.tolist(), Y.dist.tolist()), abs=1e-9)

    def test_lower_bound_respected(self):
        X = interval_net(3, 1.0)
        Y = interval_net(4, 3.0)
        v, _ = gh_distance(X, Y)
        assert v >= 0.5 * abs(X.diameter - Y.diameter) - 1e-12

    def test_upper_flag_beyond_budget(self):
        X = interval_net(5, 1.0)
        Y = interval_net(5, 1.2)
        v, kind = gh_distance(X, Y, SearchBudget(max_map_pairs=100))
        assert kind == "upper"
        assert v >= 0.5 * abs(X.diameter - Y.diameter) - 1e-12

    def test_upper_descends_on_both_maps(self):
        # the exact value is 0.1; a descent on phi alone stops at 0.6
        v, kind = gh_distance(interval_net(5, 1.0), interval_net(5, 1.2),
                              SearchBudget(max_map_pairs=100))
        assert kind == "upper"
        assert 0.1 - 1e-12 <= v < 0.6


class TestSearchMaps:
    def test_one_block_first_minimum(self, rng):
        table = rng.integers(0, 3, size=(3, 3, 3))      # few values, many ties
        cost = MapCost((lambda F: table[tuple(F.T)].astype(float),))
        value, witness, exhaustive = search_maps([(3, 3)], cost, SearchBudget(), [])
        expect = min(itertools.product(range(3), repeat=3), key=lambda f: table[f])
        assert exhaustive
        assert witness == (expect,) and value == table[expect]

    def test_two_blocks_first_minimum(self, rng):
        t_f = rng.integers(0, 4, size=(2, 2, 2))
        t_g = rng.integers(0, 4, size=(3, 3))
        t_fg = rng.integers(0, 4, size=(2, 2, 2, 3, 3))
        cost = MapCost((lambda F: t_f[tuple(F.T)].astype(float),
                        lambda G: t_g[tuple(G.T)].astype(float)),
                       lambda F, G: t_fg[tuple(F.T[:, :, None]) + tuple(G.T[:, None, :])])
        value, witness, exhaustive = search_maps([(3, 2), (2, 3)], cost, SearchBudget(), [])
        pairs = itertools.product(itertools.product(range(2), repeat=3),
                                  itertools.product(range(3), repeat=2))
        f, g = min(pairs, key=lambda p: max(t_f[p[0]], t_g[p[1]], t_fg[p[0] + p[1]]))
        assert exhaustive
        assert witness == (f, g) and value == max(t_f[f], t_g[g], t_fg[f + g])

    def test_maps_come_in_product_order(self):
        # without a partial hook every map is scored, in chunks, in
        # itertools.product order; all-zero costs make the first map win
        for blocks in ([(3, 4)], [(15, 2)], [(3, 2), (2, 3)]):
            seen = [[] for _ in blocks]

            def unary(k):
                def u(F):
                    seen[k].extend(map(tuple, F.tolist()))
                    return np.zeros(len(F))
                return u
            cost = MapCost(tuple(unary(k) for k in range(len(blocks))),
                           None if len(blocks) == 1 else lambda F, G: np.zeros((len(F), len(G))))
            value, witness, exhaustive = search_maps(blocks, cost, SearchBudget(), [])
            expect = [list(itertools.product(range(n_to), repeat=n_from))
                      for n_from, n_to in blocks]
            assert seen == expect
            assert exhaustive and value == 0.0 and witness == tuple(e[0] for e in expect)


class TestPrunedSearch:
    """The two-block enumeration scores the cross term only where both unary
    terms stay within the best cost seen; value and witness must be those of
    scoring every pair."""

    @staticmethod
    def _check(blocks, cost):
        value, witness, exhaustive = search_maps(blocks, cost, SearchBudget(), [])
        assert exhaustive
        assert (value, witness) == enumerate_maps_loop(blocks, cost)
        return value, witness

    def test_random_ties(self, rng):
        for blocks in ([(3, 3), (3, 3)], [(4, 4), (4, 3)], [(2, 3), (3, 2)]):
            n0, n1 = (m ** n for n, m in blocks)
            for _ in range(20):
                t0, t1 = rng.integers(0, 4, size=n0) / 1.0, rng.integers(0, 4, size=n1) / 1.0
                t01 = rng.integers(0, 5, size=(n0, n1)) / 1.0
                self._check(blocks, _coded_cost(blocks, t0, t1, t01))

    def test_unary_argmins_off_the_optimum(self, rng):
        # more cheapest rows and columns than the first bound's probe, all
        # of them paired at a high cross cost
        blocks = [(3, 3), (3, 3)]
        for _ in range(20):
            t0, t1 = rng.integers(1, 4, size=(2, 27)) / 1.0
            low0, low1 = rng.permutation(27)[:10], rng.permutation(27)[:10]
            t0[low0] = t1[low1] = 0.0
            t01 = rng.integers(0, 4, size=(27, 27)) / 1.0
            t01[low0, :] = t01[:, low1] = 9.0
            cost = _coded_cost(blocks, t0, t1, t01)
            value, (f, g) = self._check(blocks, cost)
            F, G = np.asarray([f]), np.asarray([g])
            assert cost.unary[0](F)[0] > 0.0 and cost.unary[1](G)[0] > 0.0 and value < 9.0

    def test_zero_unary_prunes_nothing(self, rng):
        blocks = [(4, 4), (4, 3)]
        zero0, zero1 = np.zeros(256), np.zeros(81)
        for _ in range(5):
            t01 = rng.integers(0, 3, size=(256, 81)) / 1.0
            self._check(blocks, _coded_cost(blocks, zero0, zero1, t01))

    def test_scores_fewer_pairs(self, rng, monkeypatch):
        enumerate_pruned = distances._enumerate
        seen = []

        def counting(blocks, cost):
            scored = [0]

            def cross(F, G):
                scored[0] += len(F) * len(G)
                return cost.cross(F, G)
            found = enumerate_pruned(blocks, MapCost(cost.unary, cross))
            seen.append((scored[0], found, enumerate_maps_loop(blocks, cost)))
            return found

        monkeypatch.setattr(distances, "_enumerate", counting)
        for _ in range(3):
            gh_distance(_planar(rng, 4), _planar(rng, 4))
        for scored, found, full in seen:
            assert scored < 256 * 256
            assert found == full

    def test_gh_matches_full_loop(self, rng, monkeypatch):
        pairs = [(_planar(rng, 4), _planar(rng, 4)) for _ in range(12)]
        pruned = [gh_distance(X, Y) for X, Y in pairs]
        monkeypatch.setattr(distances, "_enumerate", enumerate_maps_loop)
        assert pruned == [gh_distance(X, Y) for X, Y in pairs]

    def test_gap_matches_full_loop(self, rng, monkeypatch):
        nets = [(simplex_net(_planar(rng, n), m), simplex_net(_planar(rng, n), m))
                for n in (3, 4) for m in (1, 2) for _ in range(2)]
        pruned = [intertwining_gap(SX, SY) for SX, SY in nets]
        monkeypatch.setattr(distances, "_enumerate", enumerate_maps_loop)
        assert pruned == [intertwining_gap(SX, SY) for SX, SY in nets]

    def test_fukaya_matches_full_loop(self, rng, monkeypatch):
        nets = [(simplex_net(_planar(rng, nx), m), simplex_net(_planar(rng, ny), m))
                for nx, ny in ((3, 4), (4, 3), (4, 4)) for m in (1, 2)]
        grown = [fukaya_distance(SX, SY) for SX, SY in nets]
        monkeypatch.setattr(distances, "_enumerate", enumerate_maps_loop)
        assert grown == [fukaya_distance(SX, SY) for SX, SY in nets]


class TestW1Table:
    def test_entries_independent_of_request_order(self, rng):
        # find two grid measures whose W1 differs in the last bit between
        # the two orientations of the simplex
        for _ in range(200):
            X = _planar(rng, int(rng.integers(3, 6)))
            S = simplex_net(X, int(rng.integers(1, 4)))
            measures = net_measures(S)
            found = [(p, q) for p, q in itertools.combinations(range(len(measures)), 2)
                     if wasserstein1(measures[p], measures[q])[0]
                     != wasserstein1(measures[q], measures[p])[0]]
            if found:
                break
        assert found, "no asymmetric pair found"
        p, q = found[0]
        lo, hi = sorted((p, q), key=lambda k: S.counts[k] @ (S.resolution + 1) ** np.arange(X.size))
        expect = wasserstein1(measures[lo], measures[hi])[0]
        for first in ((p, q), (q, p)):
            table = _W1Table(X, S.resolution)
            slots = table.index(S.counts @ table.radix)
            table.dist(slots[first[0]], slots[first[1]])
            assert table.dist(slots[p], slots[q]) == expect
            assert table.dist(slots[q], slots[p]) == expect


    def test_every_entry_is_wasserstein1_from_the_lower_code(self, rng):
        # random boundaries at scales 1-3, and two nets on one boundary that
        # share a table at their lcm scale; entries are asked for one at a
        # time in shuffled order, then all at once
        cases = []
        for _ in range(6):
            X = _planar(rng, int(rng.integers(3, 6)))
            S = simplex_net(X, int(rng.integers(1, 4)))
            table = _W1Table(X, S.resolution)
            cases.append((table, table.index(S.counts @ table.radix)))
        X = _planar(rng, 4)
        x, y = distances._sides(simplex_net(X, 2), simplex_net(X, 3))
        assert x.table is y.table and x.table.scale == 6
        cases.append((x.table, np.concatenate([x.slots, y.slots])))
        for table, slots in cases:
            slots = np.unique(slots)
            codes = table._codes[slots]
            measures = [Measure(table.space, (c // table.radix % (table.scale + 1)) / table.scale)
                        for c in codes.tolist()]
            expect = np.array([[0.0 if p == q else
                                wasserstein1(*(measures[k] for k in sorted(
                                    (p, q), key=codes.__getitem__)))[0]
                                for q in range(len(slots))] for p in range(len(slots))])
            pairs = [(p, q) for p in range(len(slots)) for q in range(len(slots))]
            for k in rng.permutation(len(pairs)):
                p, q = pairs[k]
                assert table.dist(slots[p], slots[q]) == expect[p, q]
            assert np.array_equal(table.dist(slots[:, None], slots[None, :]), expect)

    def test_search_entries_read_the_lower_code_orientation(self, rng, monkeypatch):
        # distances raised by 1e-12 above the diagonal, within
        # TOL.metric_atol: W1 between two point masses differs in its last
        # bits between the two orientations, and each entry a gap search
        # solves must be W1 from the lower code's measure
        tables = []

        class Recorded(_W1Table):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)
        monkeypatch.setattr(distances, "_W1Table", Recorded)

        def skewed(n):
            X = _planar(rng, n)
            return validate_metric(X.dist + 1e-12 * np.triu(np.ones((n, n)), 1))

        for n, m in ((4, 1), (3, 2)):
            intertwining_gap(simplex_net(skewed(n), m), simplex_net(skewed(n), m))
        flipped = 0
        for table in tables:
            measures = [Measure(table.space, w) for w in table._weights]
            for p, q in zip(*np.nonzero(~np.isnan(table._table))):
                if p == q:
                    continue
                lo, hi = sorted((p, q), key=table._codes.__getitem__)
                expect = wasserstein1(measures[lo], measures[hi])[0]
                assert table._table[p, q] == expect
                flipped += wasserstein1(measures[hi], measures[lo])[0] != expect
        assert flipped

    def test_known_codes_keep_their_slots(self, rng):
        X = _planar(rng, 4)
        S = simplex_net(X, 2)
        table = _W1Table(X, 2)
        codes = S.counts @ table.radix
        first = table.index(codes[:4])
        slots = table.index(codes)
        assert slots[:4].tolist() == first.tolist()
        size = len(table._codes)
        assert table.index(codes[::-1]).tolist() == slots[::-1].tolist()
        assert table.index(codes.reshape(2, -1)).tolist() == slots.reshape(2, -1).tolist()
        assert len(table._codes) == size and table._table.shape == (size, size)

    def test_code_off_the_scale_raises(self):
        X = interval_net(3, 1.0)
        table = _W1Table(X, 2)
        table.index(np.array([2, 6]))             # counts (2, 0, 0) and (0, 2, 0)
        for counts in ([1, 0, 0], [2, 1, 0], [0, 0, 0]):
            with pytest.raises(DomainError):
                table.index(np.array([2, np.dot(counts, table.radix)]))
        assert table._codes.tolist() == [2, 6]

    @pytest.mark.parametrize("n_from, n_to", [(4, 4), (3, 3), (5, 5), (1, 3), (3, 1), (6, 2)])
    def test_all_maps_in_product_order(self, n_from, n_to):
        assert (distances._all_maps(n_from, n_to).tolist()
                == [list(f) for f in itertools.product(range(n_to), repeat=n_from)])

    def test_searches_pinned_on_criterion_5_nets(self):
        # values and witnesses of the acceptance criterion-5 nets, recorded
        # before the table held weights in place of measures
        rng = np.random.default_rng(505)
        nets = [simplex_net(_planar(rng, 3 if k % 2 == 0 else 4), 2 if k % 2 == 0 else 1)
                for k in range(10)]
        pinned = [
            ((0, 1), (1.5338585665099815, (3, 1, 0), (2, 1, 1, 0)),
             (1.2439427014156113, (0, 2, 3)), 2.229774070117818),
            ((1, 3), (1.2558726745356013, (2, 1, 1, 0), (3, 1, 0, 0)),
             (1.2558726745356013, (2, 1, 1, 0)), 1.3715009912369744),
            ((2, 4), (2.4476097313422267, (0, 2, 0), (0, 1, 1)),
             (2.4476097313422267, (0, 2, 0)), 2.805734703645877),
            ((3, 0), (1.4457284480649584, (0, 1, 2, 2), (0, 1, 2)),
             (1.8357123401891924, (0, 1, 0, 2)), 2.044696001745786),
            ((4, 7), (1.4702421058200343, (1, 0, 2), (1, 0, 2, 0)),
             (1.1859244507890598, (0, 1, 3)), 1.934451326065231),
            ((8, 9), (1.2431764882720566, (0, 2, 3), (0, 0, 1, 2)),
             (1.2431764882720566, (0, 2, 3)), 1.818874668489052),
        ]
        for (a, b), gap, fukaya, dq in pinned:
            g = intertwining_gap(nets[a], nets[b])
            f = fukaya_distance(nets[a], nets[b])
            assert (g.value, g.report.forward, g.report.backward) == gap
            assert (f.value, f.report.forward) == fukaya
            assert dq_upper(nets[a], nets[b], g.report.forward) == dq
            assert g.exhaustive and f.exhaustive


class TestSimplexNet:
    def test_off_grid_measures_rejected(self):
        # a row of counts that does not sum to the resolution is a measure off
        # the 1/m grid, or no probability measure at all
        X = interval_net(3, 1.0)
        with pytest.raises(DomainError):
            SimplexNet(X, 2, [[2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 0, 0]], 0.1)
        with pytest.raises(DomainError):
            SimplexNet(X, 2, [[2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 1]], 0.1)
        net = SimplexNet(X, 6, [[6, 0, 0], [0, 6, 0], [0, 0, 6], [2, 0, 4]], 0.5)
        assert net.resolution == 6
        assert net.counts[-1].tolist() == [2, 0, 4]
        assert net_measures(net)[-1].weights.tolist() == [2 / 6, 0.0, 4 / 6]

    def test_point_masses_required(self):
        X = interval_net(3, 1.0)
        with pytest.raises(DomainError, match="point mass at index 2"):
            SimplexNet(X, 2, [[2, 0, 0], [0, 2, 0], [1, 1, 0]], 0.1)

    @pytest.mark.parametrize("counts", [
        [2, 0, 0],                                      # one row, not a 2-D array
        [[2, 0], [0, 2]],                               # a column short
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0]],     # a column too many
        [[2.0, 0, 0], [0, 2, 0], [0, 0, 2]],            # not integers
        [[2, 0, 0], [0, 2, 0], [0, 0, 2], [3, -1, 0]],  # a negative count
    ])
    def test_malformed_counts_rejected(self, counts):
        with pytest.raises(DomainError):
            SimplexNet(interval_net(3, 1.0), 2, counts, 0.1)

    def test_resolution_below_one_rejected(self):
        X = validate_metric([[0.0]])
        with pytest.raises(DomainError):
            SimplexNet(X, 0, [[0]], 0.0)

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (2, 3), (3, 1), (3, 2), (4, 3), (5, 2)])
    def test_counts_are_the_convex_grid(self, n, m):
        S = simplex_net(interval_net(n, 1.0) if n > 1 else validate_metric([[0.0]]), m)
        grid = convex_grid(n, m)
        assert S.counts.dtype == np.int64 and S.resolution == m
        assert np.array_equal(S.counts, np.rint(grid * m))
        W = np.array([mu.weights for mu in net_measures(S)])
        assert W.shape == grid.shape and W.tobytes() == grid.tobytes()
        assert all(mu.space is S.boundary for mu in net_measures(S))

    def test_counts_read_only(self):
        counts = np.array([[2, 0], [1, 1], [0, 2]])
        S = SimplexNet(interval_net(2, 1.0), 2, counts, 0.5)
        with pytest.raises(ValueError):
            S.counts[0, 0] = 1
        counts[0, 0] = 1        # the net holds its own copy
        assert S.counts[0].tolist() == [2, 0]

    def test_one_point_boundary_keeps_its_resolution(self):
        # the float-derived resolution of a one-point net was 1 whatever m;
        # now it is m, and the searches give the same values and witnesses
        P = validate_metric([[0.0]])
        SY, SZ = simplex_net(interval_net(3, 1.0), 2), simplex_net(circle_net(4, 2.0), 3)
        for m in (1, 3):
            SP = simplex_net(P, m)
            assert SP.resolution == m and SP.counts.tolist() == [[m]]
            pinned = [
                ((SP, SY), (1.0, (0,), (0, 0, 0)), (0.5, (1,))),
                ((SY, SP), (1.0, (0, 0, 0), (0,)), (1.0, (0, 0, 0))),
                ((SP, SZ), (1.0, (0,), (0, 0, 0, 0)), (1.0, (0,))),
                ((SZ, SP), (1.0, (0, 0, 0, 0), (0,)), (1.0, (0, 0, 0, 0))),
            ]
            for (A, B), gap, fukaya in pinned:
                g, f = intertwining_gap(A, B), fukaya_distance(A, B)
                assert (g.value, g.report.forward, g.report.backward) == gap
                assert (f.value, f.report.forward) == fukaya
        # searched on the one-point net's own grid, 1/1, not on 1/1000, whose
        # codes on an 8-point boundary would overflow int64
        SP, SW = simplex_net(P, 1000), simplex_net(interval_net(8, 1.0), 1)
        g, f = intertwining_gap(SP, SW), fukaya_distance(SP, SW)
        assert (g.value, g.report.forward, g.report.backward) == (1.0, (0,), (0,) * 8)
        assert (f.value, f.report.forward) == (4 / 7, (3,))

    def test_builder(self):
        X = interval_net(3, 1.0)
        S = simplex_net(X, 2)
        assert len(S.counts) == 6


class TestDqUpper:
    def test_matched_nets(self):
        X = interval_net(3, 1.0)
        S = simplex_net(X, 2)
        for delta in (0.1, 0.3, 0.6):
            v = dq_upper(S, S, range(3), delta)
            assert v <= delta / 2 + S.density + 1e-9
        # monotone in delta
        vals = [dq_upper(S, S, range(3), d) for d in (0.1, 0.2, 0.4)]
        assert vals == sorted(vals)

    def test_point_mass_nets_boundary_hausdorff(self):
        X = interval_net(3, 1.0)
        Y = interval_net(3, 1.2)
        SX, SY = simplex_net(X, 1), simplex_net(Y, 1)
        f = (0, 1, 2)
        v = dq_upper(SX, SY, f)
        # oracle: direct computation inside the bridge on point masses only
        from metriclab import bridge_metric
        dist_f = float(np.abs(Y.dist[np.ix_(f, f)] - X.dist).max())
        B = bridge_metric(X, Y, f, dist_f)
        cross = B.dist[:3, 3:]
        expect = max(cross.min(axis=1).max(), cross.min(axis=0).max())
        assert v == pytest.approx(expect, abs=1e-9)

    def test_isometric_copy_stays_at_the_floor(self):
        # the identity has distortion 0, so delta falls to the floor, and the
        # bridge's cross distances of half of it must still pass validate_metric
        S = simplex_net(circle_net(4, 2 * math.pi), 2)
        assert 0 < dq_upper(S, S, range(4)) <= TOL.bridge_delta_floor

    def test_scaled_circles_trend(self):
        X = circle_net(4, 2 * math.pi)
        SX = simplex_net(X, 1)
        vals = []
        for s in (0.4, 0.2, 0.1):
            Y = circle_net(4, 2 * math.pi * (1 + s))
            vals.append(dq_upper(SX, simplex_net(Y, 1), range(4)))
        assert vals[0] >= vals[1] >= vals[2]


class TestIntertwiningGap:
    def test_identical_zero(self):
        X = interval_net(3, 1.0)
        S = simplex_net(X, 2)
        res = intertwining_gap(S, S)
        assert res.exhaustive
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_relabelled_circle_zero(self):
        X = circle_net(4, 2.0)
        perm = [1, 2, 3, 0]
        Y = validate_metric(X.dist[np.ix_(perm, perm)], meta=X.meta)
        res = intertwining_gap(simplex_net(X, 1), simplex_net(Y, 1))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_scaled_intervals_window(self):
        SX = simplex_net(interval_net(3, 1.0), 2)
        SY = simplex_net(interval_net(3, 1.2), 2)
        res = intertwining_gap(SX, SY)
        assert res.exhaustive
        slack = SX.density + SY.density
        assert 0.1 - slack <= res.value <= 0.2 + 1e-9

    def test_local_search_flagged(self):
        SX = simplex_net(interval_net(3, 1.0), 1)
        SY = simplex_net(interval_net(3, 1.3), 1)
        res = intertwining_gap(SX, SY, SearchBudget(max_map_pairs=10))
        assert not res.exhaustive
        exhaustive = intertwining_gap(SX, SY)
        assert res.value >= exhaustive.value - 1e-12

    def test_fixed_pair_witness(self):
        SX = simplex_net(interval_net(3, 1.0), 1)
        SY = simplex_net(interval_net(3, 1.1), 1)
        res = intertwining_gap(SX, SY, fixed_pair=((0, 1, 2), (0, 1, 2)))
        best = intertwining_gap(SX, SY)
        assert res.value >= best.value - 1e-12

    def test_sixteen_point_boundaries(self):
        # the inversion term pushes each composed self-map as it is; none is
        # coded in base 16, which would overflow int64 on 16 points
        SX = simplex_net(circle_net(16, 6.0), 1)
        SY = simplex_net(circle_net(16, 7.0), 1)
        res = intertwining_gap(SX, SY, SearchBudget(max_map_pairs=1000, local_steps=2))
        assert not res.exhaustive
        pinned = intertwining_gap(SX, SY, fixed_pair=(res.report.forward, res.report.backward))
        assert pinned.value == res.value


class TestFukaya:
    def test_identical_zero(self):
        S = simplex_net(interval_net(3, 1.0), 2)
        assert fukaya_distance(S, S).value == pytest.approx(0.0, abs=1e-12)

    def test_below_gap(self):
        pairs = [(interval_net(3, 1.0), interval_net(3, 1.2)),
                 (circle_net(3, 2.0), interval_net(3, 1.0)),
                 (interval_net(4, 2.0), circle_net(4, 2.0))]
        for X, Y in pairs:
            SX, SY = simplex_net(X, 1), simplex_net(Y, 1)
            assert fukaya_distance(SX, SY).value <= intertwining_gap(SX, SY).value + 1e-9

    @pytest.mark.parametrize("m_x, m_y", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3)])
    def test_below_gap_when_target_resolution_divides_source(self, m_x, m_y):
        rng = np.random.default_rng(2100 + 10 * m_x + m_y)
        for _ in range(4):
            SX = simplex_net(_planar(rng, int(rng.integers(2, 5))), m_x)
            SY = simplex_net(_planar(rng, int(rng.integers(2, 5))), m_y)
            fukaya, gap = fukaya_distance(SX, SY), intertwining_gap(SX, SY)
            assert fukaya.exhaustive and gap.exhaustive
            assert fukaya.value <= gap.value + 1e-9

    def test_scaled_intervals_window(self):
        SX = simplex_net(interval_net(3, 1.0), 2)
        SY = simplex_net(interval_net(3, 1.2), 2)
        res = fukaya_distance(SX, SY)
        slack = SX.density + SY.density
        assert 0.1 - slack <= res.value <= 0.2 + 1e-9


    def test_circle_nets_beyond_budget_reach_the_exhaustive_value(self):
        # every point of a circle net has the same distance profile, so the
        # nearest-profile seed is constant; the injective seed spreads out
        SX = simplex_net(circle_net(6, 2 * math.pi), 1)
        SY = simplex_net(circle_net(6, 2.6 * math.pi), 1)
        exact = fukaya_distance(SX, SY)
        res = fukaya_distance(SX, SY, SearchBudget(max_map_pairs=100))
        assert exact.exhaustive and not res.exhaustive
        assert res.value == exact.value == pytest.approx(0.3 * math.pi)
        assert res.report.forward == exact.report.forward == (0, 1, 2, 3, 4, 5)

    def test_circle_nets_into_a_smaller_space_beyond_budget(self):
        # the constant profile seed stays at the diameter (pi); the spread
        # seed, which covers the smaller net, lets the descent get close to
        # the exhaustive value
        SX = simplex_net(circle_net(6, 2 * math.pi), 1)
        SY = simplex_net(circle_net(4, 2.6 * math.pi), 1)
        exact = fukaya_distance(SX, SY)
        res = fukaya_distance(SX, SY, SearchBudget(max_map_pairs=100))
        assert exact.exhaustive and not res.exhaustive
        assert exact.value - 1e-12 <= res.value <= 2 * math.pi / 3 + 1e-12

    def test_coupling_seeds(self):
        SX = simplex_net(circle_net(4, 2.0), 1)
        SY = simplex_net(circle_net(6, 3.0), 1)
        assert distances._coupling_seeds(SX, SY) == [(0, 0, 0, 0), (0, 1, 2, 3)]
        # into a smaller space the spread seed covers it, then goes round again
        assert distances._coupling_seeds(SY, SX) == [(0,) * 6, (0, 1, 2, 3, 0, 1)]
        assert distances._coupling_seeds(SX, SX) == [(0, 1, 2, 3)]


class TestEpsilonIsometryCheck:
    def test_isometry(self):
        X = interval_net(3, 1.0)
        S = simplex_net(X, 2)
        rep = epsilon_isometry_check(range(3), S, S)
        assert rep.distortion == pytest.approx(0.0, abs=1e-12)
        assert rep.boundary_distortion == 0.0

    def test_constant_map(self):
        X = validate_metric([[0, 0.7], [0.7, 0]])
        S = simplex_net(X, 1)
        rep = epsilon_isometry_check((0, 0), S, S)
        assert rep.boundary_distortion == pytest.approx(0.7)

    def test_report_matches_brute_force(self, rng):
        X = interval_net(3, 1.0)
        Y = interval_net(3, 1.4)
        SX, SY = simplex_net(X, 2), simplex_net(Y, 2)
        f = tuple(rng.integers(0, 3, size=3))
        rep = epsilon_isometry_check(f, SX, SY)
        # brute force: recompute both distortions directly
        bd = max(abs(Y.dist[f[i], f[j]] - X.dist[i, j]) for i in range(3) for j in range(3))
        assert rep.boundary_distortion == pytest.approx(bd)
        worst = 0.0
        for a, b in itertools.combinations(net_measures(SX), 2):
            wa = np.zeros(3)
            np.add.at(wa, np.asarray(f), a.weights)
            wb = np.zeros(3)
            np.add.at(wb, np.asarray(f), b.weights)
            pa, pb = Measure(Y, wa), Measure(Y, wb)
            worst = max(worst, abs(wasserstein1(pa, pb)[0] - wasserstein1(a, b)[0]))
        assert rep.distortion == pytest.approx(worst, abs=1e-9)


# a negative index, an index past the end, a float index, and maps one point
# short and one point long, all from a 3-point boundary into a 3-point one
_BAD_MAPS = [(0, 1, -1), (0, 1, 3), (0, 1, 2.9), (0, 1), (0, 1, 2, 0)]


class TestMapsFromOutside:
    """A boundary map handed in is checked once: one integer index per source
    point, each in range. Before, a negative index wrapped to the last point
    and a float index was truncated."""

    @pytest.fixture(scope="class")
    def nets(self):
        return simplex_net(interval_net(3, 1.0), 2), simplex_net(interval_net(3, 1.2), 2)

    @pytest.mark.parametrize("f", _BAD_MAPS)
    def test_epsilon_isometry_check(self, nets, f):
        with pytest.raises(DomainError, match="integer index in"):
            epsilon_isometry_check(f, *nets)

    @pytest.mark.parametrize("f", _BAD_MAPS)
    def test_fixed_pair(self, nets, f):
        for pair in ((f, (0, 1, 2)), ((0, 1, 2), f)):
            with pytest.raises(DomainError, match="integer index in"):
                intertwining_gap(*nets, fixed_pair=pair)

    @pytest.mark.parametrize("pair", [((0, 1, 2),), ((0, 1, 2), (0, 1, 2), (0, 1, 2)), (), 5])
    def test_fixed_pair_not_a_pair(self, nets, pair):
        with pytest.raises(DomainError, match="fixed_pair"):
            intertwining_gap(*nets, fixed_pair=pair)

    @pytest.mark.parametrize("f", _BAD_MAPS)
    def test_dq_upper(self, nets, f):
        with pytest.raises(DomainError, match="integer index in"):
            dq_upper(*nets, f)


def _brute_boundary_distortion(f, X, Y):
    return max(abs(Y.dist[f[i], f[j]] - X.dist[i, j])
               for i in range(X.size) for j in range(X.size))


class TestSearchReportBoundaryDistortion:
    @pytest.mark.parametrize("spaces", [
        (interval_net(3, 1.0), interval_net(3, 1.4)),
        (circle_net(4, 2.0), interval_net(3, 1.0)),
        (interval_net(2, 0.7), circle_net(3, 3.0))])
    def test_matches_brute_force(self, spaces):
        X, Y = spaces
        SX, SY = simplex_net(X, 2), simplex_net(Y, 2)
        fuk = fukaya_distance(SX, SY)
        f = fuk.report.forward
        assert fuk.report.boundary_distortion == _brute_boundary_distortion(f, X, Y)
        # the Fukaya report is the report of its witness
        check = epsilon_isometry_check(f, SX, SY)
        for field in ("distortion", "density_defect", "boundary_distortion"):
            assert getattr(fuk.report, field) == getattr(check, field)
        gap = intertwining_gap(SX, SY)
        f, g = gap.report.forward, gap.report.backward
        assert gap.report.boundary_distortion == max(_brute_boundary_distortion(f, X, Y),
                                                     _brute_boundary_distortion(g, Y, X))

    def test_three_to_wider_three(self):
        SX, SY = simplex_net(interval_net(3, 1.0), 2), simplex_net(interval_net(3, 1.4), 2)
        fuk = fukaya_distance(SX, SY)
        assert fuk.report.forward == (0, 1, 2)
        assert fuk.report.boundary_distortion == pytest.approx(0.4)


class TestQuasimetricSandwich:
    def test_sampled_triples(self, rng):
        # small version of the acceptance run: exhaustive searches only
        spaces = [interval_net(3, 1.0), interval_net(3, 1.5), circle_net(3, 3.0),
                  validate_metric([[0, 0.5, 1.0], [0.5, 0, 0.6], [1.0, 0.6, 0]])]
        nets = [simplex_net(X, 2) for X in spaces]
        for (a, b, c) in itertools.combinations(range(len(nets)), 3):
            gab = intertwining_gap(nets[a], nets[b])
            gbc = intertwining_gap(nets[b], nets[c])
            gac = intertwining_gap(nets[a], nets[c])
            slack = 2 * max(n.density for n in (nets[a], nets[b], nets[c]))
            assert gac.value <= 2 * (gab.value + gbc.value) + slack + 1e-9
            fac = fukaya_distance(nets[a], nets[c])
            assert fac.value <= gac.value + 1e-9
            dq = dq_upper(nets[a], nets[c], gac.report.forward)
            assert gac.value <= 2 * dq + 2 * max(nets[a].density, nets[c].density) + 1e-9
