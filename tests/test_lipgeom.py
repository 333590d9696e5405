import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from metriclab import (DomainError, MatrixObservable, Measure, MetricField, Nucleus,
                       Observable, WaveProfile, circle_net, circle_wave_metric,
                       interval_net, lipschitz_envelope,
                       lipschitz_seminorm, matrix_nucleus_membership,
                       matrix_trace_observable, mcshane_project, nucleus_decompose,
                       nucleus_field, nucleus_net, point_mass, prob_net, state_metric,
                       validate_metric, wasserstein1, wasserstein1_dual,
                       wave_metric_field)
from metriclab.fields import retract_between_fibres
from metriclab.lipgeom import (_DENSITY_CELLS, _NUCLEUS_SIZE_CAP, _directed_sup_hausdorff,
                               _enumerate_grid_members, _grid_member_floor, _lipschitz_excess,
                               _uniform_rows, _unique_ranked_rows, operator_norm)
from metriclab.rng import SplitMix64
from metriclab.spaces import check_metric, space_from_json

from oracles import (density_per_probe, grid_dead_prefixes, grid_members_dfs,
                     lipnorm_from_state_metric, lipschitz_excess_full, mcshane_project_rows,
                     mcshane_project_scalar, net_measures, sup_hausdorff_chunked,
                     unique_rows_lexsort, unique_rows_np)


def random_hermitian_field(rng, X, n):
    a = rng.normal(size=(X.size, n, n)) + 1j * rng.normal(size=(X.size, n, n))
    return MatrixObservable(X, n, (a + a.conj().transpose(0, 2, 1)) / 2)


class TestSeminorm:
    def test_constant(self):
        X = interval_net(4, 1.0)
        assert lipschitz_seminorm(Observable(X, np.ones(4))) == 0.0

    def test_identity_on_interval(self):
        X = interval_net(3, 2.0)
        f = Observable(X, np.asarray(X.meta["coords"]))
        assert lipschitz_seminorm(f) == pytest.approx(1.0)

    def test_square_frozen(self):
        # oracle: exhaustive pair maximum on {0, pi/2, pi}
        xs = np.array([0.0, math.pi / 2, math.pi])
        ratios = [abs(xs[i] ** 2 - xs[j] ** 2) / abs(xs[i] - xs[j])
                  for i in range(3) for j in range(3) if i != j]
        assert max(ratios) == pytest.approx(3 * math.pi / 2)
        X = interval_net(3, math.pi)
        assert lipschitz_seminorm(Observable(X, xs ** 2)) == pytest.approx(3 * math.pi / 2)

    def test_singleton_flagged(self):
        X = validate_metric([[0.0]])
        with pytest.warns(UserWarning):
            assert lipschitz_seminorm(Observable(X, [2.0])) == 0.0


class TestStateMetric:
    def test_single_constant_generator(self):
        X = interval_net(3, 1.0)
        states = [point_mass(X, i) for i in range(3)]
        M = state_metric(states, np.ones((1, 3)))
        assert np.allclose(M, 0.0)

    def test_two_point_masses_single_generator(self):
        X = interval_net(3, 2.0)
        f = Observable(X, [0.0, 0.5, 2.0])
        L = lipschitz_seminorm(f)
        M = state_metric([point_mass(X, 0), point_mass(X, 2)], (f.values / L)[None])
        assert M[0, 1] == pytest.approx(abs(f.values[0] - f.values[2]) / L)

    def test_nucleus_recovers_w1_on_point_masses(self):
        X = interval_net(4, 2.0)
        nuc = nucleus_net(X, X.radius, 0.25)
        states = [point_mass(X, i) for i in range(4)]
        M = state_metric(states, nuc.values)
        for i in range(4):
            for j in range(4):
                w, _ = wasserstein1_dual(states[i], states[j])
                assert abs(M[i, j] - w) <= nuc.density + 1e-9

    @pytest.mark.parametrize("values, match", [
        (np.ones(3), "array"),
        (np.ones((1, 1, 3)), "array"),
        (np.ones((2, 4)), "array"),
        (np.ones((0, 3)), "at least one"),
        (np.array([[0.0, np.nan, 1.0]]), "finite"),
        (np.array([[0.0, np.inf, 1.0]]), "finite"),
    ])
    def test_rejects_malformed_values(self, values, match):
        X = interval_net(3, 1.0)
        with pytest.raises(DomainError, match=match):
            state_metric([point_mass(X, 0), point_mass(X, 2)], values)

    # sha256 prefixes of M.tobytes() for the criterion-3 nuclei, recorded
    # from state_metric's earlier (Observable, seminorm) interface
    CRITERION_3 = [
        ((6, 0.2), "0f21bb962bc3b4aa"), ((6, 0.1), "f44ea2480794b527"),
        ((6, 0.05), "f44ea2480794b527"), ((8, 0.2), "43f5aa2a14f94e66"),
        ((8, 0.1), "43f5aa2a14f94e66"), ((8, 0.05), "43f5aa2a14f94e66"),
    ]

    def test_memory_is_not_cubic(self):
        X = interval_net(4, 1.0)
        nuc = nucleus_net(X, X.radius, 0.25)
        w = np.random.default_rng(64).uniform(0.1, 1.0, size=(64, 4))
        states = [Measure(X, row / row.sum()) for row in w]
        tracemalloc.start()
        try:
            M = state_metric(states, nuc.values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.shape == (64, 64)
        # E is (64, 1787): 0.9 MiB; the (S, S, F) differences alone take 58 MiB
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("case, digest", CRITERION_3)
    def test_criterion_3_matrices_pinned(self, case, digest):
        n, eps = case
        X = interval_net(6, math.pi) if n == 6 else circle_net(8, 2 * math.pi)
        nuc = nucleus_net(X, X.radius, eps, sample_budget=256, probe_count=32)
        M = state_metric([point_mass(X, i) for i in range(X.size)], nuc.values)
        assert hashlib.sha256(M.tobytes()).hexdigest()[:16] == digest

    def test_lipnorm_from_state_metric(self):
        X = interval_net(4, 3.0)
        states = [point_mass(X, i) for i in range(4)]
        M = state_metric(states, nucleus_net(X, X.radius, 0.3).values)
        assert lipnorm_from_state_metric(np.ones(4), M) == 0.0
        # a 1-Lipschitz potential evaluated against the W1 metric stays below 1
        _, pot = wasserstein1_dual(states[0], states[3])
        vals = [pot.pairing(s, states[0]) for s in states]
        W = np.array([[wasserstein1(a, b)[0] for b in states] for a in states])
        assert lipnorm_from_state_metric(vals, W) <= 1.0 + 1e-9
        with pytest.raises(ValueError):
            lipnorm_from_state_metric([1.0, 2.0], np.zeros((2, 2)))


class TestNucleus:
    def test_singleton_space_grid(self):
        X = validate_metric([[0.0]])
        nuc = nucleus_net(X, 1.0, 0.5)
        assert nuc.complete
        assert np.abs(nuc.values).max() <= 1.0

    def test_membership_exact(self):
        X = circle_net(5, 4.0)
        nuc = nucleus_net(X, X.radius, 0.5)
        vals = nuc.values
        assert np.abs(vals).max() <= nuc.r + 1e-9
        diffs = np.abs(vals[:, :, None] - vals[:, None, :]) - X.dist[None, :, :]
        assert diffs.max() <= 1e-9

    def test_two_point_polytope_coverage(self):
        # oracle: dense sampling of the 2-D polytope {|f1|,|f2| <= r, |f1-f2| <= d}
        X = validate_metric([[0, 1.0], [1.0, 0]])
        r, eps = 0.8, 0.25
        nuc = nucleus_net(X, r, eps)
        assert nuc.complete
        grid = np.linspace(-r, r, 41)
        for f1 in grid:
            for f2 in grid:
                if abs(f1 - f2) <= 1.0:
                    gap = np.abs(nuc.values - np.array([f1, f2])).max(axis=1).min()
                    assert gap <= eps + 1e-12

    def test_density_from_random_members(self):
        X = interval_net(3, 1.5)
        r, eps = X.radius, 0.3
        nuc = nucleus_net(X, r, eps)
        assert nuc.complete
        gen = SplitMix64(99)
        for _ in range(200):
            g = np.array([gen.uniform() * 2 * r - r for _ in range(3)])
            member = np.clip(mcshane_project(X, g), -r, r)
            assert np.abs(nuc.values - member).max(axis=1).min() <= eps + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_unique_rows_match_numpy_unique(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        # few distinct values, so rows repeat and ties run deep into the columns
        x = rng.choice([-1.0, -0.5, 0.25, 0.5, 1.0], size=(int(rng.integers(50, 400)), n))
        x = np.vstack([x, x[rng.integers(0, len(x), 40)] + 1e-14])   # planted near-duplicates
        x = x[rng.permutation(len(x))]
        x[:, 0] = 0.0
        x[:, 1] = -0.0
        if n > 2:
            x[:, 2] = -1e-14 * rng.random(len(x))    # rounds to -0.0
        got, want = _unique_ranked_rows(x), unique_rows_np(x)
        assert got.shape == want.shape and len(got) < len(x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_unique_rows_keep_the_first_signed_zero(self):
        x = np.array([[1.0, 0.0], [0.5, 2.0], [1.0, -0.0], [0.5, 2.0]])
        assert _unique_ranked_rows(x).tolist() == [[0.5, 2.0], [1.0, 0.0]]
        assert not np.signbit(_unique_ranked_rows(x)[1, 1])
        assert np.signbit(_unique_ranked_rows(x[::-1])[1, 1])
        assert _unique_ranked_rows(np.empty((0, 3))).shape == (0, 3)

    @staticmethod
    def assert_same_bits(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))   # signbits too

    @pytest.mark.parametrize("X, eps, rows, kept", [
        (interval_net(5, 2.0), 0.35, 44_743, 20_181), (circle_net(5, 3.0), 0.25, 73_361, 46_761)])
    def test_ranked_rows_match_float_lexsort_on_complete_nets(self, X, eps, rows, kept):
        r = X.radius
        grid = np.linspace(-r, r, math.ceil(4.0 * r / eps) + 1)
        members = _enumerate_grid_members(X.dist, grid, grid[1] - grid[0], _NUCLEUS_SIZE_CAP)
        proj = np.clip(mcshane_project(X, members), -r, r)
        want = unique_rows_lexsort(proj)
        assert (len(proj), len(want)) == (rows, kept)     # projection duplicates
        self.assert_same_bits(_unique_ranked_rows(proj), want)
        nuc = nucleus_net(X, r, eps)
        assert nuc.complete
        self.assert_same_bits(nuc.values, want)

    @pytest.mark.parametrize("seed", range(6))
    def test_ranked_rows_match_float_lexsort(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(2, 7))
        x = rng.choice([-1.0, -0.5, 0.25, 0.5, 1.0], size=(int(rng.integers(50, 400)), n))
        x = np.vstack([x, x[rng.integers(0, len(x), 40)] + 1e-14])   # planted near-duplicates
        x = x[rng.permutation(len(x))]
        x[:, 0] = rng.choice([0.0, -0.0], size=len(x))
        x[:, 1] = -1e-14 * rng.random(len(x))    # rounds to -0.0
        got = _unique_ranked_rows(x)
        assert len(got) < len(x)
        self.assert_same_bits(got, unique_rows_lexsort(x))

    def test_ranked_rows_key_a_wide_column_in_16_bits(self, monkeypatch):
        rng = np.random.default_rng(31)
        x = np.round(rng.uniform(-1.0, 1.0, size=(3000, 3)), 3)
        x[:, 1] = rng.choice([-0.5, 0.0, 0.5], size=len(x))
        x = np.vstack([x, x[:500]])
        dtypes = []
        lexsort = np.lexsort

        def spy(keys):
            dtypes.extend(k.dtype for k in keys)
            return lexsort(keys)
        monkeypatch.setattr(np, "lexsort", spy)
        got = _unique_ranked_rows(x)
        monkeypatch.undo()
        assert len(np.unique(x[:, 0])) > 256 and len(np.unique(x[:, 2])) > 256
        assert dtypes == [np.uint16, np.uint8, np.uint16]      # reversed: last column first
        self.assert_same_bits(got, unique_rows_lexsort(x))

    def test_ranked_rows_keep_the_first_signed_zero(self):
        x = np.array([[1.0, 0.0], [0.5, -0.0], [1.0, -0.0], [0.5, 0.0], [-0.0, 2.0], [0.0, 2.0]])
        for rows in (x, x[::-1]):
            got = _unique_ranked_rows(rows)
            assert got.tolist() == [[0.0, 2.0], [0.5, 0.0], [1.0, 0.0]]
            self.assert_same_bits(got, unique_rows_lexsort(rows))
        assert np.signbit(_unique_ranked_rows(x)).ravel().tolist() == [
            True, False, False, True, False, False]
        assert np.signbit(_unique_ranked_rows(x[::-1])).ravel().tolist() == [
            False, False, False, False, False, True]

    def test_mcshane_rows_match_single_projections(self):
        X = circle_net(5, 4.0)
        rows = np.random.default_rng(3).uniform(-2.0, 2.0, size=(7, 5))
        proj = mcshane_project(X, rows)
        assert np.array_equal(proj, [mcshane_project(X, row) for row in rows])
        assert (proj >= rows).all()
        assert (np.abs(proj[:, :, None] - proj[:, None, :]) - X.dist).max() <= 1e-12

    def test_non_lipschitz_member_rejected(self):
        X = interval_net(3, 1.0)
        vals = np.array([[0.0, 0.0, 0.0], [0.0, 0.1, 0.7]])   # |0.1 - 0.7| > d = 0.5
        with pytest.raises(DomainError, match="1-Lipschitz"):
            Nucleus(X, 1.0, vals, density=0.1, complete=False, target_eps=0.1)

    def test_fallback_reports_measured_density(self):
        X = circle_net(8, 2 * math.pi)
        nuc = nucleus_net(X, X.radius, 0.05, sample_budget=128, probe_count=32)
        assert not nuc.complete
        assert nuc.density > 0

    def test_r_below_radius_rejected(self):
        X = interval_net(3, 2.0)
        with pytest.raises(DomainError):
            nucleus_net(X, 0.5 * X.radius, 0.2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_enumeration_matches_dfs_oracle(self, n):
        pts = np.random.default_rng(n).uniform(0.0, 2.0, size=(n, 2))
        planar = validate_metric(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2)))
        for X in (circle_net(n, 2.0), interval_net(n, 2.0), planar):
            grid = np.linspace(-X.radius, X.radius, 5)
            h = grid[1] - grid[0]
            full = grid_members_dfs(X.dist, grid, h, 200_000)
            for cap in (len(full) - 1, len(full), 200_000):
                want = grid_members_dfs(X.dist, grid, h, cap) if cap < len(full) else full
                got = _enumerate_grid_members(X.dist, grid, h, cap)
                if want is None:
                    assert got is None
                else:
                    assert got is not None and np.array_equal(got, want)

    def test_noisy_line_prefixes_all_extend(self):
        # 3-5 points on a 1/4 grid of a line with symmetric noise up to 9e-10:
        # validate_metric accepts triangle defects that large, and at a 1e-12
        # test tolerance some admissible prefix has no extension, so a prefix
        # count can exceed the final count and the early stop refuse a net
        # that the cap admits
        rng = np.random.default_rng(35)
        grid = np.arange(-4, 5) / 4
        dead_at_1e12 = 0
        for _ in range(150):
            n = int(rng.integers(3, 6))
            xs = rng.choice(9, size=n, replace=False) / 4
            noise = np.triu(rng.uniform(-9e-10, 9e-10, size=(n, n)), 1)
            D = np.abs(xs[:, None] - xs[None, :]) + noise + noise.T
            if check_metric(D):
                continue
            X = validate_metric(D)
            D = X.dist.tolist()
            defect = max(0.0, max(D[a][c] - D[b][a] - D[b][c]
                                  for a in range(n) for b in range(n) for c in range(n)))
            dead_at_1e12 += grid_dead_prefixes(D, grid, 0.25) > 0
            assert grid_dead_prefixes(D, grid, 0.25, 1e-12 + defect) == 0
            full = grid_members_dfs(D, grid, 0.25, 200_000, 1e-12 + defect)
            got = _enumerate_grid_members(X.dist, grid, 0.25, len(full))
            assert got is not None and np.array_equal(got, full)
        assert dead_at_1e12 > 0

    def test_fallback_decided_without_enumerating(self):
        # 8-point circle at eps 0.15 is over the 200k cap, and its member
        # floor (k = 11, 7.1e9 rows) says so before any grid row is built.
        # What remains is the fallback family and its density pass, two
        # (members, block) arrays of _DENSITY_CELLS cells (2 MiB); building
        # the prefixes up to the first count over the cap peaks at 3.4 MiB
        X = circle_net(8, 2 * math.pi)
        grid = np.linspace(-math.pi / 2, math.pi / 2, math.ceil(4 * (math.pi / 2) / 0.15) + 1)
        assert _grid_member_floor(X.dist, grid, grid[1] - grid[0]) > _NUCLEUS_SIZE_CAP
        tracemalloc.start()
        try:
            nuc = nucleus_net(X, math.pi / 2, 0.15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not nuc.complete
        assert peak < 3 * 2 ** 20

    @pytest.mark.parametrize("n", range(2, 9))
    def test_member_floor_never_exceeds_the_count(self, n):
        # the floor decides a fallback only where the enumeration has more
        # than cap members; the oracle runs at the enumerator's tolerance, on
        # spaces scaled by 2**-20, 1 and 2**20, with n + levels <= 12 so
        # that its counts stay below 14 000
        pts = np.random.default_rng(n).uniform(0.0, 2.0, size=(n, 2))
        planar = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
        decided = 0
        for scale in (2.0 ** -20, 1.0, 2.0 ** 20):
            for X in (circle_net(n, 2.0 * scale), interval_net(n, 2.0 * scale),
                      validate_metric(scale * planar)):
                D = X.dist.tolist()
                defect = max(0.0, max(D[a][c] - D[b][a] - D[b][c]
                                      for a in range(n) for b in range(n) for c in range(n)))
                for levels in range(3, min(10, 13 - n)):
                    grid = np.linspace(-X.radius, X.radius, levels)
                    h = grid[1] - grid[0]
                    full = grid_members_dfs(D, grid, h, 200_000, 1e-12 + defect)
                    floor = _grid_member_floor(X.dist, grid, h)
                    assert 1 <= floor <= len(full)
                    for cap in (len(full) // 2, len(full) - 1, len(full)):
                        decided += floor > cap
                        got = _enumerate_grid_members(X.dist, grid, h, cap)
                        if len(full) > cap:
                            assert got is None
                        else:
                            assert got is not None and np.array_equal(got, full)
        assert decided > 0

    @pytest.mark.parametrize("shape", [(3, 4), (6,), (0, 6), (2, 5), (1, 2, 6)])
    def test_values_need_members_by_points(self, shape):
        X = circle_net(6, 2.0)
        with pytest.raises(DomainError, match="at least one member"):
            Nucleus(X, X.radius, np.zeros(shape), 0.1, False, 0.1)
        assert len(Nucleus(X, X.radius, np.zeros((1, 6)), 0.1, False, 0.1)) == 1

    @pytest.mark.parametrize("key, value", [
        ("probe_count", 0), ("probe_count", -1), ("probe_count", 1.5),
        ("sample_budget", 0), ("sample_budget", -3), ("sample_budget", 2.5),
        ("sample_budget", "8"), ("probe_count", True)])
    @pytest.mark.parametrize("eps", [0.4, 0.05])      # complete, fallback
    def test_counts_must_be_positive_integers(self, key, value, eps):
        X = interval_net(5, 1.0)
        with pytest.raises(DomainError, match=key):
            nucleus_net(X, X.radius, eps, **{key: value})

    def test_integral_float_counts_pass(self):
        X = interval_net(5, 1.0)
        a = nucleus_net(X, X.radius, 0.05, sample_budget=16.0, probe_count=8.0)
        b = nucleus_net(X, X.radius, 0.05, sample_budget=16, probe_count=8)
        assert not a.complete and np.array_equal(a.values, b.values) and a.density == b.density

    def test_nan_member_rejected(self):
        X = interval_net(3, 1.0)
        with pytest.raises(DomainError, match="not a number"):
            Nucleus(X, 1.0, np.array([[np.nan, 0.0, 0.0]]), 0.1, False, 0.1)
        with pytest.raises(DomainError, match="not a number"):
            Nucleus(X, 1.0, np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]]), 0.1, False, 0.1)

    @pytest.mark.parametrize("r, eps", [(np.nan, 0.1), (1.0, np.nan), (np.inf, 0.1)])
    def test_nan_level_rejected(self, r, eps):
        with pytest.raises(DomainError):
            nucleus_net(interval_net(3, 1.0), r, eps)


SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"


def scenario_net(name, probe_count=128):
    """(space, nucleus, probes) of a shipped scenario's nucleus_net call; the
    probes are drawn and projected as nucleus_net draws them."""
    doc = json.loads((SCENARIOS / name).read_text())
    p = doc["params"]
    X = space_from_json(p["space"])
    nuc = nucleus_net(X, X.radius, p["nucleus_eps"], seed=doc["seed"],
                      sample_budget=p.get("nucleus_samples", 1024), probe_count=probe_count)
    return nuc, fallback_probes(nuc, probe_count, doc["seed"])


def fallback_probes(nuc, probe_count, seed):
    X, r = nuc.space, nuc.r
    raw = _uniform_rows(SplitMix64(seed ^ 0x5EED), probe_count, X.size, r)
    return np.clip(mcshane_project(X, raw), -r, r)


class TestFallbackDensity:
    """The one-pass density equals the earlier per-probe loop with ==."""

    @pytest.mark.parametrize("cells", [1, 100, None])
    @pytest.mark.parametrize("name", ["ldp.json", "birkhoff.json"])
    @pytest.mark.parametrize("probe_count", [0, 1, 128])
    def test_shipped_nets(self, name, probe_count, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr("metriclab.lipgeom._DENSITY_CELLS", cells)
        if probe_count == 0:
            # no probes would measure density 0.0, which reads as exact
            with pytest.raises(DomainError, match="probe_count"):
                scenario_net(name, probe_count)
            return
        nuc, probes = scenario_net(name, probe_count)
        assert not nuc.complete
        assert nuc.density == density_per_probe(nuc.values, probes)

    def test_birkhoff_net_spans_two_probe_blocks(self):
        nuc, probes = scenario_net("birkhoff.json")
        assert len(nuc) * len(probes) > _DENSITY_CELLS
        assert nuc.density == density_per_probe(nuc.values, probes)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_planar_nets(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(6, 9))
        pts = rng.uniform(0.0, 2.0, size=(n, 2))
        X = validate_metric(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)))
        probe_count = int(rng.integers(1, 40))
        nuc = nucleus_net(X, X.radius, 0.2, sample_budget=64, probe_count=probe_count,
                          seed=seed)
        assert not nuc.complete
        assert nuc.density == density_per_probe(nuc.values,
                                                fallback_probes(nuc, probe_count, seed))


def wave_field_fibre_net():
    """The first fibre's nucleus of wave_field.json, built as its Birkhoff
    rates build it."""
    doc = json.loads((SCENARIOS / "wave_field.json").read_text())
    p = doc["params"]
    fld = circle_wave_metric(wave_metric_field(WaveProfile.triangular_pluck(p["amplitude"]),
                                               p["t_grid"], p["n_points"]))
    r = max(0.5 * F.max() for F in fld.fibres)
    return nucleus_net(fld.fibre_space(0), r, p["birkhoff_eps"], sample_budget=128,
                       probe_count=16, seed=doc["seed"])


@pytest.mark.parametrize("build, shape", [
    (lambda: scenario_net("ldp.json")[0], (101, 16)),
    (lambda: scenario_net("birkhoff.json")[0], (1062, 8)),
    (wave_field_fibre_net, (156, 8))], ids=["ldp", "birkhoff", "wave_field fibre 0"])
def test_fallback_dedupe_matches_float_lexsort(build, shape, monkeypatch):
    """The shipped fallback families go through the rank-key dedupe and keep
    the rows, order and signed zeros of the float lexsort."""
    seen = []
    dedupe = _unique_ranked_rows

    def spy(x):
        seen.append(x.copy())
        return dedupe(x)
    monkeypatch.setattr("metriclab.lipgeom._unique_ranked_rows", spy)
    nuc = build()
    assert not nuc.complete and [x.shape for x in seen] == [shape]
    want = unique_rows_lexsort(seen[0])
    assert nuc.values.shape == want.shape
    assert np.array_equal(nuc.values.view(np.uint64), want.view(np.uint64))   # signbits too


class TestDirectedSupHausdorff:
    """One kernel serves the fallback density and nucleus_field's Hausdorff
    distance; both directions of it equal the earlier chunked pass with ==."""

    @staticmethod
    def both_ways(A, B):
        return max(_directed_sup_hausdorff(A, B), _directed_sup_hausdorff(B, A))

    @pytest.mark.parametrize("cells", [1, 7, None])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_row_sets(self, seed, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr("metriclab.lipgeom._DENSITY_CELLS", cells)
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(1, 7))
        A = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 40)), n))
        B = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 40)), n))
        B[:len(A) // 2] = A[:len(B)][:len(A) // 2]      # some shared rows
        assert self.both_ways(A, B) == sup_hausdorff_chunked(A, B)
        assert _directed_sup_hausdorff(A[:0], B) == 0.0

    def test_criterion_11_nuclei(self):
        X = interval_net(3, 2.0)
        thetas = (0.0, 0.25, 0.5)
        fld = MetricField(X.labels, thetas, tuple((1.0 + t) * X.dist for t in thetas),
                          meta={"generator": "scaled"})
        rep = nucleus_field(fld, 1.5 * X.radius, 0.4, sample_budget=256, probe_count=32)
        for i, (a, b) in enumerate(zip(rep.nuclei, rep.nuclei[1:])):
            want = sup_hausdorff_chunked(a.values, b.values)
            assert self.both_ways(a.values, b.values) == want == rep.hausdorff[i]


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.fixture(scope="module")
def kernel_inputs():
    """(space, values) pairs: 1-D and 2-D input, a 1-point space, metrics
    that validate_metric accepts with a tiny diagonal or a tiny asymmetry
    (the largest excess sits on the asymmetric pair), and the retracted rows
    that nucleus_field checks."""
    rng = np.random.default_rng(8)
    X = circle_net(5, 4.0)
    rows = rng.uniform(-2.0, 2.0, size=(7, 5))
    diagonal = validate_metric(interval_net(4, 3.0).dist + np.diag([0.0, 4e-10, 0.0, -3e-10]))
    D = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]])
    D[0, 2] += 5e-10
    asymmetric = validate_metric(D)
    single = validate_metric(np.zeros((1, 1)))
    cases = [(X, rows[0]), (X, rows), (single, np.array([0.25])), (single, rows[:, :1]),
             (diagonal, rng.uniform(-1.0, 1.0, size=(20, 4))),
             (asymmetric, np.array([[0.8, 0.0, -0.8], [-0.8, 0.0, 0.8]]))]
    base = interval_net(3, 2.0)
    fld = MetricField(base.labels, (0.0, 0.5), (base.dist, 1.5 * base.dist))
    env = lipschitz_envelope(fld)
    rep = nucleus_field(fld, 1.5 * base.radius, 0.5)
    for src, dst, Kc in ((rep.nuclei[0], fld.fibre_space(1), env.K[1, 0]),
                         (rep.nuclei[1], fld.fibre_space(0), env.K[0, 1])):
        cases.append((dst, retract_between_fibres(src.values, Kc, src.r)))
    return cases


class TestLipschitzKernels:
    """The column-major kernels against the row-major ones they replaced, bit
    for bit: values ==, and every zero with the same sign."""

    @pytest.mark.parametrize("case", range(8))
    def test_projection_matches_row_kernel(self, kernel_inputs, case):
        X, values = kernel_inputs[case]
        assert_same_bits(mcshane_project(X, values), mcshane_project_rows(X.dist, values))

    @pytest.mark.parametrize("case", range(8))
    def test_excess_matches_full_pair_array(self, kernel_inputs, case):
        X, values = kernel_inputs[case]
        got = _lipschitz_excess(values, X.dist)
        assert_same_bits(got, lipschitz_excess_full(values, X.dist))

    def test_negative_zero_tie_follows_np_maximum(self):
        # out(x_i) = max_j (v_j - d_ij): v_i - d_ii = -0.0 - 0.0 = -0.0 ties
        # v_j - d_ij = +0.0, and the zero kept is the one np.maximum keeps
        # when the later j is its second operand. numpy's own reduction over
        # 3 or more values may keep either zero of a tie, depending on its
        # SIMD width, so the row kernel is compared with signs on 2 points only
        later = bool(np.signbit(np.maximum(np.float64(0.0), np.float64(-0.0))))
        X = interval_net(2, 1.0)
        d = X.dist[0, 1]
        values = np.array([[d, -0.0], [-0.0, d]])
        got = mcshane_project(X, values)
        assert_same_bits(got, mcshane_project_rows(X.dist, values))
        assert got.tolist() == [[d, 0.0], [0.0, d]]
        assert np.signbit(got).tolist() == [[False, later], [False, False]]
        rng = np.random.default_rng(4)
        X = circle_net(8, 4.0)
        values = rng.choice([-0.0, 0.0, -0.5, 0.5], size=(200, 8))
        got = mcshane_project(X, values)
        assert np.array_equal(got, mcshane_project_rows(X.dist, values))
        assert_same_bits(got, [mcshane_project_scalar(X.dist, row) for row in values])
        assert (got == 0).any()
        assert_same_bits(_lipschitz_excess(values, X.dist),
                         lipschitz_excess_full(values, X.dist))


class TestExtension:
    def test_point_mass_and_uniform(self):
        X = interval_net(3, 2.0)
        f = Observable(X, [1.0, 5.0, 2.0])
        assert point_mass(X, 1).integrate(f.values) == pytest.approx(5.0)
        u = Measure(X, [0.5, 0.0, 0.5])
        assert u.integrate(f.values) == pytest.approx(1.5)

    def test_extension_is_isometric_for_seminorms(self):
        X = interval_net(3, 2.0)
        f = Observable(X, [0.3, -0.1, 0.9])
        net = net_measures(prob_net(X, 3))
        vals = np.array([mu.integrate(f.values) for mu in net])
        assert np.abs(vals).max() <= f.sup_norm + 1e-12
        W = np.array([[wasserstein1(a, b)[0] for b in net] for a in net])
        L_ext = lipnorm_from_state_metric(vals, W)
        assert L_ext == pytest.approx(lipschitz_seminorm(f), abs=1e-7)


class TestMatrixModel:
    def test_trace_examples(self):
        X = interval_net(3, 1.0)
        phi = np.array([0.2, 0.5, 0.1])
        eye = np.eye(2, dtype=complex)
        F = MatrixObservable(X, 2, phi[:, None, None] * eye[None])
        assert np.allclose(matrix_trace_observable(F).values, phi)
        traceless = np.array([[[1, 0], [0, -1]]] * 3, dtype=complex)
        assert np.allclose(matrix_trace_observable(MatrixObservable(X, 2, traceless)).values, 0)

    def test_weyl_trace_inequality(self, rng):
        X = interval_net(4, 2.0)
        for _ in range(25):
            F = random_hermitian_field(rng, X, 3)
            tr = matrix_trace_observable(F)
            for i in range(4):
                for j in range(i + 1, 4):
                    gap = abs(tr.values[i] - tr.values[j])
                    assert gap <= operator_norm(F.values[i] - F.values[j]) + 1e-9

    def test_membership(self):
        X = interval_net(3, 1.0)
        zero = MatrixObservable(X, 2, np.zeros((3, 2, 2), dtype=complex))
        assert matrix_nucleus_membership(zero, 0.5).ok
        phi = np.array([0.0, 0.25, 0.5])
        eye = np.eye(2, dtype=complex)
        F = MatrixObservable(X, 2, phi[:, None, None] * eye[None])
        assert matrix_nucleus_membership(F, 0.5).ok
        jump = np.array([[[0, 0], [0, 0]], [[3, 0], [0, 3]], [[0, 0], [0, 0]]],
                        dtype=complex)
        rep = matrix_nucleus_membership(MatrixObservable(X, 2, jump), 5.0)
        assert not rep.ok and rep.reason == "pair"
        assert operator_norm(jump[rep.witness[0]] - jump[rep.witness[1]]) == pytest.approx(rep.value)

    def test_decompose_scalar_field(self):
        X = interval_net(3, 2.0)
        phi = np.asarray(X.meta["coords"])  # 1-Lipschitz
        eye = np.eye(2, dtype=complex)
        F = MatrixObservable(X, 2, phi[:, None, None] * eye[None])
        dec = nucleus_decompose(F, X.radius)
        assert np.allclose(dec.H.values, 0)
        assert matrix_nucleus_membership(dec.G, X.radius).ok
        recon = dec.G.values + dec.c * eye[None] + dec.H.values
        assert np.abs(recon - F.values).max() <= 1e-12

    def test_decompose_traceless(self):
        X = interval_net(3, 1.0)
        H = np.array([[[0.1, 0], [0, -0.1]]] * 3, dtype=complex)
        F = MatrixObservable(X, 2, H)
        dec = nucleus_decompose(F, X.radius)
        assert np.allclose(dec.G.values, 0)
        assert dec.c == pytest.approx(0.0)
        assert np.allclose(dec.H.values, H)

    def test_decompose_random_fields(self, rng):
        for n in (2, 3):
            X = interval_net(4, 2.0)
            F = random_hermitian_field(rng, X, n)
            L = lipschitz_seminorm(matrix_trace_observable(F))
            F = MatrixObservable(X, n, F.values / L)
            dec = nucleus_decompose(F, X.radius)
            eye = np.eye(n, dtype=complex)
            recon = dec.G.values + dec.c * eye[None] + dec.H.values
            assert np.abs(recon - F.values).max() <= 1e-12
            assert matrix_nucleus_membership(dec.G, X.radius).ok
            tr_h = np.abs(np.trace(dec.H.values, axis1=1, axis2=2)) / n
            assert tr_h.max() <= 1e-9

    def test_precondition_enforced(self):
        X = interval_net(3, 1.0)
        eye = np.eye(2, dtype=complex)
        steep = np.array([0.0, 5.0, 0.0])
        F = MatrixObservable(X, 2, steep[:, None, None] * eye[None])
        with pytest.raises(DomainError):
            nucleus_decompose(F, X.radius)


class TestSerialization:
    def test_nucleus_csv(self, tmp_path):
        from metriclab.cli import _write_csv
        X = interval_net(3, 1.0)
        nuc = nucleus_net(X, X.radius, 0.4)
        path = tmp_path / "nucleus.csv"
        _write_csv(path, X.labels, nuc.values)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "0,1,2"
        assert len(lines) == len(nuc) + 1
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.allclose(rows, nuc.values, rtol=1e-11, atol=0.0)

    def test_measure_json_round_trip(self):
        X = interval_net(3, 1.0)
        mu = Measure(X, np.asarray(json.loads("[0.2, 0.3, 0.5]"), dtype=float))
        assert mu.weights.tolist() == [0.2, 0.3, 0.5]


class TestDualityRoundTrip:
    def test_recovery_improves_with_eps(self):
        X = interval_net(4, 2.0)
        states = [point_mass(X, i) for i in range(X.size)]
        errors = []
        for eps in (0.4, 0.2, 0.1):
            nuc = nucleus_net(X, X.radius, eps)
            M = state_metric(states, nuc.values)
            err = np.abs(M - X.dist).max()
            assert err <= eps * (1.0 + X.diameter / X.radius) + 1e-9
            errors.append(err)
        assert errors[0] >= errors[-1] - 1e-12
