import math

import numpy as np
import pytest

from metriclab import (DomainError, MetricField, WaveProfile, birkhoff_field,
                       circle_net, circle_wave_metric, field_continuity_check,
                       interval_net, invariant_measures, lipschitz_envelope,
                       nucleus_field, rotation, rotation_field, sine_pluck,
                       validate_metric, wave_metric_field, Measure, wasserstein1)
from metriclab.fields import adaptive_simpson, circle_w1_atoms, retract_between_fibres

from oracles import (barycentric_circle_kernel_loop, circle_w1_atoms_loop,
                     measure_mixtures_loop, riemann_arc_length, rotation_gamma_atoms,
                     w1_hausdorff_measures)


def scaled_field(base, thetas, scale):
    return MetricField(base.labels, tuple(thetas),
                       tuple(scale(t) * base.dist for t in thetas),
                       meta={"generator": "scaled"})


class TestQuadrature:
    def test_polynomial_exact(self):
        val, err = adaptive_simpson(lambda x: x ** 3 - x, 0.0, 2.0)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_oscillatory(self):
        val, _ = adaptive_simpson(math.sin, 0.0, math.pi)
        assert val == pytest.approx(2.0, abs=1e-9)


class TestWaveField:
    def test_flat_profile_euclidean(self):
        prof = WaveProfile((0.0,), 1.0, math.pi)
        fld = wave_metric_field(prof, [0.0, 0.7, 1.9], n_points=9)
        xs = np.asarray(fld.meta["coords"])
        target = np.abs(xs[:, None] - xs[None, :])
        for F in fld.fibres:
            assert np.abs(F - target).max() == 0.0

    def test_single_mode_zero_crossing(self):
        prof = WaveProfile((0.4,), 1.0, math.pi)
        fld = wave_metric_field(prof, [math.pi / 2], n_points=9)
        xs = np.asarray(fld.meta["coords"])
        assert np.abs(fld.fibres[0] - np.abs(xs[:, None] - xs[None, :])).max() <= 1e-8

    def test_arc_length_against_riemann_oracle(self):
        A = 0.5
        prof = WaveProfile((A,), 1.0, math.pi)
        fld = wave_metric_field(prof, [0.0], n_points=5)
        # full-span arc length at t = 0: integral of sqrt(1 + A^2 cos^2 x)
        expect = riemann_arc_length(lambda x: A * np.cos(x), 0.0, math.pi, n=200_000)
        assert fld.fibres[0][0, -1] == pytest.approx(expect, abs=1e-7)

    def test_periodicity(self):
        prof = WaveProfile.triangular_pluck(amplitude=0.2, n_modes=6)
        fld = wave_metric_field(prof, [0.3, 0.3 + prof.period], n_points=7)
        assert np.abs(fld.fibres[0] - fld.fibres[1]).max() <= 1e-8

    def test_fibres_validate(self):
        prof = WaveProfile.triangular_pluck()
        fld = wave_metric_field(prof, [0.0, 1.0], n_points=9)
        for k in range(len(fld)):
            fld.fibre_space(k)


class TestCircleWave:
    def test_flat_gives_circle_geodesic(self):
        prof = WaveProfile((0.0,), 1.0, math.pi)
        fld = circle_wave_metric(wave_metric_field(prof, [0.0], n_points=9))
        ref = circle_net(8, math.pi)
        assert np.abs(fld.fibres[0] - ref.dist).max() <= 1e-12

    def test_wrap_path_shorter_near_ends(self):
        prof = WaveProfile((0.3,), 1.0, math.pi)
        interval = wave_metric_field(prof, [0.2], n_points=9)
        circ = circle_wave_metric(interval)
        D, Q = interval.fibres[0], circ.fibres[0]
        # direct comparison of the two path lengths for near-opposite ends
        a, b = 1, 7
        wrap = min(D[a, 0] + D[8, b], D[b, 0] + D[8, a])
        assert Q[a, b] == pytest.approx(min(D[a, b], wrap))
        assert Q[a, b] < D[a, b]

    def test_diagonal_zero(self):
        prof = WaveProfile((0.2,), 1.0, math.pi)
        circ = circle_wave_metric(wave_metric_field(prof, [0.1], n_points=7))
        assert np.abs(np.diag(circ.fibres[0])).max() == 0.0


class TestEnvelope:
    def test_constant_field(self):
        X = interval_net(4, 2.0)
        fld = scaled_field(X, [0.0, 0.5, 1.0], lambda t: 1.0)
        env = lipschitz_envelope(fld)
        assert np.allclose(env.m, 1.0) and np.allclose(env.M, 1.0)
        assert np.allclose(env.k, 1.0) and np.allclose(env.K, 1.0)

    def test_scaled_field(self):
        X = interval_net(4, 2.0)
        c = lambda t: 1.0 + t
        fld = scaled_field(X, [0.0, 0.25, 0.5], c)
        env = lipschitz_envelope(fld)
        for i, t in enumerate(fld.thetas):
            assert env.m[i] == pytest.approx(c(t))
            assert env.M[i] == pytest.approx(c(t))

    def test_diagonal_exactly_one(self):
        prof = WaveProfile.triangular_pluck(amplitude=0.3)
        fld = wave_metric_field(prof, np.linspace(0, 2, 5), n_points=9)
        env = lipschitz_envelope(fld)
        assert np.array_equal(np.diag(env.k), np.ones(5))
        assert np.array_equal(np.diag(env.K), np.ones(5))

    def test_wave_sandwich_all_pairs(self):
        prof = WaveProfile.triangular_pluck(amplitude=0.4)
        fld = wave_metric_field(prof, np.linspace(0, 3, 6), n_points=9)
        env = lipschitz_envelope(fld)
        iu = np.triu_indices(9, k=1)
        for s in range(6):
            for t in range(6):
                lhs = env.k[s, t] * fld.fibres[s][iu]
                rhs = env.K[s, t] * fld.fibres[s][iu]
                assert (lhs <= fld.fibres[t][iu] + 1e-9).all()
                assert (fld.fibres[t][iu] <= rhs + 1e-9).all()

    def test_degenerate_rejected(self):
        X = interval_net(3, 1.0)
        with pytest.raises(DomainError):
            lipschitz_envelope(MetricField(X.labels, (0.0, 1.0), (X.dist, 0.0 * X.dist)))


class TestNucleusField:
    def test_constant_field_zero_hausdorff(self):
        X = interval_net(3, 2.0)
        fld = scaled_field(X, [0.0, 1.0], lambda t: 1.0)
        rep = nucleus_field(fld, X.radius, 0.4)
        assert rep.hausdorff.max() == 0.0
        assert rep.retraction_ok

    def test_scaled_field_bound_scaling(self):
        X = interval_net(3, 2.0)
        fld = scaled_field(X, [0.0, 0.25, 0.5], lambda t: 1.0 + t)
        r = (1.5 * X.dist).max() / 2
        rep = nucleus_field(fld, r, 0.4)
        assert rep.retraction_ok
        assert (rep.hausdorff <= rep.bound + 1e-9).all()
        # retraction displacement scales like |K - 1| * r
        K01 = 1.25 / 1.0
        assert rep.bound[0] >= r * (1 - 1 / K01) - 1e-12

    def test_retracted_members_pass_membership(self):
        X = interval_net(3, 2.0)
        fld = scaled_field(X, [0.0, 0.5], lambda t: 1.0 + t)
        rep = nucleus_field(fld, 1.5 * X.radius, 0.5)
        env = lipschitz_envelope(fld)
        src = rep.nuclei[0]
        moved = retract_between_fibres(src.values, env.K[1, 0], src.r)
        target = fld.fibre_space(1)
        diffs = np.abs(moved[:, :, None] - moved[:, None, :]) - target.dist[None, :, :]
        assert diffs.max() <= 1e-9
        assert np.abs(moved).max() <= src.r + 1e-12


class TestBirkhoffField:
    def test_constant_field_constant_rate(self):
        X = circle_net(4, 2 * math.pi)
        fld = MetricField(X.labels, (0.0, 1.0), (X.dist, X.dist), meta=dict(X.meta))
        h = rotation(X, 1)
        rep = birkhoff_field(fld, h, eps=0.2, r=X.radius, n_max=40)
        assert rep.rates[0] == rep.rates[1]
        assert not rep.usc_flags

    def test_large_eps_rate_one(self):
        X = circle_net(4, 2 * math.pi)
        fld = MetricField(X.labels, (0.0, 0.5), (X.dist, 1.2 * X.dist), meta=dict(X.meta))
        h = rotation(X, 1)
        rep = birkhoff_field(fld, h, eps=5 * X.diameter, r=1.2 * X.radius, n_max=10)
        assert all(r == 1 for r in rep.rates)

    def test_wave_circle_rates_finite(self):
        prof = WaveProfile((0.25,), 1.0, math.pi)
        circ = circle_wave_metric(wave_metric_field(prof, np.linspace(0, 1.5, 4),
                                                    n_points=9))
        X0 = circ.fibre_space(0)
        h = rotation(circle_net(8, math.pi), 3)   # coprime step: one cycle
        r = max(0.5 * F.max() for F in circ.fibres)
        rep = birkhoff_field(circ, h, eps=0.15, r=r, n_max=60,
                             sample_budget=128, probe_count=16)
        assert all(rate is not None for rate in rep.rates)


class TestRotationField:
    def test_reduced_fraction_and_divisibility(self):
        with pytest.raises(DomainError):
            rotation_field(2, 4, [0.0], 8)
        with pytest.raises(DomainError):
            rotation_field(1, 4, [0.0], 10)

    def test_diagonal_symmetry_monotone(self):
        rep = rotation_field(1, 4, np.linspace(-1, 1, 9), 32, resolution=1)
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

    def test_base_fibre_extremes_are_orbit_uniforms(self):
        from metriclab import invariant_measures
        rep = rotation_field(1, 4, [-0.5, 0.0, 0.5], 16, resolution=1)
        assert rep.extremes_per_fibre == (4, 4, 4)

    def test_resolution_two_dhat_against_simplex(self):
        rep = rotation_field(1, 4, [-0.8, -0.1, 0.5, 1.0], 16, resolution=2)
        nets = [measure_mixtures_loop(ex, 2) for ex in rep.extremes]
        assert [len(net) for net in nets] == [10] * 4
        for s in range(4):
            for t in range(s + 1, 4):
                W = np.array([[wasserstein1(a, b)[0] for b in nets[t]] for a in nets[s]])
                want = max(W.min(axis=1).max(), W.min(axis=0).max())
                assert abs(rep.dhat[s, t] - want) <= 1e-12
                assert rep.dhat[t, s] == rep.dhat[s, t]


class TestRotationFieldPerPointRoutes:
    """The field computes each fibre's images once, as one array. Its
    extremes, dhat and gamma are those of the per-point routes it replaced:
    the barycentric kernel loop and the breakpoint atom table."""

    @pytest.mark.parametrize("p, q, n, m", [(1, 4, 32, 1), (1, 4, 16, 1), (1, 4, 16, 2),
                                            (1, 3, 24, 2), (2, 5, 20, 1), (1, 2, 8, 3),
                                            (0, 1, 12, 1)])
    def test_equal_to_per_point_routes(self, p, q, n, m):
        t_grid = np.linspace(-1, 1, 9)
        rep = rotation_field(p, q, t_grid, n, resolution=m)
        X = circle_net(n, math.pi)
        base = invariant_measures(rotation(X, n * p // q)).extremes
        nets = []
        for t, got in zip(t_grid, rep.extremes):
            K = barycentric_circle_kernel_loop(X, sine_pluck(t))
            want = [Measure(X, mu.weights @ K) for mu in base]
            assert len(got) == len(want)
            assert all(np.array_equal(a.weights, b.weights) for a, b in zip(got, want))
            nets.append(measure_mixtures_loop(want, m))
        dhat = np.zeros((len(t_grid),) * 2)
        for s in range(len(t_grid)):
            for t in range(s + 1, len(t_grid)):
                dhat[s, t] = dhat[t, s] = w1_hausdorff_measures(nets[s], nets[t])
        assert np.array_equal(rep.dhat, dhat)
        assert np.array_equal(rep.gamma, rotation_gamma_atoms(p, q, t_grid, n, m))
        if q == 1:
            # every point is its own orbit, so gamma is far from rounding noise
            assert rep.gamma.max() > 0.8


@pytest.mark.parametrize("m", [0, -3])
def test_rotation_field_resolution_below_one_rejected(m):
    with pytest.raises(DomainError, match="resolution"):
        rotation_field(1, 4, [-0.5, 0.5], 16, resolution=m)


class TestCircleW1Atoms:
    def test_against_network_simplex_on_net_measures(self, rng):
        X = circle_net(8, math.pi)
        coords = np.asarray(X.meta["coords"])
        for _ in range(15):
            wa = rng.dirichlet(np.ones(8))
            wb = rng.dirichlet(np.ones(8))
            net_val, _ = wasserstein1(Measure(X, wa), Measure(X, wb))
            atom_val = circle_w1_atoms(coords, wa, coords, wb, math.pi)
            assert atom_val == pytest.approx(net_val, abs=1e-9)


class TestCircleW1AtomsVectorised:
    def test_against_loop_oracle(self, rng):
        for _ in range(300):
            L = float(rng.uniform(0.5, 8.0))
            na, nb = (int(v) for v in rng.integers(1, 13, size=2))
            pos_a, pos_b = rng.uniform(-L, 2 * L, na), rng.uniform(-L, 2 * L, nb)
            # coincident atoms within and across the two measures (up to a
            # turn or a sub-slack offset), and atoms at 0, L, 2L and just below 0
            shared = int(rng.integers(0, min(na, nb) + 1))
            pos_b[:shared] = pos_a[:shared] + rng.choice([0.0, L, -L, 4e-16], size=shared)
            if na > 1:
                pos_a[1] = pos_a[0]
            pos_a[0] = rng.choice([pos_a[0], 0.0, L, -L, 2 * L, -1e-20])
            w_a, w_b = rng.uniform(0.0, 1.0, na), rng.uniform(0.0, 1.0, nb)
            w_a[rng.uniform(size=na) < 0.3] = 0.0
            w_b[rng.uniform(size=nb) < 0.3] = 0.0
            w_a[0] += 0.1
            w_b[-1] += 0.1
            w_a, w_b = w_a / w_a.sum(), w_b / w_b.sum()
            got = circle_w1_atoms(pos_a, w_a, pos_b, w_b, L)
            assert abs(got - circle_w1_atoms_loop(pos_a, w_a, pos_b, w_b, L)) <= 1e-15


class TestContinuityCheck:
    def test_constant_section_constant_field(self):
        X = interval_net(3, 2.0)
        fld = scaled_field(X, [0.0, 1.0, 2.0], lambda t: 1.0)
        sec = np.tile(np.array([0.0, 0.7, 1.3]), (3, 1))
        rep = field_continuity_check(fld, [sec])
        assert np.ptp(rep.values) == 0.0
        assert rep.envelope_ok and not rep.usc_flags

    def test_constant_section_scaled_field(self):
        X = interval_net(3, 2.0)
        c = lambda t: 1.0 + t
        fld = scaled_field(X, [0.0, 0.5, 1.0], c)
        sec = np.tile(np.array([0.0, 0.7, 1.3]), (3, 1))
        rep = field_continuity_check(fld, [sec])
        base = rep.values[0, 0]
        for k, t in enumerate(fld.thetas):
            assert rep.values[0, k] == pytest.approx(base / c(t))
        assert rep.envelope_ok

    def test_usc_flags_on_dip(self):
        X = interval_net(3, 2.0)
        fld = scaled_field(X, [0.0, 0.5, 1.0], lambda t: 1.0)
        dip = np.array([[0.0, 1.0, 2.0], [0.0, 0.1, 0.2], [0.0, 1.0, 2.0]])
        rep = field_continuity_check(fld, [dip])
        assert rep.usc_flags == ((0, 0.5),)