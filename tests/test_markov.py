import json
import math
from pathlib import Path

import numpy as np
import pytest

from metriclab import markov
from metriclab import (DomainError, DynMap, MarkovKernel, Measure, RandomMapFamily,
                       circle_net, identity_map, interval_net, kernel_from_maps,
                       ldp_experiment, nucleus_net, point_mass, rotation,
                       stationary_measures, wasserstein1)
from metriclab.cli import main
from metriclab.dynamics import birkhoff_rate
from metriclab.lipgeom import Nucleus
from metriclab.spaces import epsilon_net, space_from_json, validate_metric
from oracles import ldp_probabilities_scalar, stationary_measures_scc

LDP_SCENARIO = Path(__file__).resolve().parents[1] / "scripts" / "scenarios" / "ldp.json"


def two_contraction_family(n=16, length=1.0):
    """x -> x/2 and x -> (x+L)/2 on an n-point net of [0, L]."""
    X = interval_net(n, length)
    coords = np.asarray(X.meta["coords"])

    def proj(y):
        return int(np.argmin(np.abs(coords - y)))

    half = DynMap(X, np.array([proj(c / 2) for c in coords]), label="half")
    shift = DynMap(X, np.array([proj(c / 2 + length / 2) for c in coords]), label="half+")
    return X, RandomMapFamily((half, shift), np.array([0.5, 0.5]))


def three_map_family(n=16):
    """The two contractions plus x -> x/3 + 1/3, with unequal probabilities."""
    X, fam = two_contraction_family(n)
    coords = np.asarray(X.meta["coords"])
    third = DynMap(X, np.array([int(np.argmin(np.abs(coords - (c / 3 + 1 / 3))))
                                for c in coords]), label="third")
    return X, RandomMapFamily(fam.maps + (third,), np.array([0.2, 0.5, 0.3]))


def scalar_ldp_probabilities(fam, nuc, eps, n_values, trials, seed):
    nu = stationary_measures(kernel_from_maps(fam))[0]
    return ldp_probabilities_scalar(
        np.stack([m.idx for m in fam.maps]), fam.probabilities, nuc.values,
        nuc.values @ nu.weights, epsilon_net(fam.space, eps / 4).indices,
        eps, n_values, trials, seed)


def random_kernels(count, seed=5):
    """Seeded sparse row-stochastic matrices of 1-16 points: transient
    points, several recurrent classes, absorbing rows and transitions below
    TOL.weight_atol all occur."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = 1 if k % 50 == 0 else int(rng.integers(2, 17))
        M = rng.uniform(0.01, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < rng.uniform(0.05, 0.5))
        M[np.arange(n), rng.integers(0, n, size=n)] += rng.uniform(0.01, 1.0, size=n)
        absorbing = rng.uniform(size=n) < 0.15
        M[absorbing] = np.eye(n)[absorbing]
        if k % 7 == 0:
            M[rng.integers(n), rng.integers(n)] += 5e-13
        out.append(M / M.sum(axis=1, keepdims=True))
    return out


class TestKernel:
    def test_single_map_deterministic(self):
        X = interval_net(3, 1.0)
        h = DynMap(X, [1, 2, 0])
        P = kernel_from_maps(RandomMapFamily((h,), np.array([1.0])))
        assert np.array_equal(P.P, np.eye(3)[[1, 2, 0]])

    def test_agreeing_maps_merge(self):
        X = interval_net(3, 1.0)
        h1 = DynMap(X, [1, 1, 0])
        h2 = DynMap(X, [1, 2, 0])
        P = kernel_from_maps(RandomMapFamily((h1, h2), np.array([0.5, 0.5])))
        assert P.P[0, 1] == pytest.approx(1.0)      # maps agree at 0
        assert P.P[1, 1] == pytest.approx(0.5)
        assert P.P[1, 2] == pytest.approx(0.5)

    def test_two_contractions_rows(self):
        X, fam = two_contraction_family(16)
        P = kernel_from_maps(fam)
        row_support = (P.P > 0).sum(axis=1)
        assert set(row_support) <= {1, 2}
        assert np.allclose(P.P.sum(axis=1), 1.0)
        positive = P.P[P.P > 0]
        assert np.allclose(np.sort(np.unique(np.round(positive, 12))), [0.5, 1.0]) or \
            np.allclose(np.unique(np.round(positive, 12)), [0.5])

    def test_row_validation(self):
        X = interval_net(2, 1.0)
        with pytest.raises(DomainError):
            MarkovKernel(X, np.array([[0.5, 0.4], [0.0, 1.0]]))

    @pytest.mark.parametrize("P", [[[math.nan, 0.5], [0.0, 1.0]], [[0.5, 0.5], [1.0, math.nan]]])
    def test_nan_entry_rejected(self, P):
        with pytest.raises(DomainError, match="not a number"):
            MarkovKernel(interval_net(2, 1.0), np.array(P))

    def test_nan_probability_rejected(self):
        X = interval_net(2, 1.0)
        with pytest.raises(DomainError, match="not a number"):
            RandomMapFamily((identity_map(X), identity_map(X)), [math.nan, 1.0])


class TestStationary:
    def test_doubly_stochastic_irreducible_uniform(self):
        X = circle_net(4, 2.0)
        P = MarkovKernel(X, np.full((4, 4), 0.25))
        out = stationary_measures(P)
        assert len(out) == 1
        assert np.allclose(out[0].weights, 0.25)

    def test_two_state_closed_form(self):
        # oracle: solve the 2x2 linear system by hand, pi = (q, p)/(p+q)
        p, q = 0.3, 0.2
        X = interval_net(2, 1.0)
        P = MarkovKernel(X, np.array([[1 - p, p], [q, 1 - q]]))
        out = stationary_measures(P)
        assert len(out) == 1
        assert np.allclose(out[0].weights, [q / (p + q), p / (p + q)])

    def test_identity_kernel_point_masses(self):
        X = interval_net(3, 1.0)
        P = MarkovKernel(X, np.eye(3))
        out = stationary_measures(P)
        assert len(out) == 3
        assert all(m.weights.max() == 1.0 for m in out)

    def test_invariance_and_convexity(self, rng):
        X = circle_net(5, 2.0)
        M = rng.uniform(0.1, 1.0, size=(5, 5))
        P = MarkovKernel(X, M / M.sum(axis=1, keepdims=True))
        out = stationary_measures(P)
        for m in out:
            assert np.abs(m.weights @ P.P - m.weights).max() <= 1e-9
        if len(out) > 1:
            lam = rng.dirichlet(np.ones(len(out)))
            mix_w = sum(l * m.weights for l, m in zip(lam, out))
            assert np.abs(mix_w @ P.P - mix_w).max() <= 1e-9

    def test_matches_scc_oracle(self):
        # reachability finds the classes of the strongly connected component
        # search, in the same order, so every weight is equal bit for bit
        spaces = {}
        seen = {"one point": 0, "transient": 0, "several classes": 0, "absorbing": 0}
        for M in random_kernels(1200):
            n = len(M)
            if n not in spaces:
                spaces[n] = validate_metric(np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]))
            K = MarkovKernel(spaces[n], M)
            got = [m.weights for m in stationary_measures(K)]
            want = stationary_measures_scc(K.P)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            support = sum(w > 0 for w in want)
            seen["one point"] += n == 1
            seen["transient"] += bool((support == 0).any())
            seen["several classes"] += len(want) > 1
            seen["absorbing"] += bool((np.diag(K.P) == 1.0).any())
        assert min(seen.values()) >= 20, seen


class TestLdp:
    def test_eps_beyond_range_never_deviates(self):
        X, fam = two_contraction_family(8)
        nuc = nucleus_net(X, X.radius, 0.3, sample_budget=32)
        rep = ldp_experiment(fam, nuc, eps=2 * nuc.r + 0.5, n_values=[2, 4],
                             trials=50, seed=3)
        assert all(p == 0.0 for p in rep.probabilities)

    def test_nan_eps_rejected(self):
        X, fam = two_contraction_family(8)
        nuc = nucleus_net(X, X.radius, 0.3, sample_budget=32)
        with pytest.raises(DomainError, match="eps"):
            ldp_experiment(fam, nuc, eps=math.nan, n_values=[2, 4], trials=50, seed=3)

    def test_deterministic_map_matches_birkhoff_rate(self):
        X = circle_net(4, 2 * math.pi)
        h = rotation(X, 1)
        fam = RandomMapFamily((h,), np.array([1.0]))
        eps = 0.1
        nuc = nucleus_net(X, X.radius, 0.35)
        # the eps/4 start net must be every point so both sups agree
        assert len(epsilon_net(X, eps / 4).indices) == 4
        rate = birkhoff_rate(h, nuc, eps, 64).rate
        rep = ldp_experiment(fam, nuc, eps, n_values=list(range(1, 33)),
                             trials=3, seed=0)
        drop = [n for n, p in zip(rep.n_values, rep.probabilities) if p == 0.0]
        crossing = min(n for n in drop
                       if all(m in drop for m in rep.n_values if m >= n))
        assert crossing == rate

    def test_two_contractions_fit(self):
        X, fam = two_contraction_family(16)
        nuc = nucleus_net(X, X.radius, 0.25, sample_budget=64)
        rep = ldp_experiment(fam, nuc, eps=0.15, n_values=[4, 8, 16, 32, 64],
                             trials=400, seed=7)
        diffs = np.diff(rep.probabilities)
        assert (diffs <= 0.05).all()          # nonincreasing within a confidence band
        assert rep.c2 > 0
        assert rep.fit_quality >= 0.9

    def test_repeated_horizon(self):
        X, fam = two_contraction_family(16)
        nuc = nucleus_net(X, X.radius, 0.25, sample_budget=64, probe_count=16)
        p = ldp_experiment(fam, nuc, 0.1, [2, 4, 8], trials=500).probabilities
        rep = ldp_experiment(fam, nuc, 0.1, [2, 2, 4, 8], trials=500)
        assert rep.n_values == (2, 2, 4, 8)
        assert rep.probabilities == (p[0], p[0], p[1], p[2])

    def test_fit_needs_two_distinct_horizons(self):
        X, fam = two_contraction_family(16)
        nuc = nucleus_net(X, X.radius, 0.25, sample_budget=64, probe_count=16)
        rep = ldp_experiment(fam, nuc, 0.1, [2, 2], trials=50)
        assert all(p > 0 for p in rep.probabilities)
        assert all(math.isnan(v) for v in (rep.c1, rep.c2, rep.fit_quality))

    @pytest.mark.parametrize("seed", range(5))
    def test_two_contractions_match_scalar_oracle(self, seed):
        X, fam = two_contraction_family(16)
        nuc = nucleus_net(X, X.radius, 0.25, sample_budget=64, probe_count=16)
        n_values = [2, 4, 8, 8, 16, 32]
        rep = ldp_experiment(fam, nuc, 0.15, n_values, trials=300, seed=seed)
        assert rep.probabilities == scalar_ldp_probabilities(fam, nuc, 0.15, n_values,
                                                             300, seed)

    @pytest.mark.parametrize("cells", [1, 30_000, 1 << 30])
    def test_trial_blocks_do_not_change_the_result(self, cells, monkeypatch):
        # one trial per block, several blocks and a shorter last one, and
        # every trial in one block
        X, fam = two_contraction_family(16)
        nuc = nucleus_net(X, X.radius, 0.25, sample_budget=64, probe_count=16)
        monkeypatch.setattr(markov, "_LDP_BLOCK_CELLS", cells)
        n_values = [1, 4, 4, 16, 40]
        rep = ldp_experiment(fam, nuc, 0.15, n_values, trials=97, seed=5)
        assert rep.probabilities == scalar_ldp_probabilities(fam, nuc, 0.15, n_values,
                                                             97, 5)

    def test_shipped_family_blocks_match_scalar_oracle(self, monkeypatch):
        # the ldp.json family and nucleus, 16 starts and 99 members: 2 000
        # trials make blocks of 331 (the default), 41 and 3 trials, each
        # with a shorter last block, and the prefix table of 128 codes is
        # walked in 1, 4 and 43 blocks; every block's products and
        # deviations go to the first rows of the experiment's two buffers
        doc = json.loads(LDP_SCENARIO.read_text())
        p = doc["params"]
        X = space_from_json(p["space"])
        fam = RandomMapFamily(tuple(DynMap(X, m["map"]) for m in p["maps"]), np.array([0.5, 0.5]))
        nuc = nucleus_net(X, X.radius, p["nucleus_eps"], sample_budget=p["nucleus_samples"],
                          seed=doc["seed"])
        assert (len(epsilon_net(X, p["eps"] / 4).indices), len(nuc)) == (16, 99)
        args = (fam, nuc, p["eps"], p["n_values"], 2000, doc["seed"])
        want = scalar_ldp_probabilities(*args)
        assert 0.0 < min(want) < max(want) == 1.0
        for cells in (markov._LDP_BLOCK_CELLS, 1 << 16, 5_000):
            monkeypatch.setattr(markov, "_LDP_BLOCK_CELLS", cells)
            assert ldp_experiment(*args).probabilities == want

    @pytest.mark.parametrize("seed", [0, 1])
    def test_three_map_family_matches_scalar_oracle(self, seed):
        X, fam = three_map_family(16)
        full = nucleus_net(X, X.radius, 0.25, sample_budget=64, probe_count=16)
        # members with a positive sum only: no member is then the negative of
        # another, so the min over starts decides some deviations on its own
        keep = full.values.sum(axis=1) > 0
        nuc = Nucleus(X, full.r, full.values[keep], full.density, False, full.target_eps)
        n_values = [1, 3, 9, 27]
        rep = ldp_experiment(fam, nuc, 0.12, n_values, trials=300, seed=seed)
        assert any(0.0 < p < 1.0 for p in rep.probabilities)
        assert rep.probabilities == scalar_ldp_probabilities(fam, nuc, 0.12, n_values,
                                                             300, seed)

    def test_shipped_scenario_values(self, tmp_path):
        assert main(["--config", str(LDP_SCENARIO), "--out", str(tmp_path),
                     "--format", "json"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["probabilities"] == [1.0, 0.8911, 0.461, 0.1647, 0.0247]
        assert report["c2"] == 2.7873374522218617
        assert report["fit_quality"] == 0.9976909476440213
        assert report["rng"] == "splitmix64-v1"

    def test_shipped_scenario_is_the_two_contractions(self):
        # ldp.json's tables are x/2 and (x+1)/2 projected onto its 16-point net of [0, 1]
        p = json.loads(LDP_SCENARIO.read_text())["params"]
        _, fam = two_contraction_family(16)
        assert p["space"] == {"generator": "interval", "params": {"n": 16, "length": 1.0}}
        assert [m["map"] for m in p["maps"]] == [h.idx.tolist() for h in fam.maps]
        assert "probabilities" not in p       # each map with probability 1/2

    @pytest.mark.parametrize("cells", [1, 1 << 30])
    def test_prefix_table_boundary(self, cells, monkeypatch):
        # 2 maps and 8 trials: n = 4 has 2 ** 3 = 8 choice prefixes, as many
        # as trials, so it is read from the prefix table; n = 5 has 16 and is walked
        X, fam = two_contraction_family(16)
        nuc = nucleus_net(X, X.radius, 0.25, sample_budget=64, probe_count=16)
        monkeypatch.setattr(markov, "_LDP_BLOCK_CELLS", cells)
        walks = []
        kernel = markov._exceed_flags

        def record(*args):
            walks.append((tuple(args[6]), args[7].shape))
            return kernel(*args)

        monkeypatch.setattr(markov, "_exceed_flags", record)
        n_values = [1, 2, 3, 4, 5, 9]
        rep = ldp_experiment(fam, nuc, 0.1, n_values, trials=8, seed=2)
        assert rep.probabilities == scalar_ldp_probabilities(fam, nuc, 0.1, n_values, 8, 2)
        table = [w for w in walks if w[0] == (1, 2, 3, 4)]
        assert sum(shape[1] for _, shape in table) == 8
        assert all(shape[0] == 3 for _, shape in table)
        assert sum(shape[1] for h, shape in walks if h == (5, 9)) == 8
        assert len(table) + sum(h == (5, 9) for h, _ in walks) == len(walks)

    @pytest.mark.parametrize("cells", [1, 1 << 30])
    def test_never_drawn_map_matches_scalar_oracle(self, cells, monkeypatch):
        # the middle map has probability 0, so the table holds prefixes no
        # trial draws; 3 ** 4 = 81 <= 200 < 3 ** 5 splits the horizons
        X, fam = three_map_family(16)
        fam = RandomMapFamily(fam.maps, np.array([0.4, 0.0, 0.6]))
        nuc = nucleus_net(X, X.radius, 0.25, sample_budget=64, probe_count=16)
        monkeypatch.setattr(markov, "_LDP_BLOCK_CELLS", cells)
        n_values = [1, 2, 5, 6, 12]
        rep = ldp_experiment(fam, nuc, 0.1, n_values, trials=200, seed=4)
        assert any(0.0 < p < 1.0 for p in rep.probabilities)
        assert rep.probabilities == scalar_ldp_probabilities(fam, nuc, 0.1, n_values,
                                                             200, 4)

    @pytest.mark.parametrize("cells", [1, 1 << 30])
    def test_one_map_family_is_one_table_walk(self, cells, monkeypatch):
        X, fam = two_contraction_family(16)
        fam = RandomMapFamily(fam.maps[:1], np.array([1.0]))
        nuc = nucleus_net(X, X.radius, 0.25, sample_budget=64, probe_count=16)
        monkeypatch.setattr(markov, "_LDP_BLOCK_CELLS", cells)
        walks = []
        kernel = markov._exceed_flags

        def record(*args):
            walks.append(args[7].shape)
            return kernel(*args)

        monkeypatch.setattr(markov, "_exceed_flags", record)
        n_values = [1, 2, 3, 7, 20]
        rep = ldp_experiment(fam, nuc, 0.3, n_values, trials=30, seed=1)
        assert walks == [(19, 1)]
        assert rep.probabilities == scalar_ldp_probabilities(fam, nuc, 0.3, n_values, 30, 1)
        assert {0.0, 1.0} == set(rep.probabilities)

    def test_never_merging_family_matches_scalar_oracle(self):
        # rotations are bijections, so no two starts ever meet and every
        # trial is walked on from the start walk and decided exactly
        X = circle_net(16, 1.0)
        fam = RandomMapFamily((rotation(X, 1), rotation(X, 3)), np.array([0.5, 0.5]))
        nuc = nucleus_net(X, X.radius, 0.25, sample_budget=64, probe_count=16)
        n_values = [1, 3, 9, 16, 33]
        rep = ldp_experiment(fam, nuc, 0.05, n_values, trials=300, seed=6)
        assert sum(0.0 < p < 1.0 for p in rep.probabilities) >= 2
        assert rep.probabilities == scalar_ldp_probabilities(fam, nuc, 0.05, n_values,
                                                             300, 6)

    def test_eps_on_the_deviation_lattice_is_rechecked(self, monkeypatch):
        # both maps are constant, so every trial's starts meet at step 1 and
        # every call of the exact decision is a re-check; the time averages
        # of x - 1/2 are multiples of 1/(4n), so eps = 1/4 is hit exactly
        X = interval_net(5, 1.0)
        fam = RandomMapFamily((DynMap(X, [0] * 5), DynMap(X, [4] * 5)), np.array([0.5, 0.5]))
        nuc = Nucleus(X, 0.5, np.asarray(X.meta["coords"])[None, :] - 0.5, 0.5, False, 0.25)
        rechecked = []
        deviates = markov._deviates

        def record(counts, *args):
            rechecked.append(counts.shape[1])
            return deviates(counts, *args)

        monkeypatch.setattr(markov, "_deviates", record)
        n_values = [4, 8, 12, 16]
        rep = ldp_experiment(fam, nuc, 0.25, n_values, trials=500, seed=3)
        assert sum(rechecked) > 0
        assert any(0.0 < p < 1.0 for p in rep.probabilities)
        assert rep.probabilities == scalar_ldp_probabilities(fam, nuc, 0.25, n_values, 500, 3)

    @pytest.mark.parametrize("eps", [0.15e6, 103821.42857142845])
    def test_scaled_interval_matches_scalar_oracle(self, eps):
        # values up to 4.5e5 that are not dyadic round differently in the
        # filter's sums than in the exact products; the second eps is trial
        # 26's exact deviation at n = 16, which the filter alone misreads
        X, fam = two_contraction_family(16, 1e6)
        full = nucleus_net(X, X.radius, 0.25e6, sample_budget=64, probe_count=16)
        nuc = Nucleus(X, full.r, 0.9 * full.values, full.density, False, full.target_eps)
        n_values = [2, 8, 16, 32]
        rep = ldp_experiment(fam, nuc, eps, n_values, trials=60, seed=1)
        assert any(0.0 < p < 1.0 for p in rep.probabilities)
        assert rep.probabilities == scalar_ldp_probabilities(fam, nuc, eps, n_values, 60, 1)

    def test_starts_meeting_after_the_first_horizon(self):
        # twenty maps (ten copies of each contraction) keep n = 3 out of the
        # prefix table, and most trials' starts meet after step 3, where
        # their counts are not yet start 0's plus the difference
        X, fam = two_contraction_family(16)
        fam = RandomMapFamily(fam.maps * 10, np.full(20, 0.05))
        nuc = nucleus_net(X, X.radius, 0.25, sample_budget=64, probe_count=16)
        n_values = [3, 4, 6, 40]
        rep = ldp_experiment(fam, nuc, 0.4, n_values, trials=300, seed=8)
        assert sum(0.0 < p < 1.0 for p in rep.probabilities) >= 3
        assert rep.probabilities == scalar_ldp_probabilities(fam, nuc, 0.4, n_values, 300, 8)

    @pytest.mark.parametrize("trials", [1, 300])
    def test_horizons_before_any_merge_match_scalar_oracle(self, trials):
        # the starts of the two contractions have not met after one step, so
        # n = 1 and 2 are decided exactly, walked (1 trial) or from the table
        X, fam = two_contraction_family(16)
        nuc = nucleus_net(X, X.radius, 0.25, sample_budget=64, probe_count=16)
        rep = ldp_experiment(fam, nuc, 0.5, [1, 2], trials=trials, seed=4)
        assert rep.probabilities == scalar_ldp_probabilities(fam, nuc, 0.5, [1, 2], trials, 4)
        assert trials == 1 or 0.0 < rep.probabilities[1] < 1.0

    @pytest.mark.parametrize("trials", [0, -3, 2.5, "ten", True])
    def test_trials_must_be_a_positive_integer(self, trials):
        X, fam = two_contraction_family(8)
        nuc = nucleus_net(X, X.radius, 0.3, sample_budget=16)
        with pytest.raises(DomainError, match="trials"):
            ldp_experiment(fam, nuc, 0.2, [2, 4], trials=trials, seed=0)

    @pytest.mark.parametrize("n_values", [[2.7, 4], [0, 4], ["4"], [math.inf], [math.nan], [],
                                          [True]])
    def test_horizons_must_be_positive_integers(self, n_values):
        X, fam = two_contraction_family(8)
        nuc = nucleus_net(X, X.radius, 0.3, sample_budget=16)
        with pytest.raises(DomainError):
            ldp_experiment(fam, nuc, 0.2, n_values, trials=10, seed=0)

    def test_integral_float_horizons_are_integers(self):
        X, fam = two_contraction_family(8)
        nuc = nucleus_net(X, X.radius, 0.3, sample_budget=16)
        a = ldp_experiment(fam, nuc, 0.2, [4.0, 2.0], trials=40, seed=3)
        b = ldp_experiment(fam, nuc, 0.2, [2, 4], trials=40, seed=3)
        assert a.n_values == b.n_values == (2, 4)
        assert a.probabilities == b.probabilities

    def test_requires_unique_stationary(self):
        X = circle_net(4, 2.0)
        h = rotation(X, 2)
        fam = RandomMapFamily((h,), np.array([1.0]))
        nuc = nucleus_net(X, X.radius, 0.4)
        with pytest.raises(DomainError):
            ldp_experiment(fam, nuc, 0.1, [2, 4], trials=10, seed=0)

    def test_seeded_determinism(self):
        X, fam = two_contraction_family(8)
        nuc = nucleus_net(X, X.radius, 0.3, sample_budget=16)
        a = ldp_experiment(fam, nuc, 0.2, [2, 4, 8], trials=60, seed=11)
        b = ldp_experiment(fam, nuc, 0.2, [2, 4, 8], trials=60, seed=11)
        assert a.probabilities == b.probabilities
        assert a.c1 == b.c1 and a.c2 == b.c2

    def test_kernel_w1_nonexpansive_for_lipschitz_family(self):
        X, fam = two_contraction_family(12)
        assert max(m.expansion() for m in fam.maps) <= 1e-9
        P = kernel_from_maps(fam)
        for i in range(0, 12, 3):
            for j in range(1, 12, 4):
                a = P.act_on_measure(point_mass(X, i))
                b = P.act_on_measure(point_mass(X, j))
                assert wasserstein1(a, b)[0] <= X.dist[i, j] + 1e-9