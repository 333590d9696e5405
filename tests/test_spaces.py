import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from metriclab import (DomainError, MetricValidationError, SubsetRef, bridge_metric,
                       circle_net, epsilon_net, interval_net, product_space,
                       space_from_json, validate_metric)
from metriclab import spaces
from metriclab.config import TOL
from metriclab.spaces import BridgeConstructionError, check_metric

from oracles import covering_brute, hausdorff_brute, triangle_violations_cube


@st.composite
def euclidean_spaces(draw, max_points=6):
    n = draw(st.integers(2, max_points))
    pts = draw(st.lists(
        st.tuples(st.floats(0, 10), st.floats(0, 10)), min_size=n, max_size=n,
        unique=True))
    pts = np.asarray(pts)
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    if np.any((D + np.eye(n)) < 1e-6):   # keep points separated
        D = D + (1.0 - np.eye(n))
    return validate_metric(D)


class TestValidate:
    def test_two_point_valid(self):
        X = validate_metric([[0, 1], [1, 0]])
        assert X.size == 2 and X.dist[0, 1] == 1.0

    def test_asymmetry_reported(self):
        with pytest.raises(MetricValidationError) as exc:
            validate_metric([[0, 1], [2, 0]])
        kinds = {v.kind for v in exc.value.violations}
        assert "asymmetry" in kinds
        assert any(v.indices == (0, 1) for v in exc.value.violations)

    def test_triangle_violation_identifies_triple(self):
        with pytest.raises(MetricValidationError) as exc:
            validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        tri = [v for v in exc.value.violations if v.kind == "triangle"]
        assert tri and (0, 1, 2) in [v.indices for v in tri]

    def test_every_axiom_reported_at_once(self):
        report = check_metric([[1, -1], [2, 0]])
        kinds = {v.kind for v in report}
        assert {"diagonal", "asymmetry"} <= kinds

    @given(euclidean_spaces())
    def test_constructor_outputs_validate(self, X):
        assert not check_metric(X.dist)


def planar(rng, n, collinear=False):
    pts = rng.uniform(0.0, 4.0, size=(n, 2))
    if collinear:
        pts[:, 1] = 0.0
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))


def with_noise(rng, D, scale=1e-9):
    noise = np.triu(rng.uniform(-scale, scale, size=D.shape), 1)
    return D + noise + noise.T


def detoured(D, count):
    """D with `count` pairs (i, k), i spread over the rows, each pushed 1e-6
    past its shortest detour: few violations per row, in many row blocks."""
    M = D.copy()
    n = len(D)
    if n < 3:    # no detour exists
        return M
    for i in np.linspace(0, n - 1, count).astype(int):
        k = (i + n // 2) % n
        if k != i:
            via = np.delete(M[i] + M[:, k], [i, k]).min()
            M[i, k] = M[k, i] = via + 1e-6
    return M


def triangle_list(D):
    return [(v.indices, v.detail) for v in check_metric(D) if v.kind == "triangle"]


class TestTriangleBlocks:
    """The row-block triangle test lists exactly what the full cube listed."""

    @pytest.mark.parametrize("n", [1, 2, 3, 32, 33, 40, 41, 64, 65, 129, 257])
    def test_violation_lists_match_cube(self, n):
        rng = np.random.default_rng(9000 + n)
        D = planar(rng, n)
        late = D.copy()
        if n >= 2:    # only the last two rows violate
            late[-1, -2] = late[-2, -1] = 3.0 * D.max() + 1.0
        cases = {"clean": D, "squared": D ** 2, "late": late,
                 "noisy": with_noise(rng, D), "detoured": detoured(D, 40),
                 "noisy-collinear": with_noise(rng, planar(rng, n, collinear=True))}
        lengths = {}
        for name, M in cases.items():
            got = triangle_list(M)
            assert got == triangle_violations_cube(M, TOL.metric_atol), name
            lengths[name] = len(got)
        assert lengths["clean"] == 0
        if n >= 40:
            assert lengths["squared"] == lengths["late"] == 64
            assert 0 < lengths["noisy-collinear"]
            assert 40 <= lengths["detoured"]

    def test_symmetric_matrix_tests_the_upper_triples_only(self, monkeypatch):
        # an exactly symmetric valid matrix is decided on k >= lo in each
        # block from row lo: at 64 points, 8 blocks of 8 rows, 36 / 64 of
        # the cube; one asymmetric entry brings back the full cube
        cells = []
        bad = spaces._triangle_bad

        def record(D, lo, rows, k0):
            out = bad(D, lo, rows, k0)
            cells.append(out.size)
            return out

        monkeypatch.setattr(spaces, "_triangle_bad", record)
        D = planar(np.random.default_rng(64), 64)
        assert not check_metric(D)
        assert sum(cells) == 8 * 64 * sum(64 - lo for lo in range(0, 64, 8))
        cells.clear()
        D[0, 1] += 1e-12
        assert not check_metric(D)
        assert sum(cells) == 64 ** 3

    def test_validate_metric_memory_is_quadratic(self):
        D = planar(np.random.default_rng(128), 128)
        tracemalloc.start()
        try:
            validate_metric(D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20    # three (n, n, n) arrays would take 34 MiB


class TestConstructors:
    def test_circle_examples(self):
        X = circle_net(4, 2 * math.pi)
        assert X.dist[0, 1] == pytest.approx(math.pi / 2)
        assert X.dist[0, 2] == pytest.approx(math.pi)
        assert circle_net(2, 2 * math.pi).dist[0, 1] == pytest.approx(math.pi)
        Y = circle_net(6, 6.0)
        assert Y.dist[0, 1] == pytest.approx(1.0)
        assert Y.dist.max() == pytest.approx(3.0)

    def test_interval_examples(self):
        assert interval_net(2, math.pi).dist[0, 1] == pytest.approx(math.pi)
        X = interval_net(3, 2.0)
        assert X.dist[0, 2] == pytest.approx(2.0)
        assert interval_net(5, 1.0).dist[0, 1] == pytest.approx(0.25)

    def test_bad_sizes(self):
        with pytest.raises(DomainError):
            circle_net(1, 1.0)
        with pytest.raises(DomainError):
            interval_net(1, 1.0)

    def test_radius(self):
        assert validate_metric([[0, 2], [2, 0]]).radius == pytest.approx(1.0)
        assert circle_net(12, 2 * math.pi).radius == pytest.approx(math.pi / 2)
        assert interval_net(5, math.pi).radius == pytest.approx(math.pi / 2)

    def test_product(self):
        T = validate_metric([[0.0]])
        X = interval_net(3, 1.0)
        P = product_space(T, X, "max")
        assert np.allclose(P.dist, X.dist)
        P2 = product_space(X, T, "sum")
        assert np.allclose(P2.dist, X.dist)
        A = validate_metric([[0, 1], [1, 0]])
        B = validate_metric([[0, 2], [2, 0]])
        S = product_space(A, B, "sum")
        # taxicab distances by direct enumeration
        assert S.dist[0, 3] == pytest.approx(3.0)
        assert S.dist[0, 1] == pytest.approx(2.0)
        assert S.dist[0, 2] == pytest.approx(1.0)
        with pytest.raises(DomainError, match="unknown combiner 'min'"):
            product_space(A, B, "min")


class TestHausdorff:
    def test_line_example_frozen(self):
        X = interval_net(3, 2.0)
        # oracle: exhaustive min-max evaluation
        assert hausdorff_brute(X.dist, [0, 1], [0, 1, 2]) == pytest.approx(1.0)

    def test_empty_subset_rejected(self):
        X = interval_net(3, 2.0)
        with pytest.raises(DomainError):
            SubsetRef(X, ())


class TestCovering:
    def test_interval_example_against_oracle(self):
        # the spec sheet quotes 3 here, but the exhaustive oracle gives 2:
        # balls at 0.25 and 0.75 (radius 0.3, open) cover all of {0,.25,.5,.75,1}
        X = interval_net(5, 1.0)
        assert covering_brute(X.dist.tolist(), 0.3) == 2


class TestEpsilonNet:
    def test_trivial_cases(self):
        X = interval_net(6, 2.0)
        assert epsilon_net(X, 5.0).indices == (0,)
        assert set(epsilon_net(X, 0.1).indices) == set(range(6))

    def test_nan_eps_rejected(self):
        # `eps <= 0` is False for NaN, and `mind <= NaN` never ends the loop
        with pytest.raises(DomainError):
            epsilon_net(interval_net(6, 2.0), math.nan)

    def test_cover_feasibility(self):
        # oracle-frozen: open pi/2-balls on this net hold 3 consecutive points,
        # so 3 cover; the closed-ball greedy net needs only the antipodal pair
        X = circle_net(8, 2 * math.pi)
        net = epsilon_net(X, math.pi / 2)
        assert hausdorff_brute(X.dist, net.indices, range(8)) <= math.pi / 2
        cover = covering_brute(X.dist.tolist(), math.pi / 2)
        assert cover == 3 and len(net.indices) == 2
        assert len(net.indices) <= cover

    @given(euclidean_spaces(), st.floats(0.1, 5.0))
    def test_net_is_a_cover(self, X, eps):
        net = epsilon_net(X, eps)
        assert hausdorff_brute(X.dist, net.indices, range(X.size)) <= eps + 1e-12


class TestBridge:
    def test_isometric_identity(self):
        X = interval_net(3, 1.0)
        B = bridge_metric(X, X, range(3), 0.4)
        n = X.size
        for i in range(n):
            assert B.dist[i, n + i] == pytest.approx(0.2)
        assert (B.dist[:n, n:] >= 0.2 - 1e-12).all()

    def test_two_point_example_frozen(self):
        X = validate_metric([[0, 1], [1, 0]])
        # oracle: exhaustive infimum over z of d(x0,z) + d(f(z), y1) + delta/2
        d_oracle = min(0 + 1, 1 + 0) + 0.1
        B = bridge_metric(X, X, [0, 1], 0.2)
        assert B.dist[0, 2 + 1] == pytest.approx(d_oracle)

    def test_restriction_exact(self):
        X = interval_net(3, 2.0)
        Y = circle_net(4, 4.0)
        B = bridge_metric(X, Y, [0, 1, 2], delta=3.0)
        assert np.array_equal(B.dist[:3, :3], X.dist)
        assert np.array_equal(B.dist[3:, 3:], Y.dist)

    def test_distorting_map_beyond_delta_fails(self):
        X = validate_metric([[0, 5], [5, 0]])
        with pytest.raises(BridgeConstructionError):
            bridge_metric(X, X, [0, 0], delta=0.1)


class TestJson:
    def test_round_trip(self):
        X = space_from_json({"labels": [["a", 0], ["a", 1], "b"],
                             "dist": [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]})
        assert X.labels == (("a", 0), ("a", 1), "b")
        assert np.array_equal(X.dist, [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])

    def test_generators(self):
        X = space_from_json({"generator": "circle", "params": {"n": 4, "circumference": 8.0}})
        assert X.dist[0, 2] == pytest.approx(4.0)
        Y = space_from_json({"generator": "interval", "params": {"n": 3, "length": 1.0}})
        assert Y.dist[0, 2] == pytest.approx(1.0)
        P = space_from_json({"generator": "product",
                             "params": {"left": {"generator": "interval",
                                                 "params": {"n": 2, "length": 1.0}},
                                        "right": {"generator": "interval",
                                                  "params": {"n": 2, "length": 1.0}},
                                        "combiner": "sum"}})
        assert P.dist[0, 3] == pytest.approx(2.0)

    @pytest.mark.parametrize("params", [{"n": 6.7}, {"n": "6"}, {"n": True}, {"n": "six"}, {}])
    def test_generator_n_must_be_an_integer(self, params):
        for gen, size in (("circle", "circumference"), ("interval", "length")):
            with pytest.raises(ValueError, match="'n'"):
                space_from_json({"generator": gen, "params": {**params, size: 2.0}})
            X = space_from_json({"generator": gen, "params": {"n": 4.0, size: 2.0}})
            assert X.size == 4
