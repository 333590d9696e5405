"""The input rules, each with one implementation: probability vectors
(`transport._check_weights`), a shared space (`spaces._same_space`),
positive counts (`config.as_positive_integer`), integers of any sign
(`config.as_integer_argument`, behind `rotation`, `rotation_field` and
`SubsetRef`), index sets (`SubsetRef`, behind `point_mass` and
`uniform_measure`) and metric fields whose fibres are validated once, when
the field is built."""
import math

import numpy as np
import pytest

from metriclab import (DomainError, DynMap, MarkovKernel, MetricField, Observable,
                       RandomMapFamily, SimplexNet, SpaceMismatchError, SubsetRef,
                       WaveProfile, birkhoff_field, birkhoff_rate, circle_net,
                       crossed_product_seminorm, deform, identity_map, interval_net,
                       invariant_simplex_hausdorff, ldp_experiment, mix, nucleus_net,
                       point_mass, prob_net, rotation, rotation_field, uniform_measure,
                       wave_metric_field)
from metriclab import fields, spaces
from metriclab.config import as_positive_integer
from metriclab.distances import intertwining_gap
from metriclab.transport import convex_grid

# ---------------------------------------------------------------------------
# probability vectors

BAD_WEIGHTS = {"nan": [math.nan, 1.0], "negative": [1.5, -0.5], "unnormalised": [0.5, 0.4]}


@pytest.mark.parametrize("row", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS.keys())
def test_kernel_rows_are_probability_vectors(row):
    with pytest.raises(DomainError):
        MarkovKernel(interval_net(2, 1.0), np.array([[0.0, 1.0], row]))


@pytest.mark.parametrize("p", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS.keys())
def test_family_probabilities_are_a_probability_vector(p):
    X = interval_net(2, 1.0)
    with pytest.raises(DomainError):
        RandomMapFamily((identity_map(X), DynMap(X, [1, 0])), p)


@pytest.mark.parametrize("lam", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS.keys())
def test_mixing_weights_are_a_probability_vector(lam):
    X = interval_net(2, 1.0)
    with pytest.raises(DomainError):
        mix([point_mass(X, 0), point_mass(X, 1)], lam)


def test_nan_weight_is_named_as_such():
    X = interval_net(2, 1.0)
    with pytest.raises(DomainError, match="not a number"):
        mix([point_mass(X, 0), point_mass(X, 1)], [math.nan, 1.0])


# ---------------------------------------------------------------------------
# one space


def _two_circles():
    return circle_net(4, 2 * math.pi), circle_net(4, 2 * math.pi)


def _family_on_two_spaces():
    X, Y = _two_circles()
    return RandomMapFamily((identity_map(X), identity_map(Y)), [0.5, 0.5])


def _ldp_nucleus_elsewhere():
    X, Y = _two_circles()
    fam = RandomMapFamily((rotation(X, 1), identity_map(X)), [0.5, 0.5])
    return ldp_experiment(fam, nucleus_net(Y, Y.radius, 1.0), 0.5, [2], trials=4)


def _birkhoff_nucleus_elsewhere():
    X, Y = _two_circles()
    return birkhoff_rate(rotation(X, 1), nucleus_net(Y, Y.radius, 1.0), 0.5, 4)


def _crossed_product_observable_elsewhere():
    X, Y = _two_circles()
    return crossed_product_seminorm(Observable(Y, [1.0, 0.0, 1.0, 0.0]), rotation(X, 1))


# the six checks that raised a plain DomainError before they shared one helper
MISMATCHES = {
    "deform": lambda: deform(*(identity_map(S) for S in _two_circles())),
    "invariant_simplex_hausdorff":
        lambda: invariant_simplex_hausdorff(*(identity_map(S) for S in _two_circles())),
    "birkhoff_rate": _birkhoff_nucleus_elsewhere,
    "crossed_product_seminorm": _crossed_product_observable_elsewhere,
    "RandomMapFamily": _family_on_two_spaces,
    "ldp_experiment": _ldp_nucleus_elsewhere,
}


@pytest.mark.parametrize("call", MISMATCHES.values(), ids=MISMATCHES.keys())
def test_space_mismatch_raises_space_mismatch_error(call):
    with pytest.raises(SpaceMismatchError, match="live on different spaces"):
        call()


def test_same_space_returns_the_space_and_names_both_kinds():
    X, Y = _two_circles()
    assert spaces._same_space(point_mass(X, 0), identity_map(X), point_mass(X, 1)) is X
    with pytest.raises(SpaceMismatchError, match="^Measure and DynMap "):
        spaces._same_space(point_mass(X, 0), identity_map(X), identity_map(Y))


# ---------------------------------------------------------------------------
# positive counts


@pytest.mark.parametrize("v, n", [(2, 2), (2.0, 2), (np.int64(3), 3)])
def test_positive_integer_accepts_integral_values(v, n):
    got = as_positive_integer(v, "count")
    assert got == n and type(got) is int


@pytest.mark.parametrize("v", [0, -1, 2.5, math.nan, math.inf, "2", True, None])
def test_positive_integer_rejects_the_rest(v):
    with pytest.raises(DomainError, match="count must be a positive integer"):
        as_positive_integer(v, "count")


def test_integral_float_resolution_builds_the_same_net():
    X, Y = interval_net(3, 1.0), circle_net(3, 3.0)
    for a, b in ((prob_net(X, 2.0), prob_net(X, 2)), (prob_net(Y, 2.0), prob_net(Y, 2))):
        assert type(a.resolution) is int and a.resolution == b.resolution
        assert np.array_equal(a.counts, b.counts) and a.density == b.density
    g2 = intertwining_gap(prob_net(X, 2.0), prob_net(Y, 2.0))
    g = intertwining_gap(prob_net(X, 2), prob_net(Y, 2))
    assert (g2.value, g2.exhaustive, g2.report) == (g.value, g.exhaustive, g.report)
    assert SimplexNet(X, 2.0, prob_net(X, 2).counts, 0.5).resolution == 2


def test_integral_float_resolution_gives_the_same_values():
    X = circle_net(6, 3.0)
    h = rotation(X, 2)   # two 3-cycles
    a0 = Observable(X, [0.9, 0.2, 0.4, 0.1, 0.7, 0.3])
    assert crossed_product_seminorm(a0, h, 2.0) == crossed_product_seminorm(a0, h, 2)
    assert (invariant_simplex_hausdorff(h, identity_map(X), 2.0)
            == invariant_simplex_hausdorff(h, identity_map(X), 2))
    a, b = (rotation_field(1, 4, [-0.5, 0.5], 16, resolution=m) for m in (2.0, 2))
    assert np.array_equal(a.dhat, b.dhat) and np.array_equal(a.gamma, b.gamma)


def _birkhoff_at(n_max):
    X = circle_net(8, math.pi)
    return birkhoff_rate(rotation(X, 3), nucleus_net(X, X.radius, 0.5), 0.3, n_max)


def _wave_field_at(n_points):
    return wave_metric_field(WaveProfile.triangular_pluck(0.3), [0.0, 0.5], n_points)


# counts that the library reads by the rule before its own n >= 2 checks
LIBRARY_COUNTS = {
    "circle_net": lambda n: circle_net(n, 1.0),
    "interval_net": lambda n: interval_net(n, 1.0),
    "birkhoff_rate": _birkhoff_at,
    "wave_metric_field": _wave_field_at,
    "rotation_field": lambda n: rotation_field(1, 4, [0.0, 0.5], n),
}


@pytest.mark.parametrize("v", [2.5, True, 0])
@pytest.mark.parametrize("call", LIBRARY_COUNTS.values(), ids=LIBRARY_COUNTS.keys())
def test_library_counts_are_positive_integers(call, v):
    with pytest.raises(DomainError, match="must be a positive integer"):
        call(v)


def test_integral_float_counts_give_the_same_results():
    for make in (circle_net, interval_net):
        a, b = make(4.0, 1.0), make(4, 1.0)
        assert np.array_equal(a.dist, b.dist) and a.meta == b.meta
    a, b = _birkhoff_at(3.0), _birkhoff_at(3)
    assert type(a.n_max) is int
    assert (a.epsilon, a.rate, a.n_max, a.resolved) == (b.epsilon, b.rate, b.n_max, b.resolved)
    assert np.array_equal(a.curve, b.curve)
    a, b = _wave_field_at(4.0), _wave_field_at(4)
    assert a.labels == b.labels and a.meta == b.meta
    assert all(np.array_equal(f, g) for f, g in zip(a.fibres, b.fibres))
    a, b = (rotation_field(1, 4, [0.0, 0.5], n) for n in (8.0, 8))
    assert a.net_size == b.net_size == 8 and type(a.net_size) is int
    assert np.array_equal(a.dhat, b.dhat) and np.array_equal(a.gamma, b.gamma)


@pytest.mark.parametrize("call", [
    lambda: convex_grid(3, 2.5),
    lambda: prob_net(interval_net(3, 1.0), 2.5),
    lambda: rotation_field(1, 4, [-0.5, 0.5], 16, resolution=2.5),
], ids=["convex_grid", "prob_net", "rotation_field"])
def test_fractional_resolution_is_a_domain_error(call):
    with pytest.raises(DomainError, match="resolution"):
        call()


# ---------------------------------------------------------------------------
# integers of any sign

def test_integral_float_turns_give_the_same_results():
    X = circle_net(8, math.pi)
    a, b = rotation(X, 2.0), rotation(X, 2)
    assert np.array_equal(a.idx, b.idx) and a.label == b.label == "rot2"
    assert np.array_equal(rotation(X, -3.0).idx, rotation(X, 5).idx)
    assert np.array_equal(rotation(X, 0.0).idx, np.arange(8))
    a, b = rotation_field(1, 4.0, [0.0, 0.5], 8), rotation_field(1, 4, [0.0, 0.5], 8)
    assert np.array_equal(a.dhat, b.dhat) and np.array_equal(a.gamma, b.gamma)
    a, b = rotation_field(2.0, 5, [0.0, 0.5], 10), rotation_field(2, 5, [0.0, 0.5], 10)
    assert np.array_equal(a.dhat, b.dhat) and np.array_equal(a.gamma, b.gamma)


TURNS = {
    "rotation steps": lambda v: rotation(circle_net(8, math.pi), v),
    "rotation_field p": lambda v: rotation_field(v, 4, [0.0, 0.5], 8),
    "rotation_field q": lambda v: rotation_field(1, v, [0.0, 0.5], 8),
}


@pytest.mark.parametrize("v", [2.5, True])
@pytest.mark.parametrize("name", TURNS)
def test_turns_are_integers(name, v):
    with pytest.raises(DomainError, match=f"{name.split()[-1]} must be an integer"):
        TURNS[name](v)


# ---------------------------------------------------------------------------
# index sets

# each once wrapped to the last point, crashed or truncated the index
BAD_INDICES = {
    "point_mass -1": lambda X: point_mass(X, -1),
    "point_mass past the end": lambda X: point_mass(X, 4),
    "point_mass 1.5": lambda X: point_mass(X, 1.5),
    "uniform_measure [-1]": lambda X: uniform_measure(X, [-1]),
    "uniform_measure []": lambda X: uniform_measure(X, []),
    "uniform_measure duplicate": lambda X: uniform_measure(X, [1, 1]),
    "SubsetRef 1.5": lambda X: SubsetRef(X, (1.5,)),
    "SubsetRef True": lambda X: SubsetRef(X, (True,)),
}


@pytest.mark.parametrize("call", BAD_INDICES.values(), ids=BAD_INDICES.keys())
def test_index_sets_are_in_range_integers(call):
    X = interval_net(4, 1.0)
    with pytest.raises(DomainError, match="subset"):
        call(X)


def test_integral_indices_pass():
    X = interval_net(4, 1.0)
    assert np.array_equal(point_mass(X, 2.0).weights, [0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(uniform_measure(X, (np.int64(3), 1.0)).weights, [0.0, 0.5, 0.0, 0.5])


# ---------------------------------------------------------------------------
# metric fields


def _five_fibre_field():
    X = circle_net(4, 2 * math.pi)
    thetas = (0.0, 0.25, 0.5, 0.75, 1.0)
    return X, MetricField(X.labels, thetas, tuple((1.0 + t) * X.dist for t in thetas),
                          meta=dict(X.meta))


def test_fibres_are_validated_once_when_the_field_is_built(monkeypatch):
    X, fld = _five_fibre_field()
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return spaces.validate_metric(*args, **kwargs)

    monkeypatch.setattr(fields, "validate_metric", counted)
    rep = birkhoff_field(fld, rotation(X, 1), eps=0.2, r=2 * X.radius, n_max=20)
    assert len(rep.rates) == 5
    assert not calls
    for k in range(len(fld)):
        assert fld.fibre_space(k) is fld.fibre_space(k)
        assert fld.fibre_space(k).meta["theta"] == fld.thetas[k]
        assert fld.fibre_space(k).dist is fld.fibres[k]
    assert not calls


def test_invalid_fibre_is_rejected_when_the_field_is_built():
    X = interval_net(3, 1.0)
    bad = X.dist.copy()
    bad[0, 2] = bad[2, 0] = 5.0      # breaks the triangle inequality
    with pytest.raises(DomainError, match="triangle"):
        MetricField(X.labels, (0.0, 1.0), (X.dist, bad))
