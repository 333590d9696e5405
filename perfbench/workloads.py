"""The benchmark's three workloads: seeded inputs, timed operations, checks.

A workload builds a fixed list of operations from its seed. The runner
repeats that list in whole rounds, times every call, and checks each
operation's first output against the references in `reference.py` or a
property the method must have; later repeats must reproduce it exactly.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

import metriclab
from metriclab import cli, distances, dynamics, transport

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scripts" / "scenarios"
OWN_SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"

ATOL = 1e-9


@dataclass
class Op:
    """One timed call. `run(latest)` may read the current round's outputs of
    earlier operations; `output` turns the raw return value into the output
    that is compared and checked, outside the timed region; `check(out,
    first)` returns a list of problems, given every operation's first output."""

    id: str
    cls: str
    run: Callable
    check: Callable
    output: Callable | None = None
    after: str | None = None   # id of an operation whose output `run` reads


def _random_space(rng, n):
    """Random planar points with every distance bumped by 0.05, so that no
    two points nearly coincide."""
    pts = rng.uniform(0.0, 4.0, size=(n, 2))
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    D += 0.05 * (1.0 - np.eye(n))
    return metriclab.validate_metric(D), D


def _random_weights(rng, n):
    w = rng.uniform(0.01, 1.0, size=n)
    return w / w.sum()


def _problems(*pairs):
    return [msg for ok, msg in pairs if not ok]


# ---------------------------------------------------------------------------
# transport-ladder

def _check_plan(value, plan, wa, wb, D):
    P = plan.matrix
    return _problems(
        (P.min() >= -ATOL, "coupling has a negative entry"),
        (np.abs(P.sum(axis=1) - wa).max() <= ATOL, "coupling rows miss the source marginal"),
        (np.abs(P.sum(axis=0) - wb).max() <= ATOL, "coupling columns miss the target marginal"),
        (abs(float((P * D).sum()) - value) <= ATOL, "coupling cost differs from the value"))


def _w1_op(op_id, cls, mu, nu, D, closed_form=None):
    def check(out, first):
        value, plan = out
        found = _check_plan(value, plan, mu.weights, nu.weights, D)
        if closed_form is not None and abs(value - closed_form) > ATOL:
            found.append(f"W1 {value!r} differs from the closed form {closed_form!r}")
        return found
    return Op(op_id, cls, lambda latest: transport.wasserstein1(mu, nu), check)


def _winf_op(op_id, cls, mu, nu, D, w1_closed_form=None, closed_form=None):
    def check(out, first):
        w1 = (w1_closed_form if w1_closed_form is not None
              else transport.wasserstein1(mu, nu)[0])
        found = _problems((w1 <= out + ATOL, f"W1 {w1!r} exceeds W-inf {out!r}"),
                          (out <= D.max() + ATOL, "W-inf exceeds the diameter"))
        if closed_form is not None and abs(out - closed_form) > ATOL:
            found.append(f"W-inf {out!r} differs from the quantile form {closed_form!r}")
        return found
    return Op(op_id, cls, lambda latest: transport.wasserstein_inf(mu, nu), check)


def _dual_op(op_id, cls, mu, nu, D):
    def check(out, first):
        value, potential = out
        primal = transport.wasserstein1(mu, nu)[0]
        f = potential.values
        return _problems(
            (abs(value - primal) <= 1e-7, f"dual {value!r} is not within 1e-7 of W1 {primal!r}"),
            ((np.abs(f[:, None] - f[None, :]) - D).max() <= ATOL, "potential is not 1-Lipschitz"))
    return Op(op_id, cls, lambda latest: transport.wasserstein1_dual(mu, nu), check)


def ladder_ops(seed: int, size: dict) -> list[Op]:
    """Transport queries on a size ladder of random planar spaces, plus
    interval and circle nets where closed forms exist."""
    rng = np.random.default_rng([seed, 1])
    ops = []

    def planar_pairs(cls, n, count, make):
        for k in range(count):
            X, D = _random_space(rng, n)
            mu = transport.Measure(X, _random_weights(rng, n))
            nu = transport.Measure(X, _random_weights(rng, n))
            ops.append(make(f"{cls}:{k}", cls, mu, nu, D))

    planar_pairs("w1_n16", 16, size.get("w1_n16", 0), _w1_op)
    planar_pairs("w1_n32", 32, size.get("w1_n32", 0), _w1_op)
    planar_pairs("w1_n64", 64, size.get("w1_n64", 0), _w1_op)
    planar_pairs("winf_n24", 24, size.get("winf_n24", 0), _winf_op)
    planar_pairs("w1_dual_n32", 32, size.get("w1_dual_n32", 0), _dual_op)

    for k in range(size.get("line", 0)):
        n = 24
        length = float(rng.uniform(0.5, 3.0))
        X = metriclab.interval_net(n, length)
        xs = np.linspace(0.0, length, n)
        wa, wb = _random_weights(rng, n), _random_weights(rng, n)
        mu, nu = transport.Measure(X, wa), transport.Measure(X, wb)
        D = np.abs(xs[:, None] - xs[None, :])
        w1 = reference.interval_w1(xs, wa, wb)
        ops.append(_w1_op(f"w1_interval:{k}", "w1_interval", mu, nu, D, closed_form=w1))
        # W-inf on a coarser interval keeps its cost near the planar W-inf ladder rung
        m = 12
        X = metriclab.interval_net(m, length)
        xs = np.linspace(0.0, length, m)
        wa, wb = _random_weights(rng, m), _random_weights(rng, m)
        ops.append(_winf_op(f"winf_interval:{k}", "winf_interval",
                            transport.Measure(X, wa), transport.Measure(X, wb),
                            np.abs(xs[:, None] - xs[None, :]),
                            w1_closed_form=reference.interval_w1(xs, wa, wb),
                            closed_form=reference.interval_winf(xs, wa, wb)))
        L = float(rng.uniform(1.0, 8.0))
        X = metriclab.circle_net(n, L)
        pos = np.arange(n) * (L / n)
        hops = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        D = np.minimum(hops, n - hops) * (L / n)
        wa, wb = _random_weights(rng, n), _random_weights(rng, n)
        ops.append(_w1_op(f"w1_circle:{k}", "w1_circle", transport.Measure(X, wa),
                          transport.Measure(X, wb), D,
                          closed_form=reference.circle_w1(pos, wa, wb, L)))
    return ops


# ---------------------------------------------------------------------------
# simplex-search

def simplex_ops(seed: int, size: dict) -> list[Op]:
    """Exhaustive comparisons of measure simplices (acceptance criterion 5
    shape), GH distances and egh distances between circle rotations."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for n, m in ((3, 2), (4, 1)):
        count = size.get(f"nets_n{n}", 0)
        nets = [distances.simplex_net(_random_space(rng, n)[0], m) for _ in range(count)]
        ops.extend(_net_ops(n, nets))

    for k in range(size.get("gh_n4", 0)):
        (X, DX), (Y, DY) = _random_space(rng, 4), _random_space(rng, 4)
        ops.append(_gh_op(f"gh_n4:{k}", "gh_n4", X, Y, DX, DY, exact=True))
    for k in range(size.get("gh_upper", 0)):
        nx, ny = (int(v) for v in rng.integers(6, 9, size=2))
        (X, DX), (Y, DY) = _random_space(rng, nx), _random_space(rng, ny)
        ops.append(_gh_op(f"gh_upper:{k}", "gh_upper", X, Y, DX, DY, exact=False))

    for k in range(size.get("egh_pairs", 0)):
        A = _rotation_action(rng)
        B = _rotation_action(rng)
        base = f"egh_n5:{k}"
        for tag, (a, b, partner) in {"ab": (A, B, "ba"), "ba": (B, A, "ab"),
                                     "aa": (A, A, None)}.items():
            ops.append(_egh_op(f"{base}{tag}", a, b, partner and f"{base}{partner}"))
    return ops


def _rotation_action(rng):
    """A rotation of a 5-point circle of random circumference, acting through
    its powers -1, 0 and 1."""
    X = metriclab.circle_net(5, float(rng.uniform(4.0, 8.0)))
    return tuple(dynamics.z_action_window(dynamics.rotation(X, int(rng.integers(1, 5))), 1))


def _egh_op(op_id, a, b, partner):
    """egh(a, b); `partner` is the id of egh(b, a), None when a is b."""
    def check(out, first):
        found = _problems((out.exhaustive, "egh search was not exhaustive"))
        if partner is None and out.value != 0.0:
            found.append(f"egh of an action with itself is {out.value!r}")
        if partner is not None and first[partner].value != out.value:
            found.append("egh is not symmetric in its arguments")
        return found
    return Op(op_id, "egh_n5", lambda latest: dynamics.egh_distance(a, b), check)


def _gh_op(op_id, cls, X, Y, DX, DY, exact):
    lower = 0.5 * abs(DX.max() - DY.max())
    upper = 0.5 * max(DX.max(), DY.max())

    def check(out, first):
        value, kind = out
        found = _problems(
            (lower - ATOL <= value <= upper + ATOL,
             f"GH {value!r} is outside [{lower!r}, {upper!r}]"),
            (kind == ("exact" if exact else "upper"), f"GH search reported {kind!r}"))
        if exact:
            expect = reference.gh_map_pairs(DX, DY)
            if abs(value - expect) > ATOL:
                found.append(f"GH {value!r} differs from the enumerator {expect!r}")
        return found
    return Op(op_id, cls, lambda latest: distances.gh_distance(X, Y), check)


def _net_ops(n, nets):
    """Gap for every pair, then fukaya and dq_upper for the outer pair of
    every triple; checks: exhaustive searches, fukaya <= gap <= 2 dq_upper +
    2 density, gap <= 2 max diameter, and the quasimetric inequality with
    constant 2 in every orientation of every triple."""
    ops = []
    gid = {}
    for i, j in itertools.combinations(range(len(nets)), 2):
        gid[i, j] = gid[j, i] = f"gap_n{n}:{i}-{j}"
        diam = max(nets[i].boundary.diameter, nets[j].boundary.diameter)

        def check_gap(out, first, diam=diam):
            return _problems((out.exhaustive, "gap search was not exhaustive"),
                             (out.value <= 2.0 * diam + ATOL, "gap exceeds 2 * max diameter"))
        ops.append(Op(gid[i, j], f"gap_n{n}",
                      lambda latest, i=i, j=j: distances.intertwining_gap(nets[i], nets[j]),
                      check_gap))

    for a, b, c in itertools.combinations(range(len(nets)), 3):
        dens = max(nets[a].density, nets[b].density, nets[c].density)
        trip = f"{a}-{b}-{c}"

        def check_triple(out, first, a=a, b=b, c=c, dens=dens):
            gap = {k: first[gid[k]].value for k in ((a, b), (b, c), (a, c))}
            g = lambda x, y: gap.get((x, y), gap.get((y, x)))
            found = []
            for x, y, z in itertools.permutations((a, b, c)):
                if g(x, z) > 2.0 * (g(x, y) + g(y, z)) + 2.0 * dens + ATOL:
                    found.append(f"quasimetric inequality fails for {x}-{y}-{z}")
            found += _problems((out.exhaustive, "fukaya search was not exhaustive"),
                               (out.value <= g(a, c) + ATOL, "fukaya exceeds the gap"))
            return found
        ops.append(Op(f"fukaya_n{n}:{trip}", f"fukaya_n{n}",
                      lambda latest, a=a, c=c: distances.fukaya_distance(nets[a], nets[c]),
                      check_triple))

        dens_ac = max(nets[a].density, nets[c].density)

        def check_dq(out, first, a=a, c=c, dens_ac=dens_ac):
            gap = first[gid[a, c]].value
            return _problems((gap <= 2.0 * out + 2.0 * dens_ac + ATOL,
                              f"gap {gap!r} exceeds 2 dq_upper + 2 density"))
        ops.append(Op(f"dq_n{n}:{trip}", f"dq_n{n}",
                      lambda latest, a=a, c=c: distances.dq_upper(
                          nets[a], nets[c], latest[gid[a, c]].report.forward),
                      check_dq, after=gid[a, c]))
    return ops


# ---------------------------------------------------------------------------
# scenarios

SCENARIOS = ("wasserstein", "check", "birkhoff", "rotation_field", "ldp", "nucleus")


def scenario_ops(seed: int, size: dict, out_dir: Path) -> list[Op]:
    """The shipped CLI scenarios and the benchmark's own complete-nucleus
    scenario, each run `size[name]` times per round through
    `metriclab.cli.main` with every output format. The seed seeds the
    `check` battery; the order is fixed, because the peak memory of the
    process depends on it."""
    check_seed = int(np.random.default_rng([seed, 3]).integers(0, 2 ** 31))
    runs = itertools.count()
    ops = []
    for name in SCENARIOS:
        config = (OWN_SCENARIO_DIR if name == "nucleus" else SCENARIO_DIR) / f"{name}.json"
        argv = ["--config", str(config), "--format", "json", "--format", "csv",
                "--format", "svg"]
        if name == "check":
            argv += ["--seed", str(check_seed)]

        def run(latest, name=name, argv=argv):
            out = out_dir / f"{name}-{next(runs)}"
            return cli.main(argv + ["--out", str(out)]), out

        for k in range(size.get(name, 0)):
            ops.append(Op(f"{name}_s:{k}", f"{name}_s", run, _SCENARIO_CHECKS[name],
                          output=_collect))
    return ops


def _collect(raw):
    rc, out = raw
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    shutil.rmtree(out)
    return rc, files


def _report(out):
    return json.loads(out[1]["report.json"])


def _csv(out, name):
    lines = out[1][name].decode().strip().splitlines()
    return [line.split(",") for line in lines]


def _check_wasserstein(out, first):
    rep = _report(out)
    return _problems((out[0] == 0, f"exit code {out[0]}"),
                     (abs(rep["w1"] - 7 * math.pi / 8) <= ATOL, f"w1 {rep['w1']!r} is not 7 pi / 8"),
                     (abs(rep["w_inf"] - math.pi) <= ATOL, f"w_inf {rep['w_inf']!r} is not pi"))


def _check_check(out, first):
    return _problems((out[0] == 0, f"exit code {out[0]}"),
                     (_report(out).get("passed") is True, "self-check did not pass"))


def _check_birkhoff(out, first):
    rep = _report(out)
    curve = [(int(n), float(d)) for n, d in _csv(out, "deviation.csv")[1:]]
    above = [n for n, d in curve if d > rep["eps"]]
    return _problems(
        (out[0] == 0, f"exit code {out[0]}"),
        (all(d <= 1e-12 for n, d in curve if n % 8 == 0), "deviation on a full orbit exceeds 1e-12"),
        (rep["rate"] == (above[-1] + 1 if above else 1), f"rate {rep['rate']} does not follow the curve"),
        ("deviation.svg" in out[1], "no SVG written"))


def _check_ldp(out, first):
    rep = _report(out)
    probs = np.asarray(rep["probabilities"])
    bands = 3.0 * np.sqrt(np.maximum(probs * (1 - probs), 1e-6) / rep["trials"])
    return _problems(
        (out[0] == 0, f"exit code {out[0]}"),
        (bool((np.diff(probs) <= bands[:-1] + bands[1:]).all()), "probabilities rise beyond 3 sigma"),
        (rep["c2"] > 0, f"decay constant c2 = {rep['c2']!r} is not positive"),
        (rep["fit_quality"] >= 0.9, f"fit quality {rep['fit_quality']!r} < 0.9"),
        ("ldp.svg" in out[1], "no SVG written"))


def _check_rotation_field(out, first):
    found = _problems((out[0] == 0, f"exit code {out[0]}"),
                      (_report(out)["extremes_per_fibre"] == [8] * 9, "not 8 extremes per fibre"))
    for name in ("dhat.csv", "gamma.csv"):
        M = np.asarray([[float(v) for v in row[1:]] for row in _csv(out, name)[1:]])
        if not np.array_equal(M, M.T):
            found.append(f"{name} is not symmetric")
        if np.abs(np.diag(M)).max() != 0.0:
            found.append(f"{name} has a nonzero diagonal")
        for i in range(len(M)):
            left, right = M[i, :i + 1][::-1], M[i, i:]
            if (np.diff(left) < -1e-12).any() or (np.diff(right) < -1e-12).any():
                found.append(f"{name} row {i} is not monotone away from the diagonal")
    return found


def _check_nucleus(out, first):
    rep = _report(out)
    scenario = json.loads((OWN_SCENARIO_DIR / "nucleus.json").read_text())["params"]["space"]["params"]
    n, L = scenario["n"], scenario["circumference"]
    hops = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    D = np.minimum(hops, n - hops) * (L / n)
    net = np.asarray([[float(v) for v in row] for row in _csv(out, "nucleus.csv")[1:]])
    r = rep["r"]
    lip = (np.abs(net[:, :, None] - net[:, None, :]) - D[None, :, :]).max()
    probes = reference.polytope_members(D, r, 256, np.random.default_rng(7))
    reach = reference.sup_distance_to_net(probes, net).max()
    return _problems(
        (out[0] == 0, f"exit code {out[0]}"),
        (rep["complete"] is True, "nucleus net is not complete"),
        (len(net) == rep["members"], "nucleus.csv and the report disagree on the member count"),
        (np.abs(net).max() <= r + ATOL, "a member exceeds the bound r"),
        (lip <= ATOL, "a member is not 1-Lipschitz"),
        (reach <= rep["density"] + ATOL,
         f"a polytope probe lies {reach!r} from the net, beyond the density {rep['density']!r}"))


_SCENARIO_CHECKS = {
    "wasserstein": _check_wasserstein, "check": _check_check, "birkhoff": _check_birkhoff,
    "rotation_field": _check_rotation_field, "ldp": _check_ldp, "nucleus": _check_nucleus,
}


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class Workload:
    """`size` sets the operation counts of the workload's own run; `guest`
    the fixed-input operations every other workload interleaves into its
    rounds, and `tail` those it runs once after them, so that every run
    reports every end-to-end metric."""

    name: str
    build: Callable            # (seed, size, out_dir) -> list[Op]
    size: dict
    guest: dict
    tail: dict
    metrics: dict              # end-to-end metric -> operation class (ms or s)


WORKLOADS = {
    "transport-ladder": Workload(
        "transport-ladder", lambda seed, size, out_dir: ladder_ops(seed, size),
        size={"w1_n16": 39, "w1_n32": 8, "w1_n64": 39, "winf_n24": 10,
              "w1_dual_n32": 16, "line": 4},
        guest={"w1_n16": 20, "w1_n64": 8, "winf_n24": 3, "w1_dual_n32": 8}, tail={},
        metrics={"w1_n16_ms": "w1_n16", "w1_n64_ms": "w1_n64", "winf_n24_ms": "winf_n24",
                 "w1_dual_n32_ms": "w1_dual_n32"}),
    "simplex-search": Workload(
        "simplex-search", lambda seed, size, out_dir: simplex_ops(seed, size),
        size={"nets_n3": 4, "nets_n4": 4, "gh_n4": 8, "gh_upper": 4, "egh_pairs": 1},
        guest={"nets_n4": 3, "gh_n4": 8, "egh_pairs": 1}, tail={},
        metrics={"gap_ms": "gap_n4", "gh_ms": "gh_n4", "egh_ms": "egh_n5"}),
    "scenarios": Workload(
        "scenarios", scenario_ops,
        size={"wasserstein": 1, "check": 1, "birkhoff": 2, "rotation_field": 2,
              "nucleus": 2, "ldp": 1},
        guest={"check": 1, "birkhoff": 1, "rotation_field": 1, "nucleus": 1},
        tail={"ldp": 1},
        metrics={"ldp_s": "ldp_s", "rotation_field_s": "rotation_field_s",
                 "birkhoff_s": "birkhoff_s", "nucleus_s": "nucleus_s"}),
}


def same(a, b) -> bool:
    """Exact equality of two outputs, through containers, dataclasses and arrays."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b
