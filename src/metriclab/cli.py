"""Command-line driver: scenario configs in, JSON/CSV/SVG reports out.

Exit codes: 0 success, 1 domain error (a module-level failure), 2
configuration error (bad flags, schema, missing files, a document that is
not a JSON object, a seed that is neither an integral number nor a string
of one, params that are not an object, a missing param or one its
conversion rejects (a count below 1 among them), a space document with a
missing or malformed key, an unknown generator or combiner among them).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import DomainError, as_integer, as_positive_integer
from .distances import dq_upper, fukaya_distance, gh_distance, intertwining_gap, simplex_net
from .dynamics import DynMap, birkhoff_rate, rotation, sine_pluck_map
from .fields import (WaveProfile, birkhoff_field, circle_wave_metric, lipschitz_envelope,
                     rotation_field, wave_metric_field)
from .lipgeom import _ranks, nucleus_net
from .markov import RandomMapFamily, ldp_experiment
from .selfcheck import run_checks
from .spaces import space_from_json
from .svg import emit_plot
from .transport import Coupling, Measure, _w1_solve, _w1_witness, wasserstein_inf

class ConfigError(Exception):
    pass


@dataclass
class Scenario:
    kind: str
    params: dict
    seed: int = 0
    out_dir: Path = Path(".")
    formats: tuple = ("json", "csv")


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, not {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown scenario kind {kind!r}; expected one of {KINDS}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"params must be a JSON object, not {type(params).__name__}")
    # an integral number, or a string of one
    seed = doc.get("seed", 0)
    try:
        seed = int(seed) if isinstance(seed, str) else as_integer(seed)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"seed must be an integer, not {doc['seed']!r}") from exc
    return Scenario(kind=kind, params=params, seed=seed)


def _json_default(o):
    if hasattr(o, "item"):
        return o.item()
    raise TypeError(f"not serializable: {type(o)}")


_CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, header, rows):
    """Write a CSV header and rows, every float as "%.12g", which equals
    format(v, ".12g"). Header and cells are quoted where CSV needs it, so a
    product space's tuple label is one field.

    A 2-D float64 array with columns is formatted once per distinct bit
    pattern (so -0.0, 0.0 and each NaN keep their own text), the patterns
    and each cell's code given by `lipgeom._ranks` of its bits: each
    pattern's text, ended by "," or, in the last column, by a newline, is a
    cell of a table, and each block of _CSV_BLOCK_ROWS rows is one join of
    the cells its codes pick. Any other rows (lists, tuples, zips, mixed
    str/int/float cells) go through csv.writer, a float pre-formatted as .12g.
    """
    with path.open("w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64
                and rows.shape[1]):
            patterns, codes = _ranks(rows.view(np.uint64))     # codes: (rows, columns)
            text = [format(v, ".12g") for v in patterns.view(np.float64).tolist()]
            cells = np.array([s + "," for s in text] + [s + "\n" for s in text], dtype=object)
            codes[:, -1] += len(text)
            for start in range(0, len(rows), _CSV_BLOCK_ROWS):
                fh.write("".join(cells[codes[start:start + _CSV_BLOCK_ROWS]].ravel().tolist()))
        else:
            writer.writerows([[f"{v:.12g}" if isinstance(v, float) else v for v in row]
                              for row in rows])


_REQUIRED = object()


def _param(params: dict, key: str, type_=None, default=_REQUIRED):
    """params[key], or default when the key is absent, passed through type_
    unless it is None. A missing required key, or a value that type_
    rejects, is a ConfigError that names the key."""
    if key in params:
        value = params[key]
    elif default is _REQUIRED:
        raise ConfigError(f"scenario is missing required key {key!r}")
    else:
        value = default
    if type_ is None:
        return value
    try:
        return type_(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"scenario key {key!r} has an invalid value {value!r}: {exc}") from exc


def _boolean(v):
    """v when it is JSON true or false."""
    if not isinstance(v, bool):
        raise TypeError(f"expected true or false, not {type(v).__name__}")
    return v


def _int_pair(v):
    a, b = v
    return as_integer(a), as_integer(b)


def _count(v):
    """v by `config.as_positive_integer`, whose DomainError is a ValueError
    here, so that `_param` names the key."""
    try:
        return as_positive_integer(v, "a count")
    except DomainError as exc:
        raise ValueError(str(exc)) from None


def _object(v):
    if not isinstance(v, dict):
        raise TypeError(f"expected a JSON object, not {type(v).__name__}")
    return v


def _list_of(item):
    """Conversion of a JSON list, item by item; a string or an object is not one."""
    def convert(v):
        if isinstance(v, (str, dict)):
            raise TypeError(f"expected a JSON list, not {type(v).__name__}")
        return [item(x) for x in v]
    return convert


# ---------------------------------------------------------------------------
# scenario handlers: each returns (report dict, extras) where extras maps a
# filename to its payload: (header, rows) for a .csv name, the text of a .svg

def _run_wasserstein(sc: Scenario):
    p = sc.params
    X = _param(p, "space", space_from_json)
    mu, nu = (Measure(X, _param(p, key, partial(np.asarray, dtype=float)))
              for key in ("mu", "nu"))
    # one moved-mass solve gives the plan and the dual witness
    value, P, sinks, col_pot = _w1_solve(mu, nu)
    dual, pot = _w1_witness(mu, nu, value, sinks, col_pot)
    winf = wasserstein_inf(mu, nu)
    report = {"w1": value, "w1_dual": dual, "w_inf": winf,
              "duality_gap": abs(value - dual)}
    extras = {
        "coupling.csv": (X.labels, Coupling(mu, nu, P).matrix),
        "potential.csv": (["point", "value"],
                          [[str(l), v] for l, v in zip(X.labels, pot.values)]),
    }
    return report, extras


def _run_gh(sc: Scenario):
    X = _param(sc.params, "space_x", space_from_json)
    Y = _param(sc.params, "space_y", space_from_json)
    value, kind = gh_distance(X, Y)
    return {"gh": value, "bound": kind}, {}


def _run_gap(sc: Scenario):
    p = sc.params
    X, Y = _param(p, "space_x", space_from_json), _param(p, "space_y", space_from_json)
    m = _param(p, "resolution", _count, 2)
    SX, SY = simplex_net(X, m), simplex_net(Y, m)
    gap = intertwining_gap(SX, SY)
    fuk = fukaya_distance(SX, SY)
    dq = dq_upper(SX, SY, gap.report.forward)
    report = {"gamma": gap.value, "fukaya": fuk.value, "dq_upper": dq,
              "flags": [] if gap.exhaustive else ["upper_bound"],
              "witness": {"forward": list(gap.report.forward),
                          "backward": list(gap.report.backward or ())}}
    return report, {}


def _run_nucleus(sc: Scenario):
    p = sc.params
    X, eps = _param(p, "space", space_from_json), _param(p, "eps", float)
    r = _param(p, "r", float, X.radius)
    nuc = nucleus_net(X, r, eps, seed=sc.seed)
    report = {"members": len(nuc), "density": nuc.density, "complete": nuc.complete,
              "r": r, "eps": nuc.target_eps}
    return report, {"nucleus.csv": (X.labels, nuc.values)}


def _build_dynamics(X, doc):
    if "deform" in doc:
        raise ConfigError("dynamics take no 'deform' clause: a deformation whose slope "
                          "is not 1 has no bijective model on a net; the rotation-field "
                          "scenario deforms rotations through their invariant measures")
    kind = doc.get("kind", "table")
    if kind == "rotation":
        return rotation(X, _param(doc, "steps", as_integer))
    if kind == "table":
        return DynMap(X, _param(doc, "map", _list_of(as_integer)))
    if kind == "analytic":
        if doc.get("family") != "sine_pluck":
            raise ConfigError("only the sine_pluck analytic family is available")
        return sine_pluck_map(X, _param(doc, "t", float))
    raise ConfigError(f"unknown dynamics kind {kind!r}")


def _run_birkhoff(sc: Scenario):
    p = sc.params
    X, dynamics = _param(p, "space", space_from_json), _param(p, "dynamics", _object)
    eps, n_max = _param(p, "eps", float), _param(p, "n_max", _count)
    nucleus_eps = _param(p, "nucleus_eps", float, 0.1)
    h = _build_dynamics(X, dynamics)
    nuc = nucleus_net(X, _param(p, "r", float, X.radius), nucleus_eps, seed=sc.seed)
    rep = birkhoff_rate(h, nuc, eps, n_max)
    report = {"rate": rep.rate, "resolved": rep.resolved, "eps": rep.epsilon,
              "n_max": rep.n_max, "nucleus_members": len(nuc)}
    curve = [(n + 1, float(d)) for n, d in enumerate(rep.curve)]
    extras = {"deviation.csv": (["n", "deviation"], curve),
              "deviation.svg": emit_plot(curve, "line", "ergodic average deviation",
                                         "n", "sup deviation")}
    return report, extras


def _run_ldp(sc: Scenario):
    p = sc.params
    X, map_docs = _param(p, "space", space_from_json), _param(p, "maps", _list_of(_object))
    eps, n_values = _param(p, "eps", float), _param(p, "n_values", _list_of(_count))
    nucleus_eps = _param(p, "nucleus_eps", float, 0.2)
    samples = _param(p, "nucleus_samples", _count, 256)
    trials = _param(p, "trials", _count, 10_000)
    maps = tuple(_build_dynamics(X, doc) for doc in map_docs)
    if not maps:
        raise ConfigError("scenario key 'maps' lists no map")
    probs = _param(p, "probabilities", partial(np.asarray, dtype=float),
                   [1.0 / len(maps)] * len(maps))
    fam = RandomMapFamily(maps, probs)
    nuc = nucleus_net(X, _param(p, "r", float, X.radius), nucleus_eps, seed=sc.seed,
                      sample_budget=samples)
    rep = ldp_experiment(fam, nuc, eps, n_values, trials, seed=sc.seed)
    report = {"eps": rep.eps, "n_values": list(rep.n_values),
              "probabilities": list(rep.probabilities), "c1": rep.c1, "c2": rep.c2,
              "fit_quality": rep.fit_quality, "trials": rep.trials,
              "rng": rep.rng_version, "start_net": list(rep.start_net)}
    curve = rep.curve_rows()
    fitted = None
    if math.isfinite(rep.c2):
        fitted = [(n, rep.c1 * math.exp(-rep.c2 * n * rep.eps ** 2)) for n, _ in curve]
    extras = {"ldp.csv": (["n", "probability"], curve),
              "ldp.svg": emit_plot(curve, "semilog", "deviation probability", "n", "p",
                                   fitted=fitted, legend=f"c1={rep.c1:.3g} c2={rep.c2:.3g}")}
    return report, extras


def _run_wave_field(sc: Scenario):
    p = sc.params
    n_points = _param(p, "n_points", _count, 17)
    profile = (WaveProfile(_param(p, "modes", _list_of(float)), _param(p, "speed", float, 1.0),
                           _param(p, "length", float, math.pi))
               if "modes" in p else
               WaveProfile.triangular_pluck(_param(p, "amplitude", float, 0.3)))
    ts = _param(p, "t_grid", _list_of(float), [i * profile.period / 8.0 for i in range(9)])
    circle = _param(p, "circle", _boolean, False)
    birkhoff_eps = _param(p, "birkhoff_eps", float) if "birkhoff_eps" in p else None
    fld = wave_metric_field(profile, ts, n_points)
    if circle:
        fld = circle_wave_metric(fld)
    env = lipschitz_envelope(fld)
    report = {"thetas": list(fld.thetas), "points": len(fld.labels),
              "quadrature_error": fld.meta.get("quadrature_error"),
              "m": [float(v) for v in env.m], "M": [float(v) for v in env.M]}
    extras = {f"fibre_{k}.csv": (fld.labels, fld.fibres[k]) for k in range(len(fld.thetas))}
    extras["envelope.csv"] = (["theta", "m", "M"], zip(fld.thetas, env.m, env.M))
    if birkhoff_eps is not None:
        # per-fibre rates of the turn by the least step k > 1 prime to the label count
        n = len(fld.labels)
        step = next((k for k in range(2, n) if math.gcd(k, n) == 1), None)
        if step is None:
            raise DomainError(f"no rotation step k > 1 is prime to {n} points")
        h = DynMap(fld.fibre_space(0), (np.arange(n) + step) % n)
        rep = birkhoff_field(fld, h, birkhoff_eps, max(0.5 * F.max() for F in fld.fibres),
                             12 * n, sample_budget=128, probe_count=16, seed=sc.seed)
        report.update(birkhoff_rates=list(rep.rates), usc_flags=list(rep.usc_flags))
        extras["wave_field.csv"] = (["t", "m", "M", "birkhoff_rate"],
                                    [[f"{t:.6g}", m, M, str(rate)] for t, m, M, rate
                                     in zip(fld.thetas, env.m, env.M, rep.rates)])
    return report, extras


def _run_rotation_field(sc: Scenario):
    p = sc.params
    pnum, qnum = _param(p, "theta", _int_pair)
    t_grid, net_size = _param(p, "t_grid", _list_of(float)), _param(p, "net_size", _count)
    rep = rotation_field(pnum, qnum, t_grid, net_size,
                         resolution=_param(p, "resolution", _count, 1))
    report = {"theta": [pnum, qnum], "t_grid": list(rep.t_grid),
              "net_size": rep.net_size,
              "extremes_per_fibre": list(rep.extremes_per_fibre)}
    header = ["t\\s"] + [f"{t:g}" for t in rep.t_grid]
    extras = {f"{name}.csv": (header, [[f"{t:g}", *row] for t, row in zip(rep.t_grid, table)])
              for name, table in (("dhat", rep.dhat), ("gamma", rep.gamma))}
    return report, extras


def _run_check(sc: Scenario):
    results = run_checks(sc.seed)
    ok = all(r.ok for r in results)
    report = {"passed": ok,
              "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]}
    if not ok:
        raise DomainError("self-check failed: " +
                          ", ".join(r.name for r in results if not r.ok))
    return report, {}


_HANDLERS = {
    "wasserstein": _run_wasserstein,
    "gh": _run_gh,
    "gap": _run_gap,
    "nucleus": _run_nucleus,
    "birkhoff": _run_birkhoff,
    "ldp": _run_ldp,
    "wave-field": _run_wave_field,
    "rotation-field": _run_rotation_field,
    "check": _run_check,
}
KINDS = tuple(_HANDLERS)


def run(scenario: Scenario) -> int:
    """Execute one scenario and write its artifacts. Returns the exit code."""
    out = Path(scenario.out_dir)
    try:
        report, extras = _HANDLERS[scenario.kind](scenario)
    except DomainError as exc:
        report = {"error": str(exc), "kind": scenario.kind, "version": __version__}
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=2, default=_json_default) + "\n")
        return 1
    out.mkdir(parents=True, exist_ok=True)
    report = {"kind": scenario.kind, "seed": scenario.seed,
              "version": __version__, **report}
    if "json" in scenario.formats:
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n")
    for name, payload in extras.items():
        fmt = Path(name).suffix[1:]
        if fmt not in scenario.formats:
            continue
        if fmt == "csv":
            _write_csv(out / name, *payload)
        else:
            (out / name).write_text(payload)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="metriclab",
                                     description="metric-space experiment runner")
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--format", action="append", choices=("json", "csv", "svg"),
                        help="output formats (repeatable; default json+csv)")
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        scenario.out_dir = Path(args.out)
        if args.seed is not None:
            scenario.seed = args.seed
        if args.format:
            scenario.formats = tuple(dict.fromkeys(args.format))
        return run(scenario)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
