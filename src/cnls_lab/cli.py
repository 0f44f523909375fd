"""Batch front end: one command, one config file, one output directory.

Configuration is a flat INI file (section / key = value); the command name
and the config path are the only positional arguments. Every run writes a
manifest.txt echoing the fully resolved configuration it actually used, in
a form that can be fed back through --config to reproduce the run. With a
fixed config and seed all outputs are byte identical.

Exit codes: 0 success, 2 numerical failure, 3 invalid configuration,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audit import identity_audit
from .core import FieldPair, Grid, SystemParams, _cell, _check_number, _csv, default_half_width
from .dynamics import EvolveConfig, _check_hold, evolve
from .errors import (
    BoundaryDecayError,
    ConstraintError,
    ConvergenceError,
    GridMismatchError,
    SupportError,
)
from .functionals import FunctionalReport, boundary_amplitude_ratio, pohozaev_check
from .minimize import _KINDS, ConstraintSpec, ground_state, minimize_on
from .profiles import Family, make_member
from .snapshots import load_snapshot, save_snapshot
from .stability import _PERTURB_MODES, blowup_experiment, perturbation_pair, stability_sweep

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3
EXIT_IO = 4

_COMMON_DEFAULTS = {
    "params": {"p": "2.0", "beta": "0.0", "omega1": "1.0", "omega2": "1.0"},
    # an empty half_width is resolved to core.default_half_width(omega1, omega2)
    "grid": {"dim": "1", "points": "1024", "half_width": ""},
    # the commands that read a seed take its key from _FEEDS
    "run": {"out": ""},
}

# the keys whose callee has no default of its own; the [constraint] size
# keys are the ConstraintSpec fields, and each kind reads those its factory
# takes
_COMMAND_DEFAULTS = {
    "minimize": {"constraint": {f.name: "" for f in dataclasses.fields(ConstraintSpec)} | {"kind": "nehari"}},
    "evolve": {"evolve": {"initial": "member:scalar_first", "dt": "1e-3", "t_end": "10.0", "eps": "0.0"}},
    "profile": {"profile": {"family": "scalar_first"}},
}

# Each INI key that feeds a library keyword, as (command, section, key,
# callee, parameter): the key's default is the parameter's default, and its
# value is read as the type of that default.
_FEEDS = [
    *((command, "minimize", key, callee, key)
      for command, callee in (("ground", ground_state), ("minimize", minimize_on))
      for key in ("tol", "max_iter")),
    ("evolve", "evolve", "snapshot_stride", EvolveConfig, "snapshot_stride"),
    ("evolve", "evolve", "conservation_stride", EvolveConfig, "conservation_check_stride"),
    ("evolve", "evolve", "guard", EvolveConfig, "blowup_guard"),
    ("evolve", "evolve", "perturb_mode", perturbation_pair, "mode"),
    *(("sweep", "sweep", key, stability_sweep, key)
      for key in ("family", "epsilons", "dt", "t_end", "sample_dt", "perturb_mode",
                  "excursion_ratio", "zero_orbit_tol")),
    ("sweep", "sweep", "flow_tol", stability_sweep, "tol"),
    *(("blowup", "blowup", key, blowup_experiment, key)
      for key in ("family", "factor", "dt", "t_max", "guard_ratio", "window_fraction", "margin")),
    ("blowup", "blowup", "flow_tol", blowup_experiment, "tol"),
    *(("audit", "audit", key, identity_audit, key) for key in ("tol", "gamma_factors", "flow_tol")),
    *(("profile", "profile", key, make_member, key) for key in ("theta1", "theta2", "shift")),
    # an evolve run's initial ground state shares the perturbation's seed
    *((command, "run", "seed", callee, "seed")
      for command, callee in (("ground", ground_state), ("minimize", minimize_on),
                              ("evolve", perturbation_pair), ("evolve", ground_state),
                              ("sweep", stability_sweep), ("blowup", blowup_experiment),
                              ("audit", identity_audit))),
]


# ---------------------------------------------------------------------------
# configuration


def _default(callee, name: str):
    return inspect.signature(callee).parameters[name].default


def _spelled(value) -> str:
    """A default as the INI value that _read reads back exactly."""
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _read(cfg, section: str, key: str, kind: type):
    """[section] key as a kind: float, int, str, tuple (a comma-separated
    float list) or NoneType (empty means None, else a float list)."""
    raw = cfg.get(section, key)
    try:
        if kind is type(None) and not raw:
            return None
        if kind in (tuple, type(None)):
            return _float_list(raw)
        return kind(raw)
    except ValueError as exc:
        raise ValueError(f"[{section}] {key}: {exc}") from None


def _float_list(raw: str) -> tuple:
    vals = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if not vals:
        raise ValueError(f"expected a comma-separated float list, got {raw!r}")
    return vals


def _defaults_for(command: str) -> dict:
    merged = {sec: dict(keys) for sec, keys in _COMMON_DEFAULTS.items()}
    for sec, keys in _COMMAND_DEFAULTS.get(command, {}).items():
        merged.setdefault(sec, {}).update(keys)
    for cmd, sec, key, callee, name in _FEEDS:
        if cmd == command:
            merged.setdefault(sec, {})[key] = _spelled(_default(callee, name))
    return merged


def _keywords(cfg, command: str) -> dict:
    """The library keywords that command's keys feed, by callee name."""
    kw = {}
    for cmd, sec, key, callee, name in _FEEDS:
        if cmd == command:
            kw.setdefault(callee.__name__, {})[name] = _read(cfg, sec, key, type(_default(callee, name)))
    return kw


def resolve_config(command: str, config_path, overrides) -> configparser.ConfigParser:
    """Defaults, then the config file, then CLI flag overrides. Unknown
    sections or keys are rejected so that typos cannot silently fall back
    to defaults."""
    defaults = _defaults_for(command)
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read_dict(defaults)

    if config_path is not None:
        user = configparser.ConfigParser(interpolation=None)
        with open(config_path, "r", encoding="utf-8") as fh:
            user.read_file(fh)
        for sec in user.sections():
            if sec not in defaults:
                raise ValueError(
                    f"unknown config section [{sec}] for command {command!r}"
                )
            for key, value in user.items(sec):
                if key not in defaults[sec]:
                    raise ValueError(f"unknown config key [{sec}] {key}")
                cfg.set(sec, key, value)

    if overrides.seed is not None:
        if not cfg.has_option("run", "seed"):
            raise ValueError(f"command {command!r} reads no seed")
        cfg.set("run", "seed", str(overrides.seed))
    if overrides.out is not None:
        cfg.set("run", "out", overrides.out)
    if not cfg.get("run", "out"):
        cfg.set("run", "out", f"{command}_out")
    if not cfg.get("grid", "half_width"):
        omegas = (_read(cfg, "params", key, float) for key in ("omega1", "omega2"))
        # omegas that SystemParams refuses give a nan or inf width here
        with np.errstate(divide="ignore", invalid="ignore"):
            cfg.set("grid", "half_width", repr(float(default_half_width(*omegas))))
    return cfg


def write_manifest(cfg: configparser.ConfigParser, command: str, out: Path) -> None:
    lines = [f"# cnls-lab {__version__}", f"# command: {command}"]
    for sec in sorted(cfg.sections()):
        lines.append("")
        lines.append(f"[{sec}]")
        for key in sorted(cfg.options(sec)):
            lines.append(f"{key} = {cfg.get(sec, key)}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _params(cfg) -> SystemParams:
    return SystemParams(*(_read(cfg, "params", key, float) for key in ("p", "beta", "omega1", "omega2")))


def _grid(cfg) -> Grid:
    return Grid(_read(cfg, "grid", "dim", int), _read(cfg, "grid", "points", int),
                _read(cfg, "grid", "half_width", float))


def _result_files(res, params, snapshot: str, pinned: bool = False, **extra) -> dict:
    """result.json, the minimizer's snapshot and pohozaev.csv of a flow."""
    # a pinned component has no multiplier: null, not NaN
    multipliers = [None if pinned and i == 1 else m for i, m in enumerate(res.multipliers)]
    payload = {
        "value": res.value,
        "action": res.action,
        "energy": res.energy,
        "multipliers": multipliers,
        "iterations": res.iterations,
        "residual": res.residual,
        "constraint_residual": res.constraint_residual,
        "classification": res.classification,
        **extra,
    }
    pc = pohozaev_check(res.minimizer, params, res.action)
    pohozaev = (pc.residual_gradient, pc.residual_coupling, pc.residual_mass, pc.m_positive, pc.ok)
    return {
        "result.json": payload,
        snapshot: res.minimizer,
        "pohozaev.csv": ("residual_gradient,residual_coupling,residual_mass,m_positive,ok", [pohozaev]),
    }


# ---------------------------------------------------------------------------
# output

# The non-finite numbers that mean something, by file and column, each with
# a test of the number and its row (column -> value); any other non-finite
# number is a numerical failure. A JSON number that passes is written null.
_ALLOWED = {
    # the field has reached the box edge, so its variance is undefined
    ("trajectory.csv", "variance"): lambda v, row: np.isnan(v),
    ("series.csv", "variance"): lambda v, row: np.isnan(v),
    # a collapsed run has no excursion ratio
    ("verdict.csv", "max_excursion"): lambda v, row: v == np.inf and row["classification"] == "blow_up",
    # no relative residual against a level that is not positive
    **{
        ("pohozaev.csv", column): lambda v, row: v == np.inf and not row["m_positive"]
        for column in ("residual_gradient", "residual_coupling", "residual_mass")
    },
    # fewer than three finite variance samples in the window
    ("report.json", "max_second_derivative"): lambda v, row: np.isnan(v),
}


def _nonfinite(x) -> bool:
    return isinstance(x, float) and not np.isfinite(x)


def _unexcused(name: str, content) -> list:
    """The columns of file `name`, a JSON payload (dict) or a CSV table
    (header, rows), with a non-finite number that no allowance covers."""
    if isinstance(content, dict):
        columns, rows = sorted(content), [[content[k] for k in sorted(content)]]
    else:
        columns, rows = content[0].split(","), content[1]
    bad = set()
    for row in rows:
        cells = dict(zip(columns, row))
        for column, value in cells.items():
            allowed = _ALLOWED.get((name, column), lambda v, row: False)
            numbers = value if isinstance(value, list) else [value]
            if any(_nonfinite(x) and not allowed(x, cells) for x in numbers):
                bad.add(column)
    return [c for c in columns if c in bad]


def _emit(out: Path, params, files: dict, *, summary=(), note="", failure="") -> int:
    """Write one command's files under out: all of them, or none when a
    JSON payload (dict) or CSV table (header, rows) holds a non-finite
    number that _ALLOWED does not cover (exit 2). A FieldPair is written as
    a snapshot. summary ("key = value" pairs or plain lines) goes to
    summary.txt and stdout, note to stdout only. A failure the run already
    met skips the check: every file is written as its record, and exit 2."""
    for name, content in () if failure else files.items():
        bad = [] if isinstance(content, FieldPair) else _unexcused(name, content)
        if bad:
            print(f"numerical failure: non-finite {', '.join(bad)} in {name}", file=sys.stderr)
            return EXIT_NUMERICAL
    for name, content in files.items():
        path = out / name
        path.parent.mkdir(exist_ok=True)
        if isinstance(content, FieldPair):
            save_snapshot(path, content, params)
        elif isinstance(content, dict):
            payload = {k: None if _nonfinite(v) else v for k, v in content.items()}
            path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        else:
            path.write_text(_csv(*content), encoding="utf-8")
    lines = [ln if isinstance(ln, str) else f"{ln[0]} = {_cell(ln[1])}" for ln in summary]
    if lines:
        (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(filter(None, [*lines, note])))
    if failure:
        print(failure, file=sys.stderr)
    return EXIT_NUMERICAL if failure else EXIT_OK


# ---------------------------------------------------------------------------
# commands


def _cmd_ground(cfg, kw, params, grid, out: Path) -> int:
    res = ground_state(params, grid, **kw["ground_state"])
    files = _result_files(res, params, "ground.snapshot")
    return _emit(out, params, files, note=f"ground state: level {res.action:.12g} ({res.classification}), "
                 f"residual {res.residual:.3e}, {res.iterations} iterations")


def _constraint_from(cfg) -> ConstraintSpec:
    kind = cfg.get("constraint", "kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown constraint kind {kind!r}")
    factory = getattr(ConstraintSpec, kind)
    reads = tuple(inspect.signature(factory).parameters)
    for key in cfg.options("constraint"):
        given = bool(cfg.get("constraint", key))
        if key in reads and not given:
            raise ValueError(f"constraint kind {kind!r} needs [constraint] {key}")
        if key not in (*reads, "kind") and given:
            raise ValueError(f"constraint kind {kind!r} does not read [constraint] {key}")
    return factory(*(_read(cfg, "constraint", key, float) for key in reads))


def _cmd_minimize(cfg, kw, params, grid, out: Path) -> int:
    constraint = _constraint_from(cfg)
    res = minimize_on(constraint, params, grid, **kw["minimize_on"])
    files = _result_files(res, params, "minimizer.snapshot", constraint.pinned, constraint=constraint.describe())
    return _emit(out, params, files, note=f"{constraint.describe()}: value {res.value:.12g} "
                 f"({res.classification}), residual {res.residual:.3e}, {res.iterations} iterations")


def _initial_state(cfg, kw, params, grid):
    spec = cfg.get("evolve", "initial")
    if spec == "ground":
        return ground_state(params, grid, **kw["ground_state"]).minimizer
    if spec.startswith("member:"):
        return make_member(Family(spec.split(":", 1)[1]), params, grid)
    if spec.startswith("snapshot:"):
        pair, stored = load_snapshot(spec.split(":", 1)[1])
        if pair.grid != grid:
            raise GridMismatchError(
                "snapshot grid does not match the [grid] section; "
                "align the config with the stored run"
            )
        if stored != params:
            raise ValueError(
                "snapshot params do not match the [params] section; "
                "align the config with the stored run"
            )
        return pair
    raise ValueError(
        f"initial must be 'ground', 'member:<family>' or 'snapshot:<path>', got {spec!r}"
    )


def _cmd_evolve(cfg, kw, params, grid, out: Path) -> int:
    # the run settings and the perturbation are checked before the initial
    # state, which may take a ground-state flow; the perturbation draws
    # from its own generator, so drawing it first changes none of its bits
    config = EvolveConfig(_read(cfg, "evolve", "dt", float), _read(cfg, "evolve", "t_end", float),
                          **kw["EvolveConfig"])
    _check_hold(grid, config)
    eps = _check_number(_read(cfg, "evolve", "eps", float), "eps", "be a finite real number", np.isfinite)
    try:
        pert = perturbation_pair(grid, params, **kw["perturbation_pair"])
    except ValueError as exc:
        if kw["perturbation_pair"]["mode"] in _PERTURB_MODES:
            raise
        raise ValueError(f"perturb_mode: {exc}") from exc
    state = _initial_state(cfg, kw, params, grid)
    if eps:
        state = state + eps * pert
    # not held through the run
    del pert
    log = evolve(state, params, config)

    files = {"trajectory.csv": log._table(), "final.snapshot": log.final_state()}
    if config.snapshot_stride:
        for i, (_, pair) in enumerate(log.snapshots):
            files[f"snapshots/snap_{i:06d}.snapshot"] = pair
        files["snapshots/index.csv"] = ("index,t", [(i, t) for i, (t, _) in enumerate(log.snapshots)])

    drift1 = np.abs(log.mass1 - log.mass1[0]).max() / max(log.mass1[0], 1e-300)
    drift2 = np.abs(log.mass2 - log.mass2[0]).max() / max(log.mass2[0], 1e-300)
    summary = [
        ("t_final", log.times[-1]),
        ("mass_drift_rel_1", drift1),
        ("mass_drift_rel_2", drift2),
        ("energy_drift_abs", np.abs(log.energy - log.energy[0]).max()),
        ("aborted", log.aborted),
        ("blowup_time", log.blowup_time),
    ]
    failure = "run aborted: the amplitude guard tripped or the field stopped being finite"
    return _emit(out, params, files, summary=summary, failure=failure if log.aborted else "")


def _cmd_sweep(cfg, kw, params, grid, out: Path) -> int:
    verdict = stability_sweep(params, grid, **kw["stability_sweep"])
    rows = zip(verdict.epsilons, verdict.initial_distances, verdict.max_excursions,
               verdict.classifications, verdict.blowup_times)
    header = "family,epsilon,initial_distance,max_excursion,classification,blowup_time"
    files = {"verdict.csv": (header, [(verdict.family, *row) for row in rows])}
    for i, (ts, ds) in enumerate(zip(verdict.details["times"], verdict.details["distances"])):
        files[f"distances_{i}.csv"] = ("t,distance", list(zip(ts, ds)))
    summary = [("family", verdict.family), ("classification", verdict.classification)]
    return _emit(out, params, files, summary=summary)


_CLASS_WORDS = {"blow_up": "BlowUp", "no_blow_up": "NoBlowUp"}


def _cmd_blowup(cfg, kw, params, grid, out: Path) -> int:
    rep = blowup_experiment(params, grid, **kw["blowup_experiment"])
    payload = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name != "details"}
    payload["classification"] = rep.classification
    series = zip(rep.details["times"], rep.details["variance"], rep.details["gradnorm"])
    files = {"report.json": payload, "series.csv": ("t,variance,gradnorm", list(series))}
    summary = [
        ("classification", _CLASS_WORDS[rep.classification]),
        ("t_star", rep.blowup_time),
        ("sigma", rep.sigma),
        ("initial_virial", rep.initial_virial),
        ("concave_variance", rep.concave),
        ("second_derivative_bound", rep.bound_satisfied),
        ("level_gap_ok", rep.lemma_gap_ok),
    ]
    return _emit(out, params, files, summary=summary)


def _cmd_audit(cfg, kw, params, grid, out: Path) -> int:
    rep = identity_audit(params, grid, **kw["identity_audit"])
    summary = [*map(str, rep.rows), ("overall", "pass" if rep.ok else "FAIL")]
    code = _emit(out, params, {"audit.csv": rep._table()}, summary=summary)
    return code or (EXIT_OK if rep.ok else EXIT_NUMERICAL)


def _cmd_profile(cfg, kw, params, grid, out: Path) -> int:
    family = Family(cfg.get("profile", "family"))
    pair = make_member(family, params, grid, **kw["make_member"])
    report = FunctionalReport.compute(pair, params)
    payload = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    payload["boundary_amplitude_ratio"] = boundary_amplitude_ratio(pair)
    payload["family"] = family.value
    files = {"profile.json": payload, "profile.snapshot": pair}
    return _emit(out, params, files, note=f"{family.value}: action {report.action:.12g}, "
                 f"virial {report.virial:.3e}, pairing {report.nehari_pairing:.3e}")


# each command takes the resolved config, the library keywords its keys feed
# (by callee name, from _keywords), the parameters, the grid and the output
# directory
_DISPATCH = {
    "ground": _cmd_ground,
    "minimize": _cmd_minimize,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "blowup": _cmd_blowup,
    "audit": _cmd_audit,
    "profile": _cmd_profile,
}


# ---------------------------------------------------------------------------
# entry


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cnls-lab",
        description="standing-wave laboratory for weakly coupled NLS systems",
    )
    ap.add_argument("--version", action="version", version=f"cnls-lab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    for name in _DISPATCH:
        sp = sub.add_parser(name, help=f"run the {name} command")
        sp.add_argument("config_pos", nargs="?", default=None, metavar="config",
                        help="path to the INI config file")
        sp.add_argument("--config", dest="config_flag", default=None,
                        help="path to the INI config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if None not in (args.config_pos, args.config_flag):
        print(f"invalid config: given twice, as {args.config_pos} and as --config {args.config_flag}",
              file=sys.stderr)
        return EXIT_CONFIG
    config_path = args.config_flag if args.config_flag is not None else args.config_pos

    try:
        cfg = resolve_config(args.command, config_path, args)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (configparser.Error, ValueError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(cfg.get("run", "out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(cfg, args.command, out)
    except OSError as exc:
        print(f"cannot prepare output directory: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        params, grid = _params(cfg), _grid(cfg)
        return _DISPATCH[args.command](cfg, _keywords(cfg, args.command), params, grid, out)
    except (ConvergenceError, BoundaryDecayError, SupportError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConstraintError, GridMismatchError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())
