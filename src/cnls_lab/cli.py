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
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audit import identity_audit
from .core import FieldPair, Grid, SystemParams, _cell, _csv
from .dynamics import EvolveConfig, evolve
from .errors import (
    BoundaryDecayError,
    ConstraintError,
    ConvergenceError,
    GridMismatchError,
    SupportError,
)
from .functionals import FunctionalReport, boundary_amplitude_ratio, pohozaev_check
from .minimize import ConstraintSpec, ground_state, minimize_on
from .profiles import Family, make_member
from .snapshots import load_snapshot, save_snapshot
from .stability import blowup_experiment, perturbation_pair, stability_sweep

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3
EXIT_IO = 4

_COMMON_DEFAULTS = {
    "params": {"p": "2.0", "beta": "0.0", "omega1": "1.0", "omega2": "1.0"},
    "grid": {"dim": "1", "points": "1024", "half_width": "20.0"},
    "run": {"seed": "0", "threads": "", "out": ""},
}

_COMMAND_DEFAULTS = {
    "ground": {
        "minimize": {"tol": "1e-8", "max_iter": "200000"},
    },
    "minimize": {
        "constraint": {"kind": "nehari", "gamma": "", "delta1": "", "delta2": ""},
        "minimize": {"tol": "1e-8", "max_iter": "200000"},
    },
    "evolve": {
        "evolve": {
            "initial": "member:scalar_first",
            "dt": "1e-3",
            "t_end": "10.0",
            "snapshot_stride": "0",
            "conservation_stride": "100",
            "guard": "1e6",
            "eps": "0.0",
            "perturb_mode": "both",
        },
    },
    "sweep": {
        "sweep": {
            "family": "ground",
            "epsilons": "0.0,1e-3,1e-2",
            "dt": "1e-3",
            "t_end": "50.0",
            "sample_dt": "0.5",
            "perturb_mode": "both",
            "excursion_ratio": "10.0",
            "zero_orbit_tol": "1e-5",
            "flow_tol": "1e-8",
        },
    },
    "blowup": {
        "blowup": {
            "family": "ground",
            "factor": "1.1",
            "dt": "1e-3",
            "t_max": "5.0",
            "guard_ratio": "20.0",
            "window_fraction": "0.8",
            "margin": "0.05",
            "flow_tol": "1e-8",
        },
    },
    "audit": {
        "audit": {"tol": "1e-3", "gamma_factors": "1.0,2.0", "flow_tol": "1e-8"},
    },
    "profile": {
        "profile": {
            "family": "scalar_first",
            "theta1": "0.0",
            "theta2": "0.0",
            "shift": "",
        },
    },
}

_COMMANDS = tuple(_COMMAND_DEFAULTS)


# ---------------------------------------------------------------------------
# configuration


def _defaults_for(command: str) -> dict:
    merged = {sec: dict(keys) for sec, keys in _COMMON_DEFAULTS.items()}
    for sec, keys in _COMMAND_DEFAULTS[command].items():
        merged.setdefault(sec, {}).update(keys)
    return merged


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
        cfg.set("run", "seed", str(overrides.seed))
    if overrides.threads is not None:
        cfg.set("run", "threads", str(overrides.threads))
    if overrides.out is not None:
        cfg.set("run", "out", overrides.out)
    if not cfg.get("run", "out"):
        cfg.set("run", "out", f"{command}_out")
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
    return SystemParams(
        p=cfg.getfloat("params", "p"),
        beta=cfg.getfloat("params", "beta"),
        omega1=cfg.getfloat("params", "omega1"),
        omega2=cfg.getfloat("params", "omega2"),
    )


def _grid(cfg) -> Grid:
    return Grid(
        cfg.getint("grid", "dim"),
        cfg.getint("grid", "points"),
        cfg.getfloat("grid", "half_width"),
    )


def _threads(cfg):
    raw = cfg.get("run", "threads")
    return int(raw) if raw else None


def _float_list(raw: str) -> tuple:
    vals = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if not vals:
        raise ValueError(f"expected a comma-separated float list, got {raw!r}")
    return vals


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


def _cmd_ground(cfg, out: Path) -> int:
    params = _params(cfg)
    grid = _grid(cfg)
    res = ground_state(
        params,
        grid,
        tol=cfg.getfloat("minimize", "tol"),
        max_iter=cfg.getint("minimize", "max_iter"),
        seed=cfg.getint("run", "seed"),
        threads=_threads(cfg),
    )
    files = _result_files(res, params, "ground.snapshot")
    return _emit(out, params, files, note=f"ground state: level {res.action:.12g} ({res.classification}), "
                 f"residual {res.residual:.3e}, {res.iterations} iterations")


def _constraint_from(cfg) -> ConstraintSpec:
    kind = cfg.get("constraint", "kind")

    def get(key):
        raw = cfg.get("constraint", key)
        if not raw:
            raise ValueError(f"constraint kind {kind!r} needs [constraint] {key}")
        return float(raw)

    if kind == "nehari":
        return ConstraintSpec.nehari()
    if kind == "nehari_set":
        return ConstraintSpec.nehari_set()
    if kind == "pohozaev":
        return ConstraintSpec.pohozaev()
    if kind == "weighted_sphere":
        return ConstraintSpec.weighted_sphere(get("gamma"))
    if kind == "product_spheres":
        return ConstraintSpec.product_spheres(get("delta1"), get("delta2"))
    if kind == "equal_spheres":
        return ConstraintSpec.equal_spheres(get("delta1"))
    raise ValueError(f"unknown constraint kind {kind!r}")


def _cmd_minimize(cfg, out: Path) -> int:
    params = _params(cfg)
    grid = _grid(cfg)
    constraint = _constraint_from(cfg)
    res = minimize_on(
        constraint,
        params,
        grid,
        tol=cfg.getfloat("minimize", "tol"),
        max_iter=cfg.getint("minimize", "max_iter"),
        seed=cfg.getint("run", "seed"),
    )
    files = _result_files(res, params, "minimizer.snapshot", constraint.pinned, constraint=constraint.describe())
    return _emit(out, params, files, note=f"{constraint.describe()}: value {res.value:.12g} "
                 f"({res.classification}), residual {res.residual:.3e}, {res.iterations} iterations")


def _initial_state(cfg, params, grid):
    spec = cfg.get("evolve", "initial")
    if spec == "ground":
        res = ground_state(
            params, grid, seed=cfg.getint("run", "seed"), threads=_threads(cfg)
        )
        return res.minimizer
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


def _cmd_evolve(cfg, out: Path) -> int:
    params = _params(cfg)
    grid = _grid(cfg)
    # the run settings and the perturbation are checked before the initial
    # state, which may take a ground-state flow; the perturbation draws
    # from its own generator, so drawing it first changes none of its bits
    config = EvolveConfig(
        dt=cfg.getfloat("evolve", "dt"),
        t_end=cfg.getfloat("evolve", "t_end"),
        snapshot_stride=cfg.getint("evolve", "snapshot_stride"),
        conservation_check_stride=cfg.getint("evolve", "conservation_stride"),
        blowup_guard=cfg.getfloat("evolve", "guard"),
    )
    eps = cfg.getfloat("evolve", "eps")
    if not np.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    try:
        pert = perturbation_pair(
            grid, params, mode=cfg.get("evolve", "perturb_mode"), seed=cfg.getint("run", "seed")
        )
    except ValueError as exc:
        raise ValueError(f"perturb_mode: {exc}") from exc
    state = _initial_state(cfg, params, grid)
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


def _cmd_sweep(cfg, out: Path) -> int:
    params = _params(cfg)
    grid = _grid(cfg)
    verdict = stability_sweep(
        params,
        grid,
        family=cfg.get("sweep", "family"),
        epsilons=_float_list(cfg.get("sweep", "epsilons")),
        dt=cfg.getfloat("sweep", "dt"),
        t_end=cfg.getfloat("sweep", "t_end"),
        sample_dt=cfg.getfloat("sweep", "sample_dt"),
        perturb_mode=cfg.get("sweep", "perturb_mode"),
        seed=cfg.getint("run", "seed"),
        excursion_ratio=cfg.getfloat("sweep", "excursion_ratio"),
        zero_orbit_tol=cfg.getfloat("sweep", "zero_orbit_tol"),
        tol=cfg.getfloat("sweep", "flow_tol"),
    )
    rows = zip(verdict.epsilons, verdict.initial_distances, verdict.max_excursions,
               verdict.classifications, verdict.blowup_times)
    header = "family,epsilon,initial_distance,max_excursion,classification,blowup_time"
    files = {"verdict.csv": (header, [(verdict.family, *row) for row in rows])}
    for i, (ts, ds) in enumerate(zip(verdict.details["times"], verdict.details["distances"])):
        files[f"distances_{i}.csv"] = ("t,distance", list(zip(ts, ds)))
    summary = [("family", verdict.family), ("classification", verdict.classification)]
    return _emit(out, params, files, summary=summary)


_CLASS_WORDS = {"blow_up": "BlowUp", "no_blow_up": "NoBlowUp"}


def _cmd_blowup(cfg, out: Path) -> int:
    params = _params(cfg)
    grid = _grid(cfg)
    rep = blowup_experiment(
        params,
        grid,
        family=cfg.get("blowup", "family"),
        factor=cfg.getfloat("blowup", "factor"),
        dt=cfg.getfloat("blowup", "dt"),
        t_max=cfg.getfloat("blowup", "t_max"),
        guard_ratio=cfg.getfloat("blowup", "guard_ratio"),
        window_fraction=cfg.getfloat("blowup", "window_fraction"),
        margin=cfg.getfloat("blowup", "margin"),
        tol=cfg.getfloat("blowup", "flow_tol"),
        seed=cfg.getint("run", "seed"),
    )
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


def _cmd_audit(cfg, out: Path) -> int:
    params = _params(cfg)
    grid = _grid(cfg)
    rep = identity_audit(
        params,
        grid,
        tol=cfg.getfloat("audit", "tol"),
        gamma_factors=_float_list(cfg.get("audit", "gamma_factors")),
        flow_tol=cfg.getfloat("audit", "flow_tol"),
        seed=cfg.getint("run", "seed"),
    )
    summary = [*map(str, rep.rows), ("overall", "pass" if rep.ok else "FAIL")]
    code = _emit(out, params, {"audit.csv": rep._table()}, summary=summary)
    return code or (EXIT_OK if rep.ok else EXIT_NUMERICAL)


def _cmd_profile(cfg, out: Path) -> int:
    params = _params(cfg)
    grid = _grid(cfg)
    family = Family(cfg.get("profile", "family"))
    raw_shift = cfg.get("profile", "shift")
    pair = make_member(
        family,
        params,
        grid,
        theta1=cfg.getfloat("profile", "theta1"),
        theta2=cfg.getfloat("profile", "theta2"),
        shift=_float_list(raw_shift) if raw_shift else None,
    )
    report = FunctionalReport.compute(pair, params)
    payload = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    payload["boundary_amplitude_ratio"] = boundary_amplitude_ratio(pair)
    payload["family"] = family.value
    files = {"profile.json": payload, "profile.snapshot": pair}
    return _emit(out, params, files, note=f"{family.value}: action {report.action:.12g}, "
                 f"virial {report.virial:.3e}, pairing {report.nehari_pairing:.3e}")


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
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} command")
        sp.add_argument("config_pos", nargs="?", default=None, metavar="config",
                        help="path to the INI config file")
        sp.add_argument("--config", dest="config_flag", default=None,
                        help="path to the INI config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads for multi-start minimization")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        return _DISPATCH[args.command](cfg, out)
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
