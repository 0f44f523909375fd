import argparse
import csv
import dataclasses
import inspect
import json
import string
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnls_lab import (
    ConstraintSpec,
    Family,
    FieldPair,
    Grid,
    ScalingParams,
    SystemParams,
    default_half_width,
    load_snapshot,
    make_member,
    save_snapshot,
    scale_pair,
)
from cnls_lab.cli import (
    _COMMAND_DEFAULTS,
    _DISPATCH,
    _FEEDS,
    _keywords,
    _spelled,
    main,
    resolve_config,
    write_manifest,
)
from cnls_lab.minimize import _KINDS

GROUND_CFG = """
    [params]
    p = 2.0
    beta = 0.5

    [grid]
    points = 256
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def test_ground_outputs(tmp_path):
    cfg = _write(tmp_path, GROUND_CFG)
    out = tmp_path / "g"
    assert main(["ground", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "result.json").read_text())
    assert abs(data["action"] - 4.0 / 3.0) < 1e-3
    assert data["classification"].startswith("scalar")
    pair, params = load_snapshot(out / "ground.snapshot")
    assert pair.grid.points_per_axis == 256
    assert params.beta == 0.5
    rows = (out / "pohozaev.csv").read_text().strip().split("\n")
    assert rows[0].startswith("residual_gradient")
    assert rows[1].split(",")[-1] == "1"
    manifest = (out / "manifest.txt").read_text()
    assert "[params]" in manifest and "beta = 0.5" in manifest


# tiny runs of every command that exit 0 and write every kind of output
_TINY = {
    "ground": {"grid": {"points": "64"}, "minimize": {"max_iter": "2000"}},
    "minimize": {
        "params": {"beta": "2.0"},
        "grid": {"points": "64"},
        "minimize": {"max_iter": "2000"},
        "constraint": {"kind": "nehari_set"},
    },
    "evolve": {
        "grid": {"points": "64"},
        "evolve": {"t_end": "0.01", "snapshot_stride": "5", "conservation_stride": "2", "eps": "1e-3"},
    },
    "sweep": {
        "params": {"beta": "2.0"},
        "grid": {"points": "64"},
        "sweep": {"family": "vector_b", "epsilons": "0.0,1e-3", "t_end": "0.05", "sample_dt": "0.01"},
    },
    "blowup": {
        "params": {"p": "3.0"},
        "grid": {"points": "64", "half_width": "10.0"},
        "blowup": {"family": "scalar_first", "t_max": "0.05"},
    },
    "audit": {"grid": {"points": "64", "half_width": "10.0"}, "audit": {"gamma_factors": "1.0"}},
    "profile": {"grid": {"points": "64"}, "profile": {"shift": "1.0", "theta1": "0.3"}},
}


def _files(out):
    return {path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("command", sorted(_TINY))
def test_rerun_is_byte_identical(tmp_path, command):
    cfg = _write(tmp_path, _ini(_TINY[command]))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    # a profile run reads no seed, so it takes none
    seed = [] if command == "profile" else ["--seed", "3"]
    assert main([command, str(cfg), *seed, "--out", str(out1)]) == 0
    assert main([command, str(cfg), *seed, "--out", str(out2)]) == 0
    first, second = _files(out1), _files(out2)
    manifest = Path("manifest.txt")
    # the manifests differ only in the output directory they echo
    assert first.pop(manifest).replace(bytes(out1), bytes(out2)) == second.pop(manifest)
    assert len(first) >= 2 and first == second
    text = (out1 / "manifest.txt").read_text()
    assert "seed = 3" in text if seed else "seed" not in text


def test_manifest_reruns_the_same_job(tmp_path):
    cfg = _write(tmp_path, GROUND_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ground", str(cfg), "--out", str(out1)]) == 0
    manifest = out1 / "manifest.txt"
    assert main(["ground", "--config", str(manifest), "--out", str(out2)]) == 0
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()


def test_config_rejection_and_io_failure(tmp_path, capsys):
    bad_key = _write(tmp_path, "[params]\nbogus = 1\n", name="k.ini")
    assert main(["ground", str(bad_key), "--out", str(tmp_path / "o1")]) == 3
    bad_sec = _write(tmp_path, "[nonsense]\na = 1\n", name="s.ini")
    assert main(["ground", str(bad_sec), "--out", str(tmp_path / "o2")]) == 3
    no_header = _write(tmp_path, "p = 2.0\n", name="h.ini")
    assert main(["ground", str(no_header), "--out", str(tmp_path / "o3")]) == 3
    missing = tmp_path / "not_there.ini"
    assert main(["ground", str(missing), "--out", str(tmp_path / "o4")]) == 4
    # a profile run reads no seed and refuses one, from the flag or the file
    assert main(["profile", "--seed", "3", "--out", str(tmp_path / "o6")]) == 3
    seeded = _write(tmp_path, "[run]\nseed = 3\n", name="r.ini")
    assert main(["profile", str(seeded), "--out", str(tmp_path / "o7")]) == 3
    assert not (tmp_path / "o6").exists() and not (tmp_path / "o7").exists()
    # a positional config and --config together are refused, naming both
    capsys.readouterr()
    assert main(["profile", str(bad_key), "--config", str(seeded), "--out", str(tmp_path / "o8")]) == 3
    err = capsys.readouterr().err
    assert str(bad_key) in err and str(seeded) in err and not (tmp_path / "o8").exists()
    # a value that does not parse as its key's type is named in the message
    unparsed = [
        ("ground", "params", "omega1", "x"),
        ("ground", "grid", "points", "1.5"),
        ("ground", "minimize", "max_iter", "1e3"),
        ("blowup", "blowup", "factor", "x"),
        ("audit", "audit", "gamma_factors", "1.0,x"),
        ("profile", "profile", "shift", "x"),
        ("evolve", "evolve", "dt", "x"),
    ]
    for command, section, key, value in unparsed:
        capsys.readouterr()
        path = _write(tmp_path, f"[{section}]\n{key} = {value}\n", name="u.ini")
        assert main([command, str(path), "--out", str(tmp_path / "o5")]) == 3
        assert f"[{section}] {key}" in capsys.readouterr().err, (command, key)


def test_minimize_equal_spheres(tmp_path):
    cfg = _write(
        tmp_path,
        """
        [params]
        beta = 2.0

        [grid]
        points = 256

        [constraint]
        kind = equal_spheres
        delta1 = 1.3333333333333333
        """,
    )
    out = tmp_path / "m"
    assert main(["minimize", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "result.json").read_text())
    assert abs(data["value"] - (-4.0 / 9.0)) < 1e-3
    assert abs(data["action"] - 8.0 / 9.0) < 1e-3
    assert data["classification"] == "vector"
    assert "spheres" in data["constraint"]


def test_minimize_config_refusals(tmp_path, capsys):
    # sphere constraint without its mass level
    incomplete = _write(tmp_path, "[constraint]\nkind = weighted_sphere\n", name="i.ini")
    assert main(["minimize", str(incomplete), "--out", str(tmp_path / "o1")]) == 3
    # the sphere problem has no minimizer above the critical exponent
    supercrit = _write(
        tmp_path,
        "[params]\np = 4.0\n\n[constraint]\nkind = weighted_sphere\ngamma = 4.0\n",
        name="s.ini",
    )
    assert main(["minimize", str(supercrit), "--out", str(tmp_path / "o2")]) == 3
    # nor the Pohozaev problem at the energy-critical p = n/(n - 2) = 3 of 3d,
    # which is refused before a flow that would only stall
    capsys.readouterr()
    critical = _write(
        tmp_path, "[params]\np = 3.0\n\n[grid]\ndim = 3\npoints = 16\n\n[constraint]\nkind = pohozaev\n", name="c.ini"
    )
    assert main(["minimize", str(critical), "--out", str(tmp_path / "o3")]) == 3
    assert "is not below n/(n - 2) = 3 in dimension 3" in capsys.readouterr().err
    assert [path.name for path in (tmp_path / "o3").iterdir()] == ["manifest.txt"]
    # a key the kind does not read is refused, not echoed and dropped
    for name, keys in (("e", "kind = equal_spheres\ndelta1 = 1\ndelta2 = 5\n"), ("n", "kind = nehari\ngamma = 7\n")):
        unread = _write(tmp_path, f"[grid]\npoints = 64\n\n[constraint]\n{keys}", name=f"{name}.ini")
        out = tmp_path / name
        assert main(["minimize", str(unread), "--out", str(out)]) == 3
        assert [path.name for path in out.iterdir()] == ["manifest.txt"]
    # a non-finite size is named by the constraint's factory, before any flow
    sizes = (
        ("w", "kind = weighted_sphere\ngamma = inf\n", "gamma must be finite and positive, got inf"),
        ("p", "kind = product_spheres\ndelta1 = 1\ndelta2 = nan\n", "delta2 must be >= 0 and finite, got nan"),
    )
    for name, keys, message in sizes:
        capsys.readouterr()
        sized = _write(tmp_path, f"[constraint]\n{keys}", name=f"{name}.ini")
        assert main(["minimize", str(sized), "--out", str(tmp_path / name)]) == 3
        assert message in capsys.readouterr().err


def test_profile_member_round_trip(tmp_path):
    cfg = _write(
        tmp_path,
        """
        [params]
        beta = 2.0

        [grid]
        points = 256

        [profile]
        family = vector_b
        theta1 = 0.3
        shift = 1.0
        """,
    )
    out = tmp_path / "p"
    assert main(["profile", str(cfg), "--out", str(out)]) == 0
    params = SystemParams(p=2.0, beta=2.0, omega1=1.0, omega2=1.0)
    grid = Grid(1, 256, 20.0)
    expected = make_member(Family.VECTOR_B, params, grid, theta1=0.3, shift=1.0)
    pair, stored = load_snapshot(out / "profile.snapshot")
    assert stored == params
    assert np.array_equal(pair.c1, expected.c1)
    assert np.array_equal(pair.c2, expected.c2)
    payload = json.loads((out / "profile.json").read_text())
    assert payload["family"] == "vector_b"
    assert abs(payload["action"] - 8.0 / 9.0) < 1e-6
    assert payload["boundary_amplitude_ratio"] < 1e-6


def test_evolve_outputs_and_snapshot_index(tmp_path):
    cfg = _write(
        tmp_path,
        """
        [grid]
        points = 256

        [evolve]
        t_end = 0.2
        snapshot_stride = 50
        conservation_stride = 50
        """,
    )
    out = tmp_path / "e"
    assert main(["evolve", str(cfg), "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().strip().split("\n")
    assert rows[0] == "t,mass1,mass2,energy,variance,gradnorm"
    assert len(rows) == 6  # header + samples at t = 0, .05, .1, .15, .2
    summary = (out / "summary.txt").read_text()
    assert "aborted = 0" in summary
    snaps = sorted((out / "snapshots").glob("snap_*.snapshot"))
    assert len(snaps) == 5
    index = (out / "snapshots" / "index.csv").read_text().strip().split("\n")
    assert len(index) == 6
    final, _ = load_snapshot(out / "final.snapshot")
    assert final.grid.points_per_axis == 256


def test_evolve_refuses_infinite_end_time(tmp_path):
    cfg = _write(tmp_path, "[grid]\npoints = 256\n\n[evolve]\nt_end = inf\n")
    assert main(["evolve", str(cfg), "--out", str(tmp_path / "e")]) == 3


def test_evolve_refuses_absurd_step_count(tmp_path):
    # finite, but 10**303 steps of the default dt: refused before any step
    cfg = _write(tmp_path, "[grid]\npoints = 256\n\n[evolve]\nt_end = 1e300\n")
    start = time.perf_counter()
    assert main(["evolve", str(cfg), "--out", str(tmp_path / "e")]) == 3
    assert time.perf_counter() - start < 10.0


def test_evolve_from_snapshot_abort_exits_2(tmp_path):
    params = SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0)
    grid = Grid(1, 1024, 20.0)
    member = make_member(Family.SCALAR_FIRST, params, grid)
    datum = scale_pair(member, ScalingParams(mu=1.1**0.5, lam=1.1))
    snap = tmp_path / "datum.snapshot"
    save_snapshot(snap, datum, params)

    cfg = _write(
        tmp_path,
        f"""
        [params]
        p = 4.0

        [evolve]
        initial = snapshot:{snap}
        dt = 2e-4
        t_end = 1.0
        guard = 5.0
        conservation_stride = 10
        """,
    )
    out = tmp_path / "e"
    assert main(["evolve", str(cfg), "--out", str(out)]) == 2
    summary = (out / "summary.txt").read_text()
    assert "aborted = 1" in summary
    blowup_line = next(ln for ln in summary.split("\n") if ln.startswith("blowup_time"))
    assert float(blowup_line.split("=")[1]) < 1.0
    assert (out / "final.snapshot").exists()

    # the stored grid and parameters must both match the config
    wrong_grid = _write(
        tmp_path,
        f"[params]\np = 4.0\n\n[grid]\npoints = 512\n\n[evolve]\ninitial = snapshot:{snap}\n",
        name="wg.ini",
    )
    assert main(["evolve", str(wrong_grid), "--out", str(tmp_path / "o1")]) == 3
    wrong_params = _write(
        tmp_path,
        f"[params]\np = 4.0\nbeta = 1.0\n\n[evolve]\ninitial = snapshot:{snap}\n",
        name="wp.ini",
    )
    assert main(["evolve", str(wrong_params), "--out", str(tmp_path / "o2")]) == 3


def test_evolve_nonfinite_run_exits_2(tmp_path):
    # the first step overflows the rates, so the run stops being finite
    params = SystemParams(p=4.0, beta=1.0, omega1=1.0, omega2=1.0)
    grid = Grid(1, 64, 10.0)
    u = 1e60 * np.exp(-grid.axes[0] ** 2)
    datum = FieldPair(grid, u, 0.5 * u)
    snap = tmp_path / "datum.snapshot"
    save_snapshot(snap, datum, params)
    cfg = _write(
        tmp_path,
        f"""
        [params]
        p = 4.0
        beta = 1.0

        [grid]
        points = 64
        half_width = 10.0

        [evolve]
        initial = snapshot:{snap}
        t_end = 0.01
        conservation_stride = 1
        """,
    )
    out = tmp_path / "e"
    with np.errstate(all="ignore"):
        assert main(["evolve", str(cfg), "--out", str(out)]) == 2
    assert "aborted = 1" in (out / "summary.txt").read_text()
    final, stored = load_snapshot(out / "final.snapshot")
    assert stored == params
    assert np.array_equal(final.c1, datum.c1) and np.array_equal(final.c2, datum.c2)


# tiny runs: one replaced key must not be able to build a large grid or a
# long run out of them
_FUZZ_BASE = {
    "evolve": {
        "grid": {"points": "64"},
        "evolve": {
            "dt": "1e-3",
            "t_end": "0.01",
            "snapshot_stride": "5",
            "conservation_stride": "2",
            "eps": "1e-3",
        },
    },
    "profile": _TINY["profile"],
    "ground": _TINY["ground"],
    "minimize": {"grid": {"points": "64"}, "minimize": {"max_iter": "2000"}},
    "sweep": _TINY["sweep"],
    "blowup": _TINY["blowup"],
    "audit": _TINY["audit"],
}
# the level each sphere kind reads
_FUZZ_LEVELS = {"gamma": "4.0", "delta1": "1.0", "delta2": "1.0"}
_FUZZ_KEYS = {
    "params": ("p", "beta", "omega1", "omega2"),
    "grid": ("dim", "points", "half_width"),
    "evolve": (
        "initial",
        "dt",
        "t_end",
        "snapshot_stride",
        "conservation_stride",
        "guard",
        "eps",
        "perturb_mode",
    ),
    "constraint": ("kind", "gamma", "delta1", "delta2"),
    "minimize": ("tol", "max_iter"),
    "sweep": (
        "family",
        "epsilons",
        "dt",
        "t_end",
        "sample_dt",
        "perturb_mode",
        "excursion_ratio",
        "zero_orbit_tol",
        "flow_tol",
    ),
    "blowup": ("family", "factor", "dt", "t_max", "guard_ratio", "window_fraction", "margin", "flow_tol"),
    "audit": ("tol", "gamma_factors", "flow_tol"),
    "profile": ("family", "theta1", "theta2", "shift"),
}
_FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", str(2**40), "abc")


@st.composite
def _fuzzed_config(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_BASE)))
    own = {"ground": ("minimize",), "minimize": ("constraint", "minimize")}.get(command, (command,))
    section = draw(st.sampled_from(("params", "grid") + own))
    key = draw(st.sampled_from(_FUZZ_KEYS[section]))
    value = draw(st.sampled_from(_FUZZ_VALUES))
    cfg = {sec: dict(keys) for sec, keys in _FUZZ_BASE[command].items()}
    if command == "minimize":
        # each kind reads the [constraint] keys its factory takes
        kind = draw(st.sampled_from(sorted(_KINDS)))
        reads = inspect.signature(getattr(ConstraintSpec, kind)).parameters
        cfg["constraint"] = {"kind": kind, **{key: _FUZZ_LEVELS[key] for key in reads}}
    cfg.setdefault(section, {})[key] = value
    return command, cfg


@settings(deadline=None, max_examples=300)
@given(case=_fuzzed_config())
def test_fuzzed_config_exits_with_a_documented_code(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(_ini(cfg), encoding="utf-8")
        with np.errstate(all="ignore"):
            code = main([command, str(path), "--out", str(Path(tmp) / "out")])
        if code == 0:
            _assert_outputs_finite(Path(tmp) / "out")
    assert code in (0, 2, 3, 4)


# The non-finite numbers an output may hold, by file and column, each with
# the test of its row: the allowances of the README's exit-code rule
_ALLOWANCES = {
    ("trajectory.csv", "variance"): lambda v, row: np.isnan(v),
    ("series.csv", "variance"): lambda v, row: np.isnan(v),
    ("verdict.csv", "max_excursion"): lambda v, row: v == np.inf and row["classification"] == "blow_up",
    **{
        ("pohozaev.csv", column): lambda v, row: v == np.inf and row["m_positive"] == "0"
        for column in ("residual_gradient", "residual_coupling", "residual_mass")
    },
}


def _assert_outputs_finite(out):
    """Every JSON file parses with no non-finite constant, and every number
    in a CSV file is finite unless an allowance covers it."""
    for path in sorted(out.rglob("*")):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_refuse_nonfinite)
        elif path.suffix == ".csv":
            with path.open(newline="") as fh:
                for row in csv.DictReader(fh):
                    for column, cell in row.items():
                        try:
                            value = float(cell)
                        except ValueError:
                            continue
                        allowed = _ALLOWANCES.get((path.name, column), lambda v, row: False)
                        assert np.isfinite(value) or allowed(value, row), (path.name, column, row)


def _ini(cfg):
    return "\n".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for sec, keys in cfg.items())


def _refuse_nonfinite(token):
    raise ValueError(f"non-finite JSON number {token}")


def test_profile_refuses_overflowing_params(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        """
        [params]
        omega1 = 1e300

        [grid]
        points = 64
        """,
    )
    out = tmp_path / "p"
    with np.errstate(all="ignore"):
        assert main(["profile", str(cfg), "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / "profile.json").exists()


@pytest.mark.parametrize(
    "command, override",
    [
        ("ground", {"params": {"omega1": "1e300"}}),
        ("ground", {"params": {"omega2": "1e300"}}),
        ("minimize", {"params": {"omega1": "1e300"}}),
        ("minimize", {"params": {"omega2": "1e300"}}),
        ("minimize", {"constraint": {"kind": "weighted_sphere", "gamma": "1e300"}}),
        ("minimize", {"constraint": {"kind": "product_spheres", "delta1": "1e300", "delta2": "1.0"}}),
        ("minimize", {"constraint": {"kind": "product_spheres", "delta1": "1.0", "delta2": "1e300"}}),
        ("evolve", {"params": {"omega1": "1e300"}, "evolve": {"t_end": "0.01"}}),
    ],
    ids=["ground-omega1", "ground-omega2", "minimize-omega1", "minimize-omega2", "gamma", "delta1", "delta2", "evolve"],
)
def test_overflowing_values_exit_2(tmp_path, capsys, command, override):
    # finite values whose first projected or sampled state has overflowing functionals
    cfg = {"grid": {"points": "64"}, **override}
    if command != "evolve":
        cfg["minimize"] = {"max_iter": "2000"}
    with np.errstate(all="ignore"):
        assert main([command, str(_write(tmp_path, _ini(cfg))), "--out", str(tmp_path / "o")]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, override",
    [
        ("ground", {}),
        ("minimize", {"constraint": {"kind": "nehari_set"}}),
        ("minimize", {"params": {"p": "1.0001", "beta": "1.0"}, "constraint": {"kind": "nehari_set"}}),
    ],
    ids=["ground", "nehari_set", "nehari_set-coupled"],
)
def test_exponent_near_one_is_refused(tmp_path, capsys, command, override):
    # the projections' factors are powers 1/(2p - 2) = 5000, which leave the
    # floating-point range
    cfg = {"params": {"p": "1.0001"}, "grid": {"points": "64"}, "minimize": {"max_iter": "2000"}}
    for section, keys in override.items():
        cfg.setdefault(section, {}).update(keys)
    assert main([command, str(_write(tmp_path, _ini(cfg))), "--out", str(tmp_path / "o")]) == 3
    assert "floating-point range" in capsys.readouterr().err
    assert not (tmp_path / "o" / "result.json").exists()


def test_pinned_multiplier_is_null_in_result_json(tmp_path):
    cfg = {
        "grid": {"points": "256"},
        "constraint": {"kind": "product_spheres", "delta1": "1.0", "delta2": "0"},
    }
    out = tmp_path / "m"
    assert main(["minimize", str(_write(tmp_path, _ini(cfg))), "--out", str(out)]) == 0
    data = json.loads((out / "result.json").read_text(), parse_constant=_refuse_nonfinite)
    nu1, nu2 = data["multipliers"]
    assert np.isfinite(nu1) and nu2 is None


def test_result_json_refuses_nonfinite_numbers(tmp_path, capsys, monkeypatch):
    from cnls_lab import cli

    real = cli.ground_state
    monkeypatch.setattr(cli, "ground_state", lambda *a, **k: dataclasses.replace(real(*a, **k), residual=np.nan))
    cfg = {"grid": {"points": "64"}, "minimize": {"max_iter": "2000"}}
    out = tmp_path / "g"
    assert main(["ground", str(_write(tmp_path, _ini(cfg))), "--out", str(out)]) == 2
    assert "non-finite residual in result.json" in capsys.readouterr().err
    assert not (out / "result.json").exists() and not (out / "ground.snapshot").exists()


@pytest.mark.parametrize("command", ["ground", "minimize"])
@pytest.mark.parametrize("key, value", [("max_iter", str(10**8 + 1)), ("max_iter", "0"), ("tol", "nan"), ("tol", "0")])
def test_flow_limits_exit_3(tmp_path, capsys, command, key, value):
    cfg = {"grid": {"points": "64"}, "minimize": {key: value}}
    if command == "minimize":
        cfg["constraint"] = {"kind": "nehari"}
    assert main([command, str(_write(tmp_path, _ini(cfg))), "--out", str(tmp_path / "o")]) == 3
    assert key in capsys.readouterr().err


def test_sweep_verdict_files(tmp_path):
    cfg = _write(
        tmp_path,
        """
        [params]
        beta = 2.0

        [grid]
        points = 256

        [sweep]
        family = vector_b
        epsilons = 0.0,1e-3
        t_end = 1.0
        sample_dt = 0.5
        """,
    )
    out = tmp_path / "s"
    assert main(["sweep", str(cfg), "--out", str(out)]) == 0
    rows = (out / "verdict.csv").read_text().strip().split("\n")
    assert rows[0] == "family,epsilon,initial_distance,max_excursion,classification,blowup_time"
    assert len(rows) == 3
    for row in rows[1:]:
        fields = row.split(",")
        assert fields[0] == "vector_b"
        assert fields[4] == "stable_within_tolerance"
    assert (out / "distances_0.csv").exists() and (out / "distances_1.csv").exists()
    assert "classification = stable_within_tolerance" in (out / "summary.txt").read_text()


def test_blowup_quick_report_and_refusal(tmp_path):
    cfg = _write(
        tmp_path,
        """
        [params]
        p = 3.0

        [grid]
        points = 512

        [blowup]
        family = scalar_first
        factor = 1.05
        dt = 2e-4
        t_max = 0.05
        """,
    )
    out = tmp_path / "b"
    assert main(["blowup", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["classification"] == "no_blow_up"
    assert report["mode"] == "amplification"
    assert report["sigma"] > 0.0
    assert "NoBlowUp" in (out / "summary.txt").read_text()
    series = (out / "series.csv").read_text().strip().split("\n")
    assert series[0] == "t,variance,gradnorm"
    assert len(series) > 100

    subcrit = _write(tmp_path, "[blowup]\nfamily = scalar_first\n", name="sub.ini")
    assert main(["blowup", str(subcrit), "--out", str(tmp_path / "o1")]) == 3


def test_audit_command(tmp_path):
    cfg = _write(
        tmp_path,
        """
        [params]
        beta = 2.0

        [grid]
        points = 512
        half_width = 24.0
        """,
    )
    out = tmp_path / "a"
    assert main(["audit", str(cfg), "--out", str(out)]) == 0
    rows = (out / "audit.csv").read_text().strip().split("\n")
    assert rows[0] == "name,lhs,rhs,rel_err,ok"
    assert len(rows) >= 7
    assert all(r.split(",")[-1] == "1" for r in rows[1:])
    assert "overall = pass" in (out / "summary.txt").read_text()


def test_command_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_audit_refuses_a_transport_out_of_range(tmp_path, capsys):
    # the transport's multiplier nu = (gamma / mass)^2 overflows
    cfg = _write(tmp_path, _ini({"grid": {"points": "64"}, "audit": {"gamma_factors": "1e300"}}))
    out = tmp_path / "a"
    assert main(["audit", str(cfg), "--out", str(out)]) == 3
    assert "floating-point range" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["manifest.txt"]


def test_sweep_refuses_an_infinite_orbit_distance(tmp_path, capsys):
    # the datum's density overflows, so its orbit distance is infinite
    cfg = {"params": {"beta": "2.0"}, "grid": {"points": "64"}}
    cfg["sweep"] = {"family": "vector_b", "epsilons": "1e300", "t_end": "0.05"}
    out = tmp_path / "s"
    with np.errstate(all="ignore"):
        assert main(["sweep", str(_write(tmp_path, _ini(cfg))), "--out", str(out)]) == 2
    assert "numerical failure: non-finite initial_distance in verdict.csv" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["manifest.txt"]


def test_sweep_refuses_a_subnormal_epsilon(tmp_path, capsys):
    # its initial distance would be the roundoff floor of the orbit distance
    cfg = {"params": {"beta": "2.0"}, "grid": {"points": "64"}}
    cfg["sweep"] = {"family": "vector_b", "epsilons": "1e-320", "t_end": "0.05"}
    out = tmp_path / "s"
    assert main(["sweep", str(_write(tmp_path, _ini(cfg))), "--out", str(out)]) == 3
    assert "orbit distance floor" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["manifest.txt"]


# sweep, blow-up and audit settings that are not finite or leave their
# range, or runs that would hold more than evolve's ceiling of complex
# values: each is refused before any flow or evolution runs
_REFUSED_SETTINGS = [
    *(
        ("sweep", key, v)
        for key in ("excursion_ratio", "zero_orbit_tol", "sample_dt", "flow_tol")
        for v in ("nan", "inf", "-1", "0")
    ),
    ("sweep", "t_end", "1e5"),
    pytest.param("sweep", "epsilons", ",".join(["0"] * 200_000), id="sweep-epsilons-200000_zeros"),
    ("evolve", "t_end", "1e5"),
    ("sweep", "excursion_ratio", "0.5"),
    *(("blowup", "window_fraction", v) for v in ("nan", "inf", "-1", "0", "1.5")),
    *(("blowup", "margin", v) for v in ("nan", "inf", "-1", "1")),
    *(("audit", "tol", v) for v in ("nan", "inf", "-1", "0")),
    *(("audit", "gamma_factors", v) for v in ("nan", "inf", "-1", "0", "1.0,-1")),
    *(("sweep", "epsilons", v) for v in ("nan", "0.0,inf", "-inf")),
    *(("sweep", "t_end", v) for v in ("nan", "inf", "-1", "0", "1e12")),
    ("sweep", "perturb_mode", "everything"),
    *(("blowup", "dt", v) for v in ("nan", "inf", "-1", "0")),
    *(("blowup", "t_max", v) for v in ("nan", "inf", "-1", "0", "1e12")),
    *(("blowup", "guard_ratio", v) for v in ("nan", "-1", "0", "1")),
    ("evolve", "perturb_mode", "everything"),
    *(("evolve", key, v) for key in ("t_end", "dt") for v in ("nan", "inf", "-1", "0")),
    *(("evolve", "guard", v) for v in ("nan", "1")),
    *(("evolve", "eps", v) for v in ("nan", "inf")),
    *((command, "flow_tol", v) for command in ("blowup", "audit") for v in ("nan", "inf", "-1", "0")),
    ("blowup", "factor", "inf"),
    ("blowup", "guard_ratio", "inf"),
    ("evolve", "guard", "inf"),
]


@pytest.mark.parametrize("command, key, value", _REFUSED_SETTINGS)
def test_absurd_settings_exit_3_and_write_only_the_manifest(tmp_path, capsys, monkeypatch, command, key, value):
    from cnls_lab import cli

    from cnls_lab import audit, stability

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow or evolution ran before the settings were checked")

    for module, name in ((cli, "ground_state"), (cli, "evolve"), (stability, "_family_state"),
                         (stability, "evolve"), (audit, "minimize_on")):
        monkeypatch.setattr(module, name, no_flow)
    cfg = {sec: dict(keys) for sec, keys in _TINY[command].items()}
    cfg[command][key] = value
    if command == "evolve":
        # the settings are refused before the initial state's flow runs
        cfg["evolve"]["initial"] = "ground"
    out = tmp_path / "o"
    assert main([command, str(_write(tmp_path, _ini(cfg))), "--out", str(out)]) == 3
    assert key in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["manifest.txt"]


@pytest.mark.parametrize("command", ["ground", "evolve", "sweep"])
def test_a_negative_seed_exits_3_naming_the_seed(tmp_path, capsys, monkeypatch, command):
    from cnls_lab import cli, minimize, stability

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow or evolution ran before the seed was checked")

    for module, name in ((minimize, "_project_state"), (cli, "evolve"), (stability, "_family_state"),
                         (stability, "evolve")):
        monkeypatch.setattr(module, name, no_flow)
    cfg = _write(tmp_path, _ini(_TINY[command]))
    assert main([command, str(cfg), "--seed=-3", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer, got -3" in err and "perturb_mode" not in err


def test_blowup_report_writes_an_undefined_derivative_as_null(tmp_path):
    # too short a window for three finite variance samples
    cfg = {"params": {"p": "3.0"}, "grid": {"points": "256"}}
    cfg["blowup"] = {"family": "scalar_first", "t_max": "0.002"}
    out = tmp_path / "b"
    assert main(["blowup", str(_write(tmp_path, _ini(cfg))), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=_refuse_nonfinite)
    assert report["max_second_derivative"] is None
    assert np.isfinite(report["sigma"])
    _assert_outputs_finite(out)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "name, content, allowed",
    [
        ("trajectory.csv", ("t,variance", [(0.0, _NAN)]), True),
        ("series.csv", ("t,variance", [(0.0, _NAN)]), True),
        ("trajectory.csv", ("t,variance", [(0.0, _INF)]), False),
        ("trajectory.csv", ("t,energy", [(0.0, _NAN)]), False),
        ("distances_0.csv", ("t,variance", [(0.0, _NAN)]), False),
        ("verdict.csv", ("max_excursion,classification", [(_INF, "blow_up")]), True),
        ("verdict.csv", ("max_excursion,classification", [(1.0, "blow_up"), (_INF, "excursion_growth")]), False),
        ("verdict.csv", ("max_excursion,classification", [(_NAN, "blow_up")]), False),
        ("pohozaev.csv", ("residual_mass,m_positive", [(_INF, False)]), True),
        ("pohozaev.csv", ("residual_mass,m_positive", [(_INF, True)]), False),
        ("report.json", {"max_second_derivative": _NAN, "sigma": 1.0}, True),
        ("report.json", {"max_second_derivative": _INF}, False),
        ("result.json", {"multipliers": [1.0, _NAN]}, False),
    ],
    ids=[
        "trajectory-nan-variance",
        "series-nan-variance",
        "inf-variance",
        "nan-energy",
        "distances-nan",
        "blow-up-inf-excursion",
        "growth-inf-excursion",
        "blow-up-nan-excursion",
        "no-mass-inf-residual",
        "mass-inf-residual",
        "nan-second-derivative",
        "inf-second-derivative",
        "nan-multiplier",
    ],
)
def test_outputs_are_written_only_when_every_nonfinite_number_is_allowed(tmp_path, capsys, name, content, allowed):
    from cnls_lab import cli

    files = {"other.csv": ("t", [(0.0,)]), name: content}
    assert cli._emit(tmp_path, None, files, summary=[("key", 1.0)]) == (0 if allowed else 2)
    written = sorted(path.name for path in tmp_path.iterdir())
    if allowed:
        assert written == sorted([name, "other.csv", "summary.txt"])
        _assert_outputs_finite(tmp_path)
    else:
        assert written == [] and "numerical failure: non-finite" in capsys.readouterr().err


def _library_default(callee, name):
    return inspect.signature(callee).parameters[name].default


def test_cli_defaults_equal_the_library_defaults():
    overrides = argparse.Namespace(seed=None, out="unused")
    for command in _DISPATCH:
        kw = _keywords(resolve_config(command, None, overrides), command)
        for cmd, section, key, callee, name in _FEEDS:
            if cmd == command:
                assert kw[callee.__name__][name] == _library_default(callee, name), (command, key)
                # the table holds the key's only default
                assert key not in _COMMAND_DEFAULTS.get(command, {}).get(section, {}), (command, key)
    # a callee takes every one of its options from the table
    fed = {(callee, name) for *_, callee, name in _FEEDS}
    for callee in {callee for callee, _ in fed}:
        options = {n for n, prm in inspect.signature(callee).parameters.items() if prm.default is not prm.empty}
        assert {name for c, name in fed if c is callee} == options - {"init"}, callee
    # a command has a seed key exactly when the table feeds it a seed
    seeded = {cmd for cmd, section, key, *_ in _FEEDS if (section, key) == ("run", "seed")}
    for command in _DISPATCH:
        assert resolve_config(command, None, overrides).has_option("run", "seed") == (command in seeded)
    assert "profile" not in seeded


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FLOAT_LISTS = st.lists(_FINITE, min_size=1, max_size=4).map(tuple)
# a value of each type a library default has
_VALUES = {
    float: _FINITE,
    int: st.integers(),
    str: st.text(string.ascii_letters + "_:", min_size=1, max_size=12),
    tuple: _FLOAT_LISTS,
    type(None): st.none() | _FLOAT_LISTS,
}


@st.composite
def _table_values(draw):
    command = draw(st.sampled_from(sorted(_DISPATCH)))
    values = {}
    for cmd, section, key, callee, name in _FEEDS:
        if cmd == command and (section, key) not in values:
            values[section, key] = draw(_VALUES[type(_library_default(callee, name))])
    return command, values


@settings(deadline=None, max_examples=200)
@given(case=_table_values())
def test_manifest_reads_back_every_keyword_exactly(case):
    # no flow runs: the config is resolved, echoed and resolved again
    command, values = case
    ini = {}
    for (section, key), value in values.items():
        ini.setdefault(section, {})[key] = _spelled(value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(_ini(ini), encoding="utf-8")
        overrides = argparse.Namespace(seed=None, out=tmp)
        first = resolve_config(command, path, overrides)
        write_manifest(first, command, Path(tmp))
        again = resolve_config(command, Path(tmp) / "manifest.txt", overrides)
    kw = _keywords(first, command)
    assert _keywords(again, command) == kw
    for cmd, section, key, callee, name in _FEEDS:
        if cmd == command:
            assert kw[callee.__name__][name] == values[section, key]


@pytest.mark.parametrize("omega", [0.25, 0.5])
def test_profile_box_follows_the_frequencies(tmp_path, omega):
    # a slowly decaying member needs the library's wider box
    cfg = {"params": {"omega1": repr(omega), "omega2": repr(omega)}, "grid": {"points": "256"}}
    out = tmp_path / "p"
    assert main(["profile", str(_write(tmp_path, _ini(cfg))), "--out", str(out)]) == 0
    assert json.loads((out / "profile.json").read_text())["boundary_amplitude_ratio"] < 1e-8
    width = float(default_half_width(omega, omega))
    assert f"half_width = {width!r}\n" in (out / "manifest.txt").read_text()
