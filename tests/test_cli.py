import dataclasses
import json
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnls_lab import (
    Family,
    FieldPair,
    Grid,
    ScalingParams,
    SolitonSpec,
    SystemParams,
    load_snapshot,
    make_member,
    save_snapshot,
    scale_pair,
)
from cnls_lab.cli import main

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


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, GROUND_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ground", str(cfg), "--seed", "3", "--out", str(out1)]) == 0
    assert main(["ground", str(cfg), "--seed", "3", "--out", str(out2)]) == 0
    for name in ("result.json", "pohozaev.csv", "ground.snapshot"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert "seed = 3" in (out1 / "manifest.txt").read_text()


def test_manifest_reruns_the_same_job(tmp_path):
    cfg = _write(tmp_path, GROUND_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ground", str(cfg), "--out", str(out1)]) == 0
    manifest = out1 / "manifest.txt"
    assert main(["ground", "--config", str(manifest), "--out", str(out2)]) == 0
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()


def test_config_rejection_and_io_failure(tmp_path):
    bad_key = _write(tmp_path, "[params]\nbogus = 1\n", name="k.ini")
    assert main(["ground", str(bad_key), "--out", str(tmp_path / "o1")]) == 3
    bad_sec = _write(tmp_path, "[nonsense]\na = 1\n", name="s.ini")
    assert main(["ground", str(bad_sec), "--out", str(tmp_path / "o2")]) == 3
    no_header = _write(tmp_path, "p = 2.0\n", name="h.ini")
    assert main(["ground", str(no_header), "--out", str(tmp_path / "o3")]) == 3
    missing = tmp_path / "not_there.ini"
    assert main(["ground", str(missing), "--out", str(tmp_path / "o4")]) == 4
    tiny = _write(tmp_path, "[grid]\npoints = 64\n", name="t.ini")
    assert main(["ground", str(tiny), "--threads", "0", "--out", str(tmp_path / "o5")]) == 3


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


def test_minimize_config_refusals(tmp_path):
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
    expected = make_member(
        SolitonSpec.for_family(Family.VECTOR_B, params, theta1=0.3, shift=1.0),
        params,
        grid,
    )
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
    member = make_member(SolitonSpec.for_family(Family.SCALAR_FIRST, params), params, grid)
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
    "profile": {"grid": {"points": "64"}},
    "ground": {"grid": {"points": "64"}, "minimize": {"max_iter": "2000"}},
    "minimize": {
        "grid": {"points": "64"},
        "minimize": {"max_iter": "2000"},
        "constraint": {"gamma": "4.0", "delta1": "1.0", "delta2": "1.0"},
    },
}
_FUZZ_KINDS = ("nehari", "nehari_set", "pohozaev", "weighted_sphere", "product_spheres", "equal_spheres")
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
}
_FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", str(2**40), "abc")


@st.composite
def _fuzzed_config(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_BASE)))
    own = {"evolve": ("evolve",), "ground": ("minimize",), "minimize": ("constraint", "minimize")}.get(command, ())
    section = draw(st.sampled_from(("params", "grid") + own))
    key = draw(st.sampled_from(_FUZZ_KEYS[section]))
    value = draw(st.sampled_from(_FUZZ_VALUES))
    cfg = {sec: dict(keys) for sec, keys in _FUZZ_BASE[command].items()}
    if command == "minimize":
        cfg["constraint"]["kind"] = draw(st.sampled_from(_FUZZ_KINDS))
    cfg.setdefault(section, {})[key] = value
    return command, cfg


@settings(deadline=None, max_examples=150)
@given(case=_fuzzed_config())
def test_fuzzed_config_exits_with_a_documented_code(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(_ini(cfg), encoding="utf-8")
        with np.errstate(all="ignore"):
            code = main([command, str(path), "--out", str(Path(tmp) / "out")])
        written = {"profile": "profile.json", "ground": "result.json", "minimize": "result.json"}
        if command in written and code == 0:
            json.loads((Path(tmp) / "out" / written[command]).read_text(), parse_constant=_refuse_nonfinite)
        if command == "evolve" and code == 0:
            _assert_finite_trajectory(Path(tmp) / "out" / "trajectory.csv")
    assert code in (0, 2, 3, 4)


def _ini(cfg):
    return "\n".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for sec, keys in cfg.items())


def _assert_finite_trajectory(path):
    # a nan variance is legitimate: it marks a field that reaches the box edge
    rows = np.genfromtxt(path, delimiter=",", names=True)
    for column in ("mass1", "mass2", "energy", "gradnorm"):
        assert np.isfinite(rows[column]).all(), column


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
