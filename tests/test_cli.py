import json
import textwrap

import numpy as np
import pytest

from cnls_lab import (
    Family,
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
