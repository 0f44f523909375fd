"""The three benchmark workloads: their set-up and their tasks.

A workload is a fixed list of tasks. Each task calls the public cnls_lab
API once and returns its correctness checks as (metric, value, ok) triples:
value is the measured error or ratio, reported as the per-layer `metric`
in a traced run, and ok applies the pinned acceptance tolerance.

Nothing here imports numpy or cnls_lab at module level: `setup` does, so
that the set-up time includes the package import.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

# pinned acceptance tolerances (tests/test_acceptance.py)
EXCURSION_MAX = 10.0  # criterion 10
AUDIT_TOL = 1e-3  # criterion 04
LEVEL_MAP_TOL = 1e-3  # criterion 06
FLOW_TOL = 1e-8  # default flow tolerance of every ground-state solve


def _grid_specs(workload: str, tiny: bool) -> dict:
    """Grids (dim, points per axis, half width) by role."""
    if workload == "sweep":
        return {"line": (1, 256 if tiny else 1024, 20.0)}
    if workload == "collapse":
        return {
            "dilation": (1, 512 if tiny else 2048, 30.0),
            "amplification": (1, 512 if tiny else 2048, 30.0),
        }
    return {
        "audit": (1, 256 if tiny else 1024, 24.0),
        "ladder": (1, 512 if tiny else 2048, 48.0),
        "plane": (2, 32 if tiny else 256, 12.0 if tiny else 20.0),
        "space": (3, 16 if tiny else 64, 10.0 if tiny else 20.0),
    }


def setup(workload: str, tiny: bool) -> dict:
    """Import cnls_lab, build the workload's grids, and warm one transform
    per grid size. This is what `setup_s` times."""
    import numpy as np
    from scipy.fft import fftn, ifftn

    import cnls_lab
    import cnls_lab.cli  # noqa: F401  (levels drives the CLI in-process)

    grids = {role: cnls_lab.Grid(*spec) for role, spec in _grid_specs(workload, tiny).items()}
    for shape in {g.shape for g in grids.values()}:
        ifftn(fftn(np.ones(shape, dtype=complex)))
    return {"cl": cnls_lab, "grids": grids, "tiny": tiny}


def _params(cl, beta: float, p: float = 2.0):
    return cl.SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)


def tasks(workload: str, ctx: dict, seed: int, workdir: Path) -> list:
    """The workload's task list as (name, callable) pairs."""
    build = {"sweep": _sweep, "collapse": _collapse, "levels": _levels}[workload]
    return build(ctx["cl"], ctx["grids"], ctx["tiny"], seed, workdir)


def _sweep(cl, grids, tiny, seed, workdir):
    grid = grids["line"]
    t_end = 0.05 if tiny else 2.0

    def task(family, beta):
        def run():
            verdict = cl.stability_sweep(
                _params(cl, beta), grid, family=family, epsilons=(1e-3, 1e-2),
                t_end=t_end, seed=seed,
            )
            peak = max(verdict.max_excursions)
            ok = verdict.classification == "stable_within_tolerance" and peak <= EXCURSION_MAX
            return [("stability.excursion_max", peak, ok)]
        return run

    return [
        (f"{family}/b{beta:g}", task(family, beta))
        for family in ("ground", "scalar_first", "vector_b")
        for beta in (0.5, 3.0)
    ]


def _collapse(cl, grids, tiny, seed, workdir):
    # criterion 11: p=4 is supercritical in 1d (dilation, so scale_pair
    # runs); p=3 is critical (amplification). The p=3 runs use N=2048 and
    # factor 1.1 instead of the criterion's N=4096 and 1.05, which collapse
    # at t=0.56 instead of 0.98 at half the cost per step, so that one run
    # repeats every task
    setups = (
        ("p4", grids["dilation"], _params(cl, 3.0, p=4.0), 1.1, 1.0),
        ("p3", grids["amplification"], _params(cl, 2.0, p=3.0), 1.1, 2.5),
    )
    dt = 1e-3 if tiny else 2e-4

    def task(grid, params, factor, t_max, family, strict):
        def run():
            r = cl.blowup_experiment(
                params, grid, family=family, factor=factor, dt=dt, t_max=t_max,
                guard_ratio=10.0, seed=seed,
            )
            ok = r.classification == "blow_up" and r.blowup_time is not None and r.concave
            if strict:
                ok = ok and r.bound_satisfied and r.lemma_gap_ok
            return [("stability.vdd_ratio_max", r.max_second_derivative / (8.0 * r.sigma), ok)]
        return run

    return [
        (f"{label}/{family}", task(grid, params, factor, t_max, family, label == "p4"))
        for label, grid, params, factor, t_max in setups
        for family in ("ground", "scalar_first", "vector_b")
    ]


def _levels(cl, grids, tiny, seed, workdir):
    def audit(beta):
        def run():
            report = cl.identity_audit(_params(cl, beta), grids["audit"], seed=seed)
            worst = max(row.rel_err for row in report.rows)
            return [("audit.rel_err_max", worst, report.ok and worst <= AUDIT_TOL)]
        return run

    def residual_check(result):
        return ("minimize.residual_max", result.residual, result.residual <= FLOW_TOL)

    def level_check(energy, level, gamma, p, dim):
        target = cl.critical_value_map_T(level, gamma, p, dim)
        err = abs(energy - target) / abs(target)
        return ("profiles.level_map_err_max", err, err <= LEVEL_MAP_TOL)

    def ladder():
        # criterion 06 on a longer ladder of target masses
        params = _params(cl, 0.5)
        gs = cl.ground_state(params, grids["ladder"], seed=seed)
        gamma0 = cl.weighted_l2_norm_sq(gs.minimizer, params)
        checks = [residual_check(gs)]
        for fac in (0.5, 0.75, 1.0, 1.5, 2.0):
            image, _nu = cl.nehari_to_sphere(gs.minimizer, params, fac * gamma0)
            checks.append(level_check(cl.energy_E(image, params), gs.action, fac * gamma0, 2.0, 1))
        return checks

    sub = _params(cl, 3.0, p=1.5)  # mass-subcritical in 2d and 3d

    def plane():
        # Nehari ground state, then the weighted-sphere flow at its mass,
        # whose energy the level map must reproduce
        grid = grids["plane"]
        gs = cl.ground_state(sub, grid, seed=seed)
        gamma0 = cl.weighted_l2_norm_sq(gs.minimizer, sub)
        sphere = cl.minimize_on(cl.ConstraintSpec.weighted_sphere(gamma0), sub, grid, seed=seed)
        return [
            residual_check(gs),
            residual_check(sphere),
            level_check(sphere.energy, gs.action, gamma0, sub.p, 2),
        ]

    def space():
        # one synchronized start: a 3-thread pool over 64^3 fields makes the
        # time and the peak memory depend on thread scheduling
        nehari = cl.ConstraintSpec.nehari()
        return [residual_check(cl.minimize_on(nehari, sub, grids["space"], seed=seed))]

    def cli_rerun():
        out = workdir / "cli-ground"
        config = workdir / "ground.ini"
        points = 256 if tiny else 1024
        config.write_text(
            f"[params]\np = 2.0\nbeta = 3.0\n\n[grid]\npoints = {points}\nhalf_width = 20.0\n",
            encoding="utf-8",
        )
        argv = ["ground", str(config), "--out", str(out), "--seed", str(seed)]
        runs = []
        for _ in range(2):
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cl.cli.main(argv)
            if code != 0:
                return [("cli.rerun_diff_files", 0, False)]
            runs.append({f.name: f.read_bytes() for f in out.iterdir()})
        first, second = runs
        differing = sum(first.get(name) != second.get(name) for name in first.keys() | second.keys())
        ok = differing == 0
        if ok:
            # the snapshot reloads and writes back the same bytes
            pair, params = cl.load_snapshot(out / "ground.snapshot")
            resaved = workdir / "resaved.snapshot"
            cl.save_snapshot(resaved, pair, params)
            ok = resaved.read_bytes() == first["ground.snapshot"]
        return [("cli.rerun_diff_files", differing, ok)]

    return [
        ("audit/b0.5", audit(0.5)),
        ("audit/b1", audit(1.0)),
        ("audit/b3", audit(3.0)),
        ("ladder", ladder),
        ("plane", plane),
        ("space", space),
        ("cli", cli_rerun),
    ]

