"""Acceptance suite: one test per advertised guarantee, each printing a
single PASS/FAIL line (run with pytest -s to see them as they happen).

Every tolerance here is pinned; loosening one is a behavior change, not a
test fix. Runs that have a wall-clock budget assert it too.
"""

import time

import numpy as np
import pytest
from scipy.fft import fftn, ifftn

from conftest import smooth_pair
from radial_shooting import radial_ground_state

from cnls_lab import (
    ConstraintSpec,
    EvolveConfig,
    Family,
    FieldPair,
    Grid,
    ScalingParams,
    SystemParams,
    action_I,
    base_profile_1d,
    base_profile_nd,
    blowup_experiment,
    coupling_F,
    critical_value_map_T,
    delta_of_omega,
    energy_E,
    evolve,
    gradient_norm_sq,
    ground_state,
    identity_audit,
    l2_norm_sq,
    make_member,
    minimize_on,
    nehari_to_sphere,
    orbit_distance,
    perturbation_pair,
    scale_pair,
    stability_sweep,
    virial_series,
    weighted_l2_norm_sq,
)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _params(beta: float, p: float = 2.0) -> SystemParams:
    return SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)


def test_criterion_01_closed_form_soliton_residual(grid_1d):
    t0 = time.perf_counter()
    z = base_profile_1d(2.0, grid_1d)
    lap = ifftn(-grid_1d.k2 * fftn(z + 0j)).real
    resid = float(np.abs(-lap + z - z**3).max())
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "closed-form soliton residual",
        resid <= 1e-8 and elapsed < 1.0,
        f"sup |-u'' + u - u^3| = {resid:.3e} (<= 1e-8), {elapsed:.2f}s",
    )


def test_criterion_02_scalar_action_value(grid_1d, cubic):
    z = np.sqrt(2.0) / np.cosh(grid_1d.axes[0])
    act = action_I(FieldPair(grid_1d, z, np.zeros_like(z)), cubic)
    err = abs(act - 4.0 / 3.0)
    _report(
        2,
        "scalar action value",
        err <= 1e-6,
        f"I = {act:.12f}, |I - 4/3| = {err:.3e} (<= 1e-6)",
    )


def test_criterion_03_scaling_identities(grid_1d_wide):
    t0 = time.perf_counter()
    params = SystemParams(p=2.5, beta=1.0, omega1=1.0, omega2=1.0)
    pairs = ((1.3, 1.7), (0.8, 0.6), (2.0, 1.0), (1.1, 0.9), (0.7, 1.2))
    worst = 0.0
    for seed in range(20):
        pair = smooth_pair(grid_1d_wide, seed, width=1.5)
        grad0 = gradient_norm_sq(pair)
        mass0 = weighted_l2_norm_sq(pair, params)
        coup0 = coupling_F(pair, params)
        for mu, lam in pairs:
            scaled = scale_pair(pair, ScalingParams(mu=mu, lam=lam))
            checks = (
                (gradient_norm_sq(scaled), mu**2 * lam * grad0),
                (weighted_l2_norm_sq(scaled, params), mu**2 / lam * mass0),
                (coupling_F(scaled, params), mu ** (2 * params.p) / lam * coup0),
            )
            for got, want in checks:
                worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "scaling identities",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst rel err {worst:.3e} over 20 fields x 5 scalings x 3 identities "
        f"(<= 1e-6), {elapsed:.2f}s",
    )


def test_criterion_04_level_identities_and_threshold(grid_1d, grid_1d_wide):
    t0 = time.perf_counter()
    details = []
    ok = True
    for beta in (0.5, 1.0, 3.0):
        params = _params(beta)
        rows = {r.name: r for r in identity_audit(params, grid_1d_wide).rows}
        ray = rows["sphere_level_matches_ray_level"]
        pair = rows["pair_level_twice_scalar"]
        delta = delta_of_omega(1.0, beta, 2.0, 1, 4.0)
        m2 = minimize_on(ConstraintSpec.equal_spheres(delta), params, grid_1d_wide).action
        m2_err = abs(m2 - (8.0 / 3.0) / (1.0 + beta)) / ((8.0 / 3.0) / (1.0 + beta))
        ok &= ray.rel_err <= 1e-3 and pair.rel_err <= 1e-3 and m2_err <= 1e-3
        details.append(f"beta {beta:g}: ray {ray.rel_err:.1e} pair {pair.rel_err:.1e} m2 {m2_err:.1e}")
    below = ground_state(_params(0.95), grid_1d).classification
    above = ground_state(_params(1.05), grid_1d).classification
    ok &= below.startswith("scalar") and above == "vector"
    details.append(f"flip {below}/{above}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    _report(4, "level identities and coupling threshold", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_05_equal_spheres_characterization(grid_1d):
    t0 = time.perf_counter()
    params = _params(3.0)
    x = grid_1d.axes[0]
    # lopsided, off-center, complex-phased start: the synchronized form
    # must be found, not planted
    init = FieldPair(
        grid_1d,
        1.3 * np.exp(-0.5 * (x - 0.7) ** 2) * np.exp(0.3j * x),
        0.4 * np.exp(-0.2 * (x + 1.1) ** 2),
    )
    delta = delta_of_omega(1.0, 3.0, 2.0, 1, 4.0)
    res = minimize_on(ConstraintSpec.equal_spheres(delta), params, grid_1d, init=init)
    ref = make_member(Family.VECTOR_B, params, grid_1d)
    dist = orbit_distance(res.minimizer, ref, params).distance
    moddiff = float(
        np.sqrt(l2_norm_sq(grid_1d, np.abs(res.minimizer.c1) - np.abs(res.minimizer.c2)))
    )
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "synchronized pair characterization",
        dist <= 1e-4 and moddiff <= 1e-6 and elapsed < 120.0,
        f"orbit distance {dist:.3e} (<= 1e-4), || |u1|-|u2| ||_2 = {moddiff:.3e} "
        f"(<= 1e-6), {elapsed:.2f}s",
    )


def test_criterion_06_level_map_consistency():
    grid = Grid(1, 2048, 48.0)
    params = _params(0.5)
    gs = ground_state(params, grid)
    gamma0 = weighted_l2_norm_sq(gs.minimizer, params)
    worst = 0.0
    for fac in (0.5, 1.0, 2.0):
        image, _ = nehari_to_sphere(gs.minimizer, params, fac * gamma0)
        e_img = energy_E(image, params)
        t_val = critical_value_map_T(gs.action, fac * gamma0, 2.0, 1)
        worst = max(worst, abs(e_img - t_val) / abs(t_val))
    _report(
        6,
        "sphere transport matches the level map",
        worst <= 1e-3,
        f"worst rel err {worst:.3e} over gamma in (0.5, 1, 2) x {gamma0:.6f} (<= 1e-3)",
    )


def test_criterion_07_conservation():
    t0 = time.perf_counter()
    grid = Grid(1, 2048, 20.0)
    params = _params(3.0)
    member = make_member(Family.VECTOR_B, params, grid)
    bump = perturbation_pair(grid, params, mode="both", seed=7)
    datum = FieldPair(grid, member.c1 + 1e-2 * bump.c1, member.c2 + 1e-2 * bump.c2)
    log = evolve(datum, params, EvolveConfig(dt=1e-3, t_end=10.0, conservation_check_stride=100))
    mass1 = float(np.abs(log.mass1 - log.mass1[0]).max() / log.mass1[0])
    mass2 = float(np.abs(log.mass2 - log.mass2[0]).max() / log.mass2[0])
    e_coarse = float(np.abs(log.energy - log.energy[0]).max() / abs(log.energy[0]))
    fine = evolve(datum, params, EvolveConfig(dt=5e-4, t_end=10.0, conservation_check_stride=200))
    e_fine = float(np.abs(fine.energy - fine.energy[0]).max() / abs(fine.energy[0]))
    ratio = e_coarse / e_fine
    elapsed = time.perf_counter() - t0
    ok = (
        mass1 <= 1e-12
        and mass2 <= 1e-12
        and e_coarse <= 1e-6
        and 3.0 <= ratio <= 5.0
        and elapsed < 120.0
    )
    _report(
        7,
        "conservation over t in [0, 10]",
        ok,
        f"mass drift {mass1:.2e}/{mass2:.2e} (<= 1e-12), energy drift {e_coarse:.2e} "
        f"(<= 1e-6), halving ratio {ratio:.2f} (in [3, 5]), {elapsed:.1f}s",
    )


def test_criterion_08_standing_wave_exactness(grid_1d):
    params = _params(3.0)
    details = []
    ok = True
    for family in (Family.SCALAR_FIRST, Family.VECTOR_B):
        member = make_member(family, params, grid_1d)
        log = evolve(member, params, EvolveConfig(dt=1e-3, t_end=10.0, conservation_check_stride=1000))
        dist = orbit_distance(log.final_state(), member, params).distance
        ok &= dist <= 1e-5
        details.append(f"{family.value} {dist:.3e}")
    _report(8, "standing waves stay on their orbit to t=10", ok, ", ".join(details) + " (<= 1e-5)")


def test_criterion_09_virial_identity():
    grid = Grid(1, 2048, 30.0)
    params = SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0)
    member = make_member(Family.SCALAR_FIRST, params, grid)
    datum = scale_pair(member, ScalingParams(mu=1.1**0.5, lam=1.1))
    log = evolve(datum, params, EvolveConfig(dt=2e-4, t_end=0.3, conservation_check_stride=1))
    check = virial_series(log, window=(0.0, 0.25))
    _report(
        9,
        "variance acceleration matches the virial functional",
        check.max_residual <= 0.02,
        f"max rel residual {check.max_residual:.2e} (<= 0.02) on t in [0, 0.25]",
    )


def test_criterion_10_stability_sweeps(grid_1d):
    t0 = time.perf_counter()
    details = []
    ok = True
    for family in ("ground", "scalar_first", "vector_b"):
        for beta in (0.5, 3.0):
            verdict = stability_sweep(
                _params(beta), grid_1d, family=family, epsilons=(1e-3, 1e-2), t_end=50.0
            )
            peak = max(verdict.max_excursions)
            ok &= verdict.classification == "stable_within_tolerance" and peak <= 10.0
            details.append(f"{family}/b{beta:g} {peak:.2f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1200.0
    _report(
        10,
        "perturbation sweeps stay orbitally bounded",
        ok,
        "excursion ratios " + ", ".join(details) + f" (<= 10), {elapsed:.0f}s",
    )


def test_criterion_11_blow_up_experiments():
    t0 = time.perf_counter()
    details = []
    ok = True
    grid4 = Grid(1, 2048, 30.0)
    params4 = _params(3.0, p=4.0)
    for family in ("ground", "scalar_first", "vector_b"):
        r = blowup_experiment(
            params4, grid4, family=family, factor=1.1, dt=2e-4, t_max=1.0, guard_ratio=10.0
        )
        ok &= r.classification == "blow_up" and r.blowup_time is not None and r.concave
        ok &= r.bound_satisfied and r.lemma_gap_ok
        details.append(f"p4/{family} t*={r.blowup_time:.3f}")
    grid3 = Grid(1, 4096, 30.0)
    params3 = _params(2.0, p=3.0)
    for family in ("ground", "scalar_first", "vector_b"):
        r = blowup_experiment(
            params3, grid3, family=family, factor=1.05, dt=2e-4, t_max=2.5, guard_ratio=10.0
        )
        ok &= r.classification == "blow_up" and r.blowup_time is not None and r.concave
        details.append(f"p3/{family} t*={r.blowup_time:.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    _report(
        11,
        "dilated and amplified members blow up with concave variance",
        ok,
        ", ".join(details) + f", {elapsed:.0f}s",
    )


def test_criterion_12_planar_mass_cross_check():
    grid = Grid(2, 128, 10.0)
    res = base_profile_nd(2.0, grid)
    mass = l2_norm_sq(grid, res.values)
    oracle = radial_ground_state(2.0, 1.0, 2)["mass"]
    rel = abs(mass - oracle) / oracle
    _report(
        12,
        "planar profile mass against the shooting oracle",
        rel <= 1e-4,
        f"spectral {mass:.7f} vs shooting {oracle:.7f}, rel err {rel:.3e} (<= 1e-4)",
    )
