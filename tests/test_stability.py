import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from cnls_lab import (
    AuditReport,
    AuditRow,
    ConstraintError,
    Family,
    FieldPair,
    Grid,
    SolitonSpec,
    SystemParams,
    blowup_experiment,
    h1_distance,
    h1_norm_sq,
    identity_audit,
    make_member,
    orbit_distance,
    perturbation_pair,
    stability_sweep,
)
from cnls_lab import stability
from cnls_lab.profiles import spectral_shift
from cnls_lab.stability import _Orbits

from conftest import smooth_pair

VECTOR = SystemParams(p=2.0, beta=2.0, omega1=1.0, omega2=1.0)


def _angle_diff(a, b):
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def test_orbit_distance_recovers_planted_symmetry(grid_1d):
    ref = make_member(SolitonSpec.for_family(Family.VECTOR_B, VECTOR), VECTOR, grid_1d)
    planted = SolitonSpec.for_family(
        Family.VECTOR_B, VECTOR, theta1=0.9, theta2=-0.4, shift=1.5
    )
    psi = make_member(planted, VECTOR, grid_1d)
    res = orbit_distance(psi, ref, VECTOR)
    assert res.distance < 1e-6
    assert abs(res.shift[0] - 1.5) < 1e-5
    assert _angle_diff(res.phases[0], 0.9) < 1e-5
    assert _angle_diff(res.phases[1], -0.4) < 1e-5
    assert res.reference_index == 0


def test_orbit_distance_grid_aligned_without_refinement(grid_1d):
    ref = make_member(SolitonSpec.for_family(Family.VECTOR_B, VECTOR), VECTOR, grid_1d)
    y = 8 * grid_1d.dx
    psi = make_member(
        SolitonSpec.for_family(Family.VECTOR_B, VECTOR, shift=y), VECTOR, grid_1d
    )
    res = orbit_distance(psi, ref, VECTOR, refine=False)
    assert res.distance < 1e-8
    assert abs(res.shift[0] - y) < 1e-9


def test_orbit_distance_picks_nearest_reference(grid_1d):
    scalar = make_member(SolitonSpec.for_family(Family.SCALAR_FIRST, VECTOR), VECTOR, grid_1d)
    vector = make_member(SolitonSpec.for_family(Family.VECTOR_B, VECTOR), VECTOR, grid_1d)
    refs = [scalar, vector]
    near_vector = vector + 1e-3 * perturbation_pair(grid_1d, VECTOR, seed=3)
    assert orbit_distance(near_vector, refs, VECTOR).reference_index == 1
    assert orbit_distance(scalar, refs, VECTOR).reference_index == 0
    with pytest.raises(ValueError):
        orbit_distance(scalar, [], VECTOR)


def test_orbit_distance_transform_budget(grid_1d, transform_calls):
    refs = [make_member(SolitonSpec.for_family(f, VECTOR), VECTOR, grid_1d) for f in Family]
    psi = refs[2] + 1e-2 * perturbation_pair(grid_1d, VECTOR, seed=1)
    stacked = (2,) + grid_1d.shape
    for r in (1, 2, 3):
        transform_calls.clear()
        orbit_distance(psi, refs[:r], VECTOR)
        # each reference and psi transformed once, one inverse per reference
        assert transform_calls == [stacked] * (1 + 2 * r)
    # a sweep measures its references once; a state then costs 1 + R
    orbits = _Orbits(refs, VECTOR)
    transform_calls.clear()
    orbits.closest(psi)
    assert transform_calls == [stacked] * (1 + len(refs))


_ORBIT_GRIDS = (Grid(1, 256, 10.0), Grid(2, 32, 8.0))


@settings(deadline=None, max_examples=40)
@given(
    dim=st.sampled_from([1, 2]),
    seeds=st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
    shift=st.floats(-3.0, 3.0),
    phases=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
    eps=st.floats(0.05, 1.0),
    refine=st.booleans(),
)
def test_orbit_distance_is_the_distance_to_the_returned_orbit_point(dim, seeds, shift, phases, eps, refine):
    grid = _ORBIT_GRIDS[dim - 1]
    params = SystemParams(p=2.0, beta=1.0, omega1=1.0, omega2=1.7)
    ref = smooth_pair(grid, seeds[0])
    moved = [np.exp(1j * t) * spectral_shift(grid, c, (shift,) * dim) for t, c in zip(phases, ref.components)]
    psi = FieldPair(grid, *moved) + eps * smooth_pair(grid, seeds[1])
    res = orbit_distance(psi, ref, params, refine=refine)
    nearest = FieldPair(
        grid, *(np.exp(1j * t) * spectral_shift(grid, c, res.shift) for t, c in zip(res.phases, ref.components))
    )
    assert res.distance == pytest.approx(h1_distance(psi, nearest, params), rel=1e-10)


def _bfgs_distance(psi, ref, params):
    """The orbit distance with the shift maximized by scipy's BFGS from the
    best grid shift: C_j(y) from the spectra of psi and of ref moved by
    spectral_shift, the distance by h1_distance at the optimal phases."""
    grid = psi.grid
    weight = [grid.k2 + w for w in params.weights]
    spectra = [np.fft.fftn(c) for c in psi.components]

    def sums(y):
        moved = [spectral_shift(grid, c, tuple(y)) for c in ref.components]
        return [np.sum(w * s * np.conj(np.fft.fftn(m))) for w, s, m in zip(weight, spectra, moved)], moved

    start = np.array(orbit_distance(psi, ref, params, refine=False).shift)
    y = scipy.optimize.minimize(lambda y: -sum(abs(c) for c in sums(y)[0]), start, method="BFGS").x
    c, moved = sums(y)
    nearest = FieldPair(grid, *(np.exp(1j * np.angle(cj)) * m for cj, m in zip(c, moved)))
    return h1_distance(psi, nearest, params)


@settings(deadline=None, max_examples=30)
@given(
    dim=st.sampled_from([1, 2]),
    n_refs=st.integers(1, 2),
    seeds=st.tuples(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000)),
    shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    phases=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
    eps=st.floats(0.05, 1.0),
)
def test_newton_refinement_is_no_worse_than_bfgs(dim, n_refs, seeds, shift, phases, eps):
    grid = _ORBIT_GRIDS[dim - 1]
    params = SystemParams(p=2.0, beta=1.0, omega1=1.0, omega2=1.7)
    refs = [smooth_pair(grid, seed) for seed in seeds[:n_refs]]
    moved = [np.exp(1j * t) * spectral_shift(grid, c, shift[:dim]) for t, c in zip(phases, refs[0].components)]
    psi = FieldPair(grid, *moved) + eps * smooth_pair(grid, seeds[2])
    oracle = min(_bfgs_distance(psi, ref, params) for ref in refs)
    assert orbit_distance(psi, refs, params).distance <= oracle * (1.0 + 1e-10)


@settings(deadline=None, max_examples=40)
@given(dim=st.integers(1, 3), seed=st.integers(0, 10_000), shift=st.floats(-3.0, 3.0))
def test_ascent_step_solves_the_negative_definite_system(dim, seed, shift):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((dim, dim))
    hess = -(q @ q.T) + shift * np.eye(dim)
    grad = rng.standard_normal(dim)
    step = stability._ascent_step(grad, hess)
    top = np.linalg.eigvalsh(hess).max()
    if top < -1e-3:
        assert np.allclose(step, -np.linalg.solve(hess, grad), rtol=1e-8, atol=1e-10)
    elif top > 1e-3:
        assert step is None


def test_stability_does_not_import_scipy_optimize():
    # the shift is refined by Newton steps of its own
    tree = ast.parse(Path(stability.__file__).read_text(encoding="utf-8"))
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [m for m in modules if m.startswith("scipy.optimize") or m == "scipy"]


@pytest.mark.parametrize("family", [Family.VECTOR_B, Family.SCALAR_FIRST])
def test_orbit_distance_has_no_cancellation_floor(grid_1d, family):
    member = make_member(SolitonSpec.for_family(family, VECTOR), VECTOR, grid_1d)
    assert orbit_distance(member, member, VECTOR).distance <= 1e-12 * math.sqrt(h1_norm_sq(member, VECTOR))
    for seed in range(3):
        pert = perturbation_pair(grid_1d, VECTOR, seed=seed)
        slope = [orbit_distance(member + eps * pert, member, VECTOR).distance / eps for eps in (1e-9, 1e-6)]
        assert slope[0] == pytest.approx(slope[1], rel=1e-3)


def test_perturbation_pair_normalization_and_modes(grid_1d, cubic):
    pert = perturbation_pair(grid_1d, cubic, seed=0)
    assert h1_norm_sq(pert, cubic) == pytest.approx(1.0, abs=1e-12)
    first = perturbation_pair(grid_1d, cubic, mode="first", seed=0)
    assert np.abs(first.c2).max() == 0.0
    second = perturbation_pair(grid_1d, cubic, mode="second", seed=0)
    assert np.abs(second.c1).max() == 0.0
    other = perturbation_pair(grid_1d, cubic, seed=1)
    assert np.abs(pert.c1 - other.c1).max() > 1e-3
    with pytest.raises(ValueError):
        perturbation_pair(grid_1d, cubic, mode="sideways")


def test_stability_sweep_vector_member_short(grid_1d):
    verdict = stability_sweep(
        VECTOR,
        grid_1d,
        family="vector_b",
        epsilons=(0.0, 1e-3),
        dt=1e-3,
        t_end=2.0,
        sample_dt=0.5,
        seed=0,
    )
    assert verdict.classification == "stable_within_tolerance"
    assert verdict.epsilons == (0.0, 1e-3)
    # unperturbed run stays on the orbit up to the splitting error
    assert verdict.max_excursions[0] < 1e-5
    assert 1e-4 < verdict.initial_distances[1] < 1.1e-3
    assert verdict.max_excursions[1] < 10.0
    assert verdict.blowup_times == (None, None)
    assert len(verdict.details["distances"][1]) == 5
    with pytest.raises(ValueError):
        stability_sweep(VECTOR, grid_1d, family="everything")


def test_blowup_supercritical_dilation_collapses():
    g = Grid(1, 2048, 30.0)
    params = SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0)
    report = blowup_experiment(
        params,
        g,
        family="scalar_first",
        factor=1.1,
        dt=2e-4,
        t_max=1.0,
        guard_ratio=10.0,
    )
    assert report.mode == "dilation"
    assert report.collapsed and report.classification == "blow_up"
    assert report.blowup_time is not None and report.blowup_time < 1.0
    assert report.sigma > 0.0
    assert report.initial_virial < 0.0
    assert report.lemma_gap_ok
    assert report.concave
    assert report.bound_satisfied
    assert report.max_second_derivative < 0.0
    assert report.details["window_coverage"] == pytest.approx(1.0)


def test_blowup_critical_uses_amplification(grid_1d):
    params = SystemParams(p=3.0, beta=0.0, omega1=1.0, omega2=1.0)
    # too short to collapse; this checks datum preparation, not the run
    report = blowup_experiment(
        params, grid_1d, family="scalar_first", factor=1.05, dt=2e-4, t_max=0.05
    )
    assert report.mode == "amplification"
    assert not report.collapsed
    assert report.classification == "no_blow_up"
    assert report.sigma > 0.0
    assert report.initial_virial < 0.0


def test_blowup_refusals(grid_1d, cubic):
    with pytest.raises(ConstraintError):
        blowup_experiment(cubic, grid_1d)
    params = SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0)
    with pytest.raises(ValueError):
        blowup_experiment(params, grid_1d, factor=1.0)
    with pytest.raises(ValueError):
        blowup_experiment(params, grid_1d, family="everything")


def test_identity_audit_passes_at_vector_point(grid_1d_wide):
    report = identity_audit(VECTOR, grid_1d_wide, gamma_factors=(1.0, 2.0))
    assert report.ok
    names = [r.name for r in report.rows]
    assert "grad_partition" in names
    assert "coupling_partition" in names
    assert "mass_partition" in names
    assert "sphere_level_matches_ray_level" in names
    assert "transport_energy_x1" in names
    assert "transport_energy_x2" in names
    assert "pair_level_twice_scalar" in names
    assert max(r.rel_err for r in report.rows) < 1e-4


def test_audit_report_aggregation_and_csv():
    good = AuditRow(name="a", lhs=1.0, rhs=1.0, rel_err=0.0, ok=True)
    bad = AuditRow(name="b", lhs=1.0, rhs=2.0, rel_err=0.5, ok=False, note="planted")
    report = AuditReport(rows=(good, bad))
    assert not report.ok
    assert AuditReport(rows=(good,)).ok
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "name,lhs,rhs,rel_err,ok"
    fields = lines[2].split(",")
    assert fields[0] == "b" and float(fields[3]) == 0.5 and fields[4] == "0"
    assert "FAIL" in str(bad) and "ok" in str(good)
