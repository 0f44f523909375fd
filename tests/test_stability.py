import ast
import math
from pathlib import Path
from types import SimpleNamespace

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
from cnls_lab import audit, profiles, stability
from cnls_lab.profiles import spectral_shift
from cnls_lab.stability import _Orbits

from conftest import smooth_pair

VECTOR = SystemParams(p=2.0, beta=2.0, omega1=1.0, omega2=1.0)


def _angle_diff(a, b):
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def test_orbit_distance_recovers_planted_symmetry(grid_1d):
    ref = make_member(Family.VECTOR_B, VECTOR, grid_1d)
    psi = make_member(Family.VECTOR_B, VECTOR, grid_1d, theta1=0.9, theta2=-0.4, shift=1.5)
    res = orbit_distance(psi, ref, VECTOR)
    assert res.distance < 1e-6
    assert abs(res.shift[0] - 1.5) < 1e-5
    assert _angle_diff(res.phases[0], 0.9) < 1e-5
    assert _angle_diff(res.phases[1], -0.4) < 1e-5
    assert res.reference_index == 0


def test_orbit_distance_grid_aligned(grid_1d):
    ref = make_member(Family.VECTOR_B, VECTOR, grid_1d)
    y = 8 * grid_1d.dx
    psi = make_member(Family.VECTOR_B, VECTOR, grid_1d, shift=y)
    res = orbit_distance(psi, ref, VECTOR)
    assert res.distance < 1e-8
    assert abs(res.shift[0] - y) < 1e-9


def test_orbit_distance_picks_nearest_reference(grid_1d):
    scalar = make_member(Family.SCALAR_FIRST, VECTOR, grid_1d)
    vector = make_member(Family.VECTOR_B, VECTOR, grid_1d)
    refs = [scalar, vector]
    near_vector = vector + 1e-3 * perturbation_pair(grid_1d, VECTOR, seed=3)
    assert orbit_distance(near_vector, refs, VECTOR).reference_index == 1
    assert orbit_distance(scalar, refs, VECTOR).reference_index == 0
    with pytest.raises(ValueError):
        orbit_distance(scalar, [], VECTOR)


def test_orbit_distance_transform_budget(grid_1d, transform_calls):
    refs = [make_member(f, VECTOR, grid_1d) for f in Family]
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
)
def test_orbit_distance_is_the_distance_to_the_returned_orbit_point(dim, seeds, shift, phases, eps):
    grid = _ORBIT_GRIDS[dim - 1]
    params = SystemParams(p=2.0, beta=1.0, omega1=1.0, omega2=1.7)
    ref = smooth_pair(grid, seeds[0])
    moved = [np.exp(1j * t) * spectral_shift(grid, c, (shift,) * dim) for t, c in zip(phases, ref.components)]
    psi = FieldPair(grid, *moved) + eps * smooth_pair(grid, seeds[1])
    res = orbit_distance(psi, ref, params)
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

    # C_j at every grid shift y = m dx is N ifftn of w psi_hat conj(v_hat)
    # at m; start from the shift that maximizes |C_1| + |C_2|
    score = sum(np.abs(np.fft.ifftn(w * s * np.conj(np.fft.fftn(c)))) for w, s, c in zip(weight, spectra, ref.components))
    best = np.array(np.unravel_index(np.argmax(score), score.shape))
    start = (best * grid.dx + grid.half_width) % (2.0 * grid.half_width) - grid.half_width
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
@given(
    dim=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    shift=st.floats(-3.0, 3.0),
    poison=st.sampled_from([None, math.nan, math.inf, -math.inf]),
)
def test_ascent_step_solves_the_negative_definite_system(dim, seed, shift, poison):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((dim, dim))
    hess = -(q @ q.T) + shift * np.eye(dim)
    grad = rng.standard_normal(dim)
    if poison is not None:
        # a Hessian that is not finite has no Newton step, whatever its
        # other entries; LAPACK passes a NaN through without an error
        i, j = rng.integers(dim, size=2)
        hess[i, j] = hess[j, i] = poison
        assert stability._ascent_step(grad, hess) is None
        return
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
    member = make_member(family, VECTOR, grid_1d)
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
    # one rule for every run: its excursion, relative to d(0) except at
    # epsilon = 0, against the bound of its kind
    for eps, dists, excursion, cls in zip(
        verdict.epsilons, verdict.details["distances"], verdict.max_excursions, verdict.classifications
    ):
        assert excursion == dists.max() / (dists[0] if eps else 1.0)
        bound = 10.0 if eps else 1e-5
        assert cls == ("stable_within_tolerance" if excursion <= bound else "excursion_growth")
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


def test_blowup_backward_in_time_tests_its_first_window():
    # a real datum run backward is the conjugate of the forward run, so the
    # concavity test must read the same first window_fraction of it
    g = Grid(1, 512, 30.0)
    params = SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0)
    forward, backward = (
        blowup_experiment(params, g, family="scalar_first", dt=sign * 5e-4, t_max=sign * 1.0, guard_ratio=10.0)
        for sign in (1.0, -1.0)
    )
    assert backward.blowup_time == -forward.blowup_time
    assert backward.concave and backward.bound_satisfied
    assert backward.max_second_derivative == pytest.approx(forward.max_second_derivative, rel=1e-6)
    assert backward.details["window_coverage"] > 0.9


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


@pytest.mark.parametrize("dt, sample_dt", [(0.0, 0.5), (1e-3, math.inf), (1e-3, -math.inf), (1e-3, math.nan)])
def test_sweep_refuses_a_sampling_stride_that_is_not_finite(grid_1d, cubic, dt, sample_dt):
    with pytest.raises(ValueError, match="sampling stride"):
        stability_sweep(cubic, grid_1d, family="scalar_first", dt=dt, t_end=0.01, sample_dt=sample_dt)


@pytest.mark.parametrize("eps", [1e-320, -1e-300, 1e-13])
def test_sweep_refuses_an_epsilon_below_the_distance_floor(eps):
    # d(0) of such a perturbation is the roundoff of the orbit distance, so
    # its excursion would read as growth
    with pytest.raises(ValueError, match="orbit distance floor"):
        stability_sweep(VECTOR, Grid(1, 64, 20.0), family="vector_b", epsilons=(0.0, eps), t_end=0.05)


def test_sweep_accepts_an_epsilon_above_the_distance_floor():
    # d(0) is the perturbation's distance to the orbit, at most epsilon
    verdict = stability_sweep(VECTOR, Grid(1, 64, 20.0), family="vector_b", epsilons=(1e-9,), t_end=0.05)
    assert 0.5e-9 < verdict.initial_distances[0] <= 1e-9


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


def test_identity_audit_passes_in_2d():
    # the transport rows resample the minimizer with scale_field's per-axis
    # matrix, the path of 2d and 3d grids
    report = identity_audit(SystemParams(p=1.5, beta=2.0, omega1=1.0, omega2=1.0), Grid(2, 128, 20.0))
    assert report.ok
    assert len(report.rows) == 7
    assert max(r.rel_err for r in report.rows) < 1e-7


@pytest.mark.parametrize("omega2", [1.0, 1.3])
def test_identity_audit_runs_the_zero_virial_flow_when_supercritical(omega2):
    # p = 4 is mass-supercritical in 1d, so the audit runs the Pohozaev
    # flow, whose level must match the Nehari level (relative 3e-16 and
    # 2e-16 on this grid); unequal frequencies leave out the pair row
    params = SystemParams(p=4.0, beta=0.5, omega1=1.0, omega2=omega2)
    report = identity_audit(params, Grid(1, 1024, 24.0))
    rows = {r.name: r for r in report.rows}
    assert report.ok
    assert rows["zero_virial_level_matches"].rel_err < 1e-12
    assert ("pair_level_twice_scalar" in rows) == (omega2 == 1.0)


def test_audit_report_aggregation_and_csv():
    good = AuditRow(name="a", lhs=1.0, rhs=1.0, rel_err=0.0, ok=True)
    bad = AuditRow(name="b", lhs=1.0, rhs=2.0, rel_err=0.5, ok=False)
    report = AuditReport(rows=(good, bad))
    assert not report.ok
    assert AuditReport(rows=(good,)).ok
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "name,lhs,rhs,rel_err,ok"
    fields = lines[2].split(",")
    assert fields[0] == "b" and float(fields[3]) == 0.5 and fields[4] == "0"
    assert "FAIL" in str(bad) and "ok" in str(good)


_SETTING_RUNS = {
    "sweep": lambda grid, **kw: stability_sweep(VECTOR, grid, family="vector_b", **kw),
    "blowup": lambda grid, **kw: blowup_experiment(
        SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0), grid, family="scalar_first", **kw
    ),
    "audit": lambda grid, **kw: identity_audit(VECTOR, grid, **kw),
}


@pytest.mark.parametrize(
    "run, key, value",
    [
        *(
            ("sweep", key, v)
            for key in ("excursion_ratio", "zero_orbit_tol", "sample_dt")
            for v in (math.nan, math.inf, -1.0, 0.0)
        ),
        ("sweep", "excursion_ratio", 0.5),
        *(("blowup", "window_fraction", v) for v in (math.nan, math.inf, -1.0, 0.0, 1.5)),
        *(("blowup", "margin", v) for v in (math.nan, math.inf, -1.0, 1.0)),
        *(("audit", "tol", v) for v in (math.nan, math.inf, -1.0, 0.0)),
        *(("audit", "gamma_factors", (v,)) for v in (math.nan, math.inf, -1.0, 0.0)),
        ("audit", "gamma_factors", (1.0, -1.0)),
        *(("sweep", "epsilons", v) for v in ((math.nan,), (0.0, math.inf), (-math.inf,))),
        *(("sweep", "t_end", v) for v in (math.nan, math.inf, -1.0, 0.0, 1e12)),
        ("sweep", "perturb_mode", "everything"),
        *(("blowup", "dt", v) for v in (math.nan, math.inf, -1.0, 0.0)),
        *(("blowup", "t_max", v) for v in (math.nan, math.inf, -1.0, 0.0, 1e12)),
        *(("blowup", "guard_ratio", v) for v in (math.nan, -1.0, 0.0, 1.0)),
        *(("sweep", "tol", v) for v in (math.nan, math.inf, -1.0, 0.0)),
        # batches that would hold more than evolve's ceiling of complex values
        ("sweep", "t_end", 1e5),
        ("sweep", "epsilons", (0.0,) * 200_000),
        *(("blowup", "tol", v) for v in (math.nan, math.inf, -1.0, 0.0)),
        *(("audit", "flow_tol", v) for v in (math.nan, math.inf, -1.0, 0.0)),
        ("blowup", "factor", math.inf),
        ("blowup", "guard_ratio", math.inf),
        # a string or a bool is not a number
        *(("audit", "gamma_factors", (v,)) for v in ("2", True)),
        # a bare number is not a sequence of epsilons
        ("sweep", "epsilons", 1e-2),
    ],
)
def test_absurd_settings_are_refused_before_any_flow(monkeypatch, grid_1d, run, key, value):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow or evolution ran before the settings were checked")

    for module, name in ((stability, "_family_state"), (stability, "evolve"), (audit, "minimize_on")):
        monkeypatch.setattr(module, name, no_flow)
    with pytest.raises(ValueError, match=key):
        _SETTING_RUNS[run](grid_1d, **{key: value})


@pytest.mark.parametrize("omega2", [1.0, 2.0])
@pytest.mark.parametrize("classification", ["scalar_first", "scalar_second"])
def test_ground_family_builds_only_the_members_it_returns(monkeypatch, classification, omega2):
    # on 2d grids each scalar member runs a base-profile flow of its own
    grid = Grid(2, 16, 8.0)
    params = SystemParams(p=1.5, beta=0.0, omega1=1.0, omega2=omega2)
    omegas = []

    def base_profile(p, grid, *, omega=1.0):
        omegas.append(omega)
        return profiles.BaseProfileResult(values=np.exp(-omega * grid.radius_sq()), residual=0.0, iterations=0)

    monkeypatch.setattr(profiles, "base_profile_nd", base_profile)
    monkeypatch.setattr(stability, "ground_state", lambda *a, **kw: SimpleNamespace(classification=classification))
    base, refs = stability._family_state("ground", params, grid, tol=1e-8, seed=0)
    families = [Family.SCALAR_FIRST, Family.SCALAR_SECOND]
    if classification == "scalar_second":
        families.reverse()
    if omega2 != 1.0:
        del families[1:]
    assert omegas == [params.omega2 if f is Family.SCALAR_SECOND else 1.0 for f in families]
    assert refs[0] is base
    for ref, family in zip(refs, families, strict=True):
        assert np.array_equal(ref.components, make_member(family, params, grid).components)


def test_blowup_takes_amplification_at_the_float_nearest_five_thirds_in_3d():
    # 3 (p - 1) is exactly 2 there: the dilation would leave the action flat
    params = SystemParams(p=5.0 / 3.0, beta=0.0, omega1=1.0, omega2=1.0)
    grid = Grid(3, 16, 6.0)
    assert params.criticality(3) == "critical"
    report = blowup_experiment(params, grid, family="scalar_first", t_max=0.01)
    assert report.mode == "amplification" and report.sigma > 0
