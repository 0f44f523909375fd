"""Cross-checks between independently computed quantities.

Every row compares two routes to the same number: a constrained-flow output
against a closed form, a quadrature, or a second flow. A row failing its
tolerance means one of the routes is wrong, the grid is too coarse for the
requested parameters, or a flow stopped at a non-critical point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Grid, SystemParams, _check_number, _csv, relative_error
from .functionals import _Norms, action_I, energy_E
from .minimize import ConstraintSpec, minimize_on
from .profiles import Family, critical_value_map_T, make_member, nehari_to_sphere


@dataclass(frozen=True)
class AuditRow:
    name: str
    lhs: float
    rhs: float
    rel_err: float
    ok: bool

    def __str__(self):
        flag = "ok " if self.ok else "FAIL"
        return f"[{flag}] {self.name}: {self.lhs:.10g} vs {self.rhs:.10g} (rel {self.rel_err:.3g})"


@dataclass(frozen=True)
class AuditReport:
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def _table(self) -> tuple:
        return "name,lhs,rhs,rel_err,ok", [(r.name, r.lhs, r.rhs, r.rel_err, r.ok) for r in self.rows]

    def to_csv(self) -> str:
        return _csv(*self._table())

    def __str__(self):
        return "\n".join(str(r) for r in self.rows)


# row names of the identities of a zero-virial critical point, in the
# order of _Norms.partitions: the kinetic term is n times the level, and
# the level pins the potential term and the weighted mass
_PARTITIONS = ("grad_partition", "coupling_partition", "mass_partition")


def _row(name, lhs, rhs, tol):
    lhs = float(lhs)
    rhs = float(rhs)
    err = relative_error(lhs, rhs)
    return AuditRow(name=name, lhs=lhs, rhs=rhs, rel_err=err, ok=err <= tol)


def identity_audit(
    params: SystemParams,
    grid: Grid,
    *,
    tol: float = 1e-3,
    gamma_factors: tuple = (1.0, 2.0),
    flow_tol: float = 1e-8,
    seed: int = 0,
) -> AuditReport:
    """Run the identity battery at one parameter point.

    Rows always present: the three partition identities satisfied by any
    zero-virial critical point on the natural constraint, checked at the
    flow minimizer. Subcritical adds the sphere-level match and the
    scaling-transport rows at gamma_factors times the natural mass level;
    supercritical adds the zero-virial ray level match. The synchronized
    pair level is compared against twice the reduced scalar level whenever
    the frequencies agree. A row passes at relative error at most tol.
    tol, flow_tol and every gamma factor must be finite and positive
    (ValueError before any flow).
    """
    _check_number(tol, "audit tol")
    _check_number(flow_tol, "flow_tol")
    factors = [_check_number(fac, f"gamma_factors[{i}]") for i, fac in enumerate(gamma_factors)]
    n = grid.dim
    p = params.p
    rows = []

    res_n = minimize_on(ConstraintSpec.nehari(), params, grid, tol=flow_tol, seed=seed)
    U = res_n.minimizer
    m_n = res_n.action
    norms = _Norms.measure(U, params)
    for name, (lhs, rhs) in zip(_PARTITIONS, norms.partitions(m_n)):
        rows.append(_row(name, lhs, rhs, tol))

    crit = params.criticality(n)
    if crit == "subcritical":
        # the minimizer's own mass, not the level-implied value: keeps the
        # factor-1 transport an exact identity instead of a 1e-9 resample
        gamma0 = norms.weighted_mass
        res_s = minimize_on(
            ConstraintSpec.weighted_sphere(gamma0), params, grid, tol=flow_tol, seed=seed
        )
        rows.append(_row("sphere_level_matches_ray_level", res_s.action, m_n, tol))
        for fac in factors:
            gamma = fac * gamma0
            V, _nu = nehari_to_sphere(U, params, gamma)
            target = critical_value_map_T(m_n, gamma, p, n)
            rows.append(_row(f"transport_energy_x{fac:g}", energy_E(V, params), target, tol))

    if params.omega1 == params.omega2 and params.existence_ok(n):
        res_pair = minimize_on(
            ConstraintSpec.nehari_set(), params, grid, tol=flow_tol, seed=seed
        )
        scalar_params = SystemParams(
            p=p, beta=0.0, omega1=params.omega1, omega2=params.omega2
        )
        member = make_member(Family.SCALAR_FIRST, scalar_params, grid)
        # the two-sided level is twice the reduced one-component level
        m1_reduced = (1.0 + params.beta) ** (-1.0 / (p - 1.0)) * action_I(member, scalar_params)
        rows.append(_row("pair_level_twice_scalar", res_pair.action, 2.0 * m1_reduced, tol))

    if crit == "supercritical":
        res_p = minimize_on(
            ConstraintSpec.pohozaev(), params, grid, tol=flow_tol, seed=seed
        )
        rows.append(_row("zero_virial_level_matches", res_p.action, m_n, tol))

    return AuditReport(rows=tuple(rows))
