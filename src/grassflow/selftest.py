"""Seeded invariant suite behind the ``selftest`` CLI subcommand.

Each check exercises one documented invariant with fixed seeds and reports
the worst observed violation against its bound.  Checks that raise are
reported as failures rather than aborting the run, so absurd tolerance
overrides degrade into a legible failure table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bundle, dynamics, grassmann
from .grassmann import BasePoint, ChartTangent, Projector, _random_base
from .linalg import (DEFAULT_TOLS, Tolerances, dag, frob, isometrize,
                     mat_exp, nearest_projector, random_antihermitian,
                     random_complex, random_frame, random_unitary)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float
    passed: bool
    note: str = ""


def _guard(results, name, bound, trial, trials=1):
    """Run a check's ``trials`` trials and report the largest value; exceptions become failed rows.

    A NaN from any trial is the row's value, and fails it.
    """
    try:
        value = np.max([trial() for _ in range(trials)])
    except Exception as exc:  # noqa: BLE001 - report, don't abort
        results.append(CheckResult(name=name, value=float("nan"), bound=bound,
                                   passed=False, note=type(exc).__name__))
        return
    results.append(CheckResult(name=name, value=float(value), bound=bound,
                               passed=float(value) <= bound))


def _random_block(base, rng, scale=1.0):
    blk = random_complex(base.n - base.m, base.m, rng)
    return ChartTangent(base=base, block=scale * blk / max(np.linalg.norm(blk), 1e-12))


def checks_linalg(tol: Tolerances):
    results = []
    rng = np.random.default_rng(101)

    def iso_defect():
        n = int(rng.integers(2, 33))
        m = int(rng.integers(1, n))
        q = isometrize(random_complex(n, m, rng), tol)
        return frob(dag(q) @ q - np.eye(m))
    _guard(results, "linalg.isometrize_orthonormal", 1e-12, iso_defect, trials=20)

    def iso_idempotent():
        q = isometrize(random_complex(8, 3, rng), tol)
        return frob(isometrize(q, tol) - q)
    _guard(results, "linalg.isometrize_projectively_idempotent", 1e-13, iso_idempotent,
           trials=10)

    def expm_inverse():
        a = random_complex(6, 6, rng)
        a = a * (5.0 / max(np.linalg.norm(a), 1e-12))
        return frob(mat_exp(a) @ mat_exp(-a) - np.eye(6))
    _guard(results, "linalg.mat_exp_inverse", 1e-10, expm_inverse, trials=10)

    def expm_unitary():
        a = random_antihermitian(6, rng)
        return bundle.frame_defect(mat_exp(a))
    _guard(results, "linalg.mat_exp_unitary_on_antihermitian", 1e-10, expm_unitary, trials=10)

    def retraction_invariants():
        g = random_complex(6, 6, rng)
        h = (g + dag(g)) / 2
        p = nearest_projector(h, 2, tol)
        return grassmann.projector_defect(p, 2)
    _guard(results, "linalg.nearest_projector_invariants", 1e-12, retraction_invariants,
           trials=10)
    return results


def checks_grassmann(tol: Tolerances):
    results = []
    rng = np.random.default_rng(202)

    def roundtrip():
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, n))
        base = _random_base(random_unitary(n, rng), m, tol)
        f = _random_block(base, rng, scale=float(rng.uniform(0, 10)))
        q = grassmann.proj_from_chart(base, f)
        back = grassmann.chart_from_proj(base, q, tol)
        return max(frob(back.block - f.block), q.defect())
    _guard(results, "grassmann.chart_roundtrip", 1e-10, roundtrip, trials=50)

    def embed_extract():
        base = _random_base(random_unitary(6, rng), 2, tol)
        f = _random_block(base, rng)
        v = grassmann.tangent_embed(f)
        back = grassmann.tangent_extract(base, v, tol)
        return max(frob(back.block - f.block),
                   frob(grassmann.tangent_embed(back).matrix - v.matrix))
    _guard(results, "grassmann.tangent_embed_extract_roundtrip", 1e-12, embed_extract,
           trials=20)

    def equivariance():
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        base = _random_base(random_unitary(n, rng), m, tol)
        f = _random_block(base, rng, scale=2.0)
        u = random_unitary(n, rng)
        moved = grassmann.chart_transport(u, f, tol)
        lhs = grassmann.proj_from_chart(moved.base, moved).matrix
        rhs = u @ grassmann.proj_from_chart(base, f).matrix @ dag(u)
        return frob(lhs - rhs)
    _guard(results, "grassmann.chart_transport_equivariance", 1e-9, equivariance, trials=20)

    def symplectic_algebra():
        base = _random_base(random_unitary(5, rng), 2, tol)
        p = base.projector
        a = grassmann.tangent_embed(_random_block(base, rng))
        b = grassmann.tangent_embed(_random_block(base, rng))
        c = grassmann.tangent_embed(_random_block(base, rng))
        s = float(rng.standard_normal())
        ab = grassmann.symplectic_form(p, a, b, tol)
        return max(
            abs(ab + grassmann.symplectic_form(p, b, a, tol)),
            abs(grassmann.symplectic_form(p, a, a, tol)),
            abs(grassmann.symplectic_form(
                p, grassmann.EmbeddedTangent(s * a.matrix + c.matrix), b, tol)
                - s * ab - grassmann.symplectic_form(p, c, b, tol)),
        )
    _guard(results, "grassmann.symplectic_antisymmetric_bilinear", 1e-12,
           symplectic_algebra, trials=20)

    def duality():
        h = 1e-5
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        base = _random_base(random_unitary(n, rng), m, tol)
        u = random_antihermitian(n, rng)
        f = _random_block(base, rng)
        v = grassmann.tangent_embed(f)

        def along(s):
            q = grassmann.proj_from_chart(
                base, ChartTangent(base=base, block=s * f.block))
            return grassmann.linear_hamiltonian(u, q, tol)

        du = (along(h) - along(-h)) / (2 * h)
        om = grassmann.symplectic_form(
            base.projector, grassmann.ham_field(u, base.projector, tol), v, tol)
        return abs(du - om) / (1.0 + abs(du))
    _guard(results, "grassmann.hamiltonian_duality", 1e-5, duality, trials=20)

    def ham_tangency():
        base = _random_base(random_unitary(6, rng), 2, tol)
        p = base.projector.matrix
        v = grassmann.ham_field(random_antihermitian(6, rng), base.projector, tol).matrix
        return frob(p @ v + v @ p - v)
    _guard(results, "grassmann.ham_field_tangency", 1e-12, ham_tangency, trials=20)
    return results


def checks_bundle(tol: Tolerances):
    results = []
    rng = np.random.default_rng(303)

    def group_action():
        phi = random_frame(6, 2, rng)
        g = random_unitary(2, rng)
        moved = phi @ g
        return max(frob(dag(moved) @ moved - np.eye(2)),
                   frob(moved @ dag(moved) - phi @ dag(phi)))
    _guard(results, "bundle.structure_group_action", 1e-12, group_action, trials=20)

    def fiber_transitivity():
        phi = random_frame(6, 2, rng)
        psi = phi @ random_unitary(2, rng)
        g = dag(psi) @ phi
        return max(frob(dag(g) @ g - np.eye(2)), frob(psi @ g - phi))
    _guard(results, "bundle.fiber_transitivity", 1e-10, fiber_transitivity, trials=20)

    def lift_horizontal():
        base = _random_base(random_unitary(6, rng), 2, tol)
        phi = base.frame @ random_unitary(2, rng)
        xi = bundle.horizontal_lift(phi, _random_block(base, rng), tol)
        return frob(bundle.connection_A(phi, xi, tol))
    _guard(results, "bundle.connection_vanishes_on_lifts", 1e-12, lift_horizontal, trials=20)

    def dpi_identity():
        base = _random_base(random_unitary(6, rng), 2, tol)
        phi = base.frame
        xi = bundle.horizontal_lift(phi, _random_block(base, rng), tol)
        push = xi @ dag(phi) + phi @ dag(xi)
        p = base.projector.matrix
        return max(frob(push - dag(push)), abs(complex(np.trace(push))),
                   frob(p @ push + push @ p - push))
    _guard(results, "bundle.pushforward_is_tangent", 1e-12, dpi_identity, trials=20)

    # ten trials at each (n, m), in this order
    shapes = iter([shape for shape in [(6, 2), (3, 2), (7, 3), (4, 3)] for _ in range(10)])

    def generator_reconstruction():
        n, m = next(shapes)
        phi = np.eye(n, dtype=complex)[:, :m]
        w = random_antihermitian(m, rng)
        pairs = bundle.curvature_generators(w, n, tol)
        total = np.zeros((m, m), dtype=complex)
        for u, v in pairs:
            total += bundle.curvature_Omega(phi, u, v, tol)
        return frob(total - w)
    _guard(results, "bundle.curvature_generator_reconstruction", 1e-12,
           generator_reconstruction, trials=40)
    return results


def checks_dynamics(tol: Tolerances):
    results = []
    rng = np.random.default_rng(404)
    n, m = 4, 2
    grid = dynamics.TimeGrid(0.0, 1.0, 800)

    def smooth_schedule():
        a = random_antihermitian(n, rng)
        b = random_antihermitian(n, rng)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        return dynamics.HamiltonianSchedule(
            lambda t: np.multiply.outer(np.cos(t), a) + np.multiply.outer(np.sin(t), b))

    def bundle_consistency():
        sched = smooth_schedule()
        phi0 = random_frame(n, m, rng)
        p0 = Projector.from_frame(phi0)
        fpath = dynamics.integrate_frame(sched, phi0, grid, tol)
        ppath = dynamics.integrate_projector(sched, p0, grid, tol)
        return max(dynamics.tracking_defect(ppath, fpath),
                   ppath.node_defect(), fpath.node_defect())
    _guard(results, "dynamics.bundle_consistency", 1e-7, bundle_consistency, trials=3)

    def transport_horizontality():
        sched = smooth_schedule()
        phi0 = random_frame(n, m, rng)
        ppath = dynamics.integrate_projector(sched, Projector.from_frame(phi0), grid, tol)
        hpath = dynamics.horizontal_transport(ppath, phi0, tol)
        return dynamics.horizontality_defect(hpath)
    _guard(results, "dynamics.transport_horizontality", 1e-6, transport_horizontality)

    def energy_conservation():
        h_mat = random_antihermitian(n, rng)
        h_mat = h_mat * (2.0 / np.linalg.norm(h_mat))
        phi0 = random_frame(n, m, rng)
        ppath = dynamics.integrate_projector(
            dynamics.constant_schedule(h_mat), Projector.from_frame(phi0), grid, tol)
        energies = grassmann.hamiltonian_value(h_mat @ ppath.samples)
        return float(energies.max() - energies.min())
    _guard(results, "dynamics.energy_conservation", 1e-8, energy_conservation)

    def geometric_fiber_gap():
        a = random_antihermitian(n, rng)
        a = a / np.linalg.norm(a)
        p0 = Projector.standard(n, m)

        def qfun(t):
            u = mat_exp(np.sin(2 * np.pi * np.asarray(t)[..., np.newaxis, np.newaxis]) * a)
            return u @ p0.matrix @ dag(u)

        sched = dynamics.geometric_schedule(qfun)
        sigma = BasePoint.standard(n, m).frame
        res = dynamics.berry_maps(sched, p0, sigma, dynamics.TimeGrid(0, 1, 1000), tol)
        return frob(res.fiber_gap - np.eye(m))
    _guard(results, "dynamics.geometric_fiber_gap", 1e-8, geometric_fiber_gap)

    def vertical_component_law():
        sched = smooth_schedule()
        phi0 = random_frame(n, m, rng)
        fpath = dynamics.integrate_frame(sched, phi0, grid, tol)
        derivs = grassmann.sampled_derivative(fpath.samples, grid.h, 4)
        phis = fpath.samples
        gaps = dag(phis) @ derivs - dag(phis) @ sched.table(grid.times) @ phis
        return float(np.linalg.norm(gaps, axis=(1, 2)).max())
    _guard(results, "dynamics.vertical_component_law", 1e-8, vertical_component_law)
    return results


def run_all(tol: Tolerances = DEFAULT_TOLS):
    """Run every module's invariant checks.  Returns (results, report text)."""
    results = []
    for section in (checks_linalg, checks_grassmann, checks_bundle, checks_dynamics):
        results.extend(section(tol))
    width = max(len(r.name) for r in results)
    lines = [f"{'check'.ljust(width)}  {'worst':>12}  {'bound':>9}  status"]
    for r in results:
        status = "pass" if r.passed else ("FAIL " + r.note).strip()
        lines.append(f"{r.name.ljust(width)}  {r.value:12.3e}  {r.bound:9.0e}  {status}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{n_fail} of {len(results)} checks failed"
                 if n_fail else f"all {len(results)} checks passed")
    return results, "\n".join(lines) + "\n"
