"""Competitive binding: cross-reactivity and specificity.

"Specific analyte detection is achieved by taking advantage of
bio-affinity recognition" — but no antibody is perfectly specific.  A
related molecule with a (weaker) affinity for the same probe competes
for the same sites, and the sensor cannot tell the two coverages apart.
This module models N species competing for one probe layer:

equilibrium (competitive Langmuir isotherm):

    theta_i = (C_i / K_i) / (1 + sum_j C_j / K_j)

kinetics (coupled ODEs, integrated with SciPy):

    d theta_i / dt = k_on,i C_i (1 - sum_j theta_j) - k_off,i theta_i

The specificity benches quantify the classic outcomes: a high-abundance
weak cross-reactant can mimic a trace target at equilibrium, and —
because it also *unbinds* faster — a wash step separates the two, which
is why assay protocols wash.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AssayError, ConvergenceError
from ..units import require_nonnegative
from .analytes import Analyte


def competitive_equilibrium(
    analytes: list[Analyte], concentrations: list[float]
) -> np.ndarray:
    """Equilibrium coverages of N species on one probe layer.

    Returns ``theta_i`` per species; the free-site fraction is
    ``1 - sum(theta)``.
    """
    if len(analytes) != len(concentrations) or not analytes:
        raise AssayError("need matching non-empty analyte/concentration lists")
    loads = []
    for analyte, c in zip(analytes, concentrations):
        require_nonnegative("concentration", c)
        kd = analyte.dissociation_constant
        if kd == 0.0:
            raise AssayError(
                f"{analyte.name}: irreversible binders (K_D = 0) have no "
                "competitive equilibrium; use the kinetic model"
            )
        loads.append(c / kd)
    total = 1.0 + sum(loads)
    return np.asarray([load / total for load in loads])


def competitive_transient(
    analytes: list[Analyte],
    concentrations: list[float],
    times: np.ndarray,
    initial_coverages: np.ndarray | None = None,
) -> np.ndarray:
    """Coverage-vs-time for N competing species; shape (N, len(times)).

    Concentrations are constant over the segment (chain segments for
    injection/wash protocols, carrying the final coverages across).
    """
    from scipy.integrate import solve_ivp

    if len(analytes) != len(concentrations) or not analytes:
        raise AssayError("need matching non-empty analyte/concentration lists")
    t = np.asarray(times, dtype=float)
    if len(t) < 1 or np.any(t < 0.0) or np.any(np.diff(t) <= 0.0):
        raise AssayError("times must be non-negative and strictly increasing")
    n = len(analytes)
    theta0 = (
        np.zeros(n)
        if initial_coverages is None
        else np.asarray(initial_coverages, dtype=float)
    )
    if theta0.shape != (n,) or np.any(theta0 < 0.0) or np.sum(theta0) > 1.0:
        raise AssayError(
            "initial coverages must be non-negative with sum <= 1"
        )

    k_on = np.asarray([a.k_on for a in analytes])
    k_off = np.asarray([a.k_off for a in analytes])
    c = np.asarray(concentrations, dtype=float)

    def rhs(_t, theta):
        free = max(0.0, 1.0 - float(np.sum(theta)))
        return k_on * c * free - k_off * np.clip(theta, 0.0, 1.0)

    t_span = (0.0, float(t[-1]) if t[-1] > 0.0 else 1e-9)
    solution = solve_ivp(
        rhs,
        t_span,
        theta0,
        t_eval=np.clip(t, 0.0, t_span[1]),
        method="LSODA",
        rtol=1e-8,
        atol=1e-12,
    )
    if not solution.success:
        raise ConvergenceError(
            f"competitive-binding integration failed: {solution.message}"
        )
    return np.clip(solution.y, 0.0, 1.0)


@dataclass(frozen=True)
class CrossReactivityReport:
    """Specificity analysis of one probe against a cross-reactant."""

    target_coverage: float
    interferent_coverage: float
    selectivity: float
    apparent_excess_fraction: float


def cross_reactivity(
    target: Analyte,
    target_concentration: float,
    interferent: Analyte,
    interferent_concentration: float,
) -> CrossReactivityReport:
    """Equilibrium specificity of a probe layer against an interferent.

    ``selectivity`` is the coverage ratio normalized by the concentration
    ratio (1 = no discrimination; large = specific);
    ``apparent_excess_fraction`` is the fraction of the *measured*
    coverage signal actually caused by the interferent.
    """
    thetas = competitive_equilibrium(
        [target, interferent],
        [target_concentration, interferent_concentration],
    )
    theta_t, theta_i = float(thetas[0]), float(thetas[1])
    conc_ratio = (
        interferent_concentration / target_concentration
        if target_concentration > 0.0
        else np.inf
    )
    coverage_ratio = theta_t / theta_i if theta_i > 0.0 else np.inf
    total = theta_t + theta_i
    return CrossReactivityReport(
        target_coverage=theta_t,
        interferent_coverage=theta_i,
        selectivity=coverage_ratio * conc_ratio,
        apparent_excess_fraction=theta_i / total if total > 0.0 else 0.0,
    )


def weakened_analyte(analyte: Analyte, affinity_penalty: float, name: str | None = None) -> Analyte:
    """A cross-reactant: same molecule class, ``affinity_penalty``x weaker.

    Models the off-target binder by scaling ``k_off`` up (the usual
    physical situation: similar encounter rate, faster escape).
    """
    if affinity_penalty <= 1.0:
        raise AssayError("affinity penalty must exceed 1 (weaker binding)")
    return Analyte(
        name=name or f"{analyte.name}_crossreactant",
        molecular_mass=analyte.molecular_mass,
        k_on=analyte.k_on,
        k_off=analyte.k_off * affinity_penalty,
        surface_stress_full_coverage=analyte.surface_stress_full_coverage,
        full_coverage_density=analyte.full_coverage_density,
    )
