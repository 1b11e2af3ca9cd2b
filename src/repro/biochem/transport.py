"""Mass-transport-limited binding: when diffusion, not affinity, sets the rate.

The pure Langmuir model of :mod:`repro.biochem.binding` assumes the
analyte concentration at the cantilever surface equals the bulk value.
In a real flow cell, binding *consumes* analyte faster than diffusion
replenishes it, and the surface concentration drops — the famous
transport limitation of surface assays (Squires, Messinger & Manalis,
Nat. Biotech. 2008).

Model: a stagnant boundary layer of thickness ``delta`` couples surface
to bulk with mass-transfer coefficient ``k_m = D / delta``
[m/s].  Quasi-static flux balance at the surface,

    k_m (C_bulk - C_s) = Gamma_max (k_on C_s (1 - theta) - k_off theta),

solves for ``C_s`` in closed form at every instant, giving an ODE for
``theta`` that is integrated with SciPy.  The dimensionless Damkoehler
number

    Da = k_on Gamma_max / k_m

tells the regime: ``Da << 1`` recovers reaction-limited Langmuir
kinetics; ``Da >> 1`` makes the early-time binding rate
``k_m C_bulk / Gamma_max`` — independent of affinity, which is why
transport-limited assays cannot distinguish strong from weak binders by
kinetics alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AssayError, ConvergenceError
from ..units import require_fraction, require_nonnegative, require_positive
from .analytes import Analyte

#: Typical protein diffusivity in aqueous buffer [m^2/s].
PROTEIN_DIFFUSIVITY: float = 4.0e-11

#: Typical small-oligo DNA diffusivity [m^2/s].
DNA_DIFFUSIVITY: float = 1.0e-10


@dataclass(frozen=True)
class TransportModel:
    """Boundary-layer transport parameters for one assay cell.

    Parameters
    ----------
    diffusivity:
        Analyte diffusion coefficient ``D`` [m^2/s].
    boundary_layer:
        Effective stagnant-layer thickness ``delta`` [m]; tens of um for
        a slow flow cell, a few um under vigorous flow.
    site_density:
        Available probe surface density ``Gamma_max`` [1/m^2] (already
        including immobilization efficiency).
    """

    diffusivity: float = PROTEIN_DIFFUSIVITY
    boundary_layer: float = 30e-6
    site_density: float = 1e16

    def __post_init__(self) -> None:
        require_positive("diffusivity", self.diffusivity)
        require_positive("boundary_layer", self.boundary_layer)
        require_positive("site_density", self.site_density)

    @property
    def mass_transfer_coefficient(self) -> float:
        """``k_m = D / delta`` [m/s]."""
        return self.diffusivity / self.boundary_layer

    def damkoehler(self, analyte: Analyte) -> float:
        """``Da = k_on Gamma_max / k_m`` — transport limitation index."""
        return (
            analyte.k_on * self.site_density / self.mass_transfer_coefficient
        )


def surface_concentration(
    analyte: Analyte,
    transport: TransportModel,
    bulk_concentration: float,
    coverage: float,
) -> float:
    """Quasi-static analyte concentration at the surface [molecules/m^3].

    Closed-form solution of the flux balance; always in
    ``[0, max(C_bulk, C_eq)]``.
    """
    require_nonnegative("bulk_concentration", bulk_concentration)
    require_fraction("coverage", coverage)
    k_m = transport.mass_transfer_coefficient
    gamma = transport.site_density
    numerator = k_m * bulk_concentration + gamma * analyte.k_off * coverage
    denominator = k_m + gamma * analyte.k_on * (1.0 - coverage)
    return numerator / denominator


def transport_limited_transient(
    analyte: Analyte,
    transport: TransportModel,
    bulk_concentration: float,
    times: np.ndarray,
    initial_coverage: float = 0.0,
) -> np.ndarray:
    """Coverage-vs-time with the boundary-layer limitation.

    Integrates ``d theta/dt = k_on C_s (1-theta) - k_off theta`` with the
    quasi-static ``C_s`` from :func:`surface_concentration`.

    Raises
    ------
    ConvergenceError
        If the stiff integrator fails (it should not for physical
        parameters).
    """
    from scipy.integrate import solve_ivp

    require_fraction("initial_coverage", initial_coverage)
    t = np.asarray(times, dtype=float)
    if len(t) < 1 or np.any(t < 0.0) or np.any(np.diff(t) <= 0.0):
        raise AssayError("times must be non-negative and strictly increasing")

    def rhs(_t, y):
        theta = min(max(y[0], 0.0), 1.0)
        c_s = surface_concentration(
            analyte, transport, bulk_concentration, theta
        )
        return [analyte.k_on * c_s * (1.0 - theta) - analyte.k_off * theta]

    t_span = (0.0, float(t[-1]) if t[-1] > 0.0 else 1e-9)
    solution = solve_ivp(
        rhs,
        t_span,
        [initial_coverage],
        t_eval=np.clip(t, 0.0, t_span[1]),
        method="LSODA",
        rtol=1e-8,
        atol=1e-12,
    )
    if not solution.success:
        raise ConvergenceError(
            f"transport-limited integration failed: {solution.message}"
        )
    return np.clip(solution.y[0], 0.0, 1.0)


def initial_rate_transport_limited(
    analyte: Analyte, transport: TransportModel, bulk_concentration: float
) -> float:
    """Early-time ``d theta/dt`` [1/s] including the transport limit.

    Interpolates between the reaction-limited rate ``k_on C`` (Da -> 0)
    and the flux-limited rate ``k_m C / Gamma_max`` (Da -> inf):
    exactly ``k_on C_s(theta=0)``.
    """
    c_s = surface_concentration(analyte, transport, bulk_concentration, 0.0)
    return analyte.k_on * c_s


def effective_time_constant_ratio(
    analyte: Analyte, transport: TransportModel
) -> float:
    """Slow-down factor of the observed kinetics, ``1 + Da`` (approx).

    The standard first-order result: transport stretches the apparent
    binding time constant by roughly one plus the Damkoehler number.
    """
    return 1.0 + transport.damkoehler(analyte)
