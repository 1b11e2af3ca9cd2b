"""repro — Cantilever-Based Biosensors in CMOS Technology, reproduced.

A simulation library reproducing Kirstein et al., *Cantilever-Based
Biosensors in CMOS Technology* (DATE 2005): single-chip CMOS biosensors
using micromachined cantilevers as transducers, with monolithically
integrated piezoresistive readout.

The package mirrors the chip's architecture:

* :mod:`repro.materials` — solids, anisotropic silicon, liquids
* :mod:`repro.mechanics` — beam statics, modes, surface stress, dynamics
* :mod:`repro.fluidics` — hydrodynamic loading in liquid (Sader model)
* :mod:`repro.biochem` — analytes, Langmuir binding, assay protocols
* :mod:`repro.transduction` — piezoresistors, Wheatstone bridges
* :mod:`repro.circuits` — the behavioral analog/mixed-signal blocks
* :mod:`repro.actuation` — Lorentz-force coil + magnet
* :mod:`repro.fabrication` — 0.8 um CMOS stack, post-CMOS etch, DRC
* :mod:`repro.feedback` — the Fig. 5 closed oscillation loop
* :mod:`repro.analysis` — frequency estimation, Allan deviation, LOD
* :mod:`repro.engine` — parallel batch executor, result cache, timing
* :mod:`repro.config` — typed device specs, overrides, builder registry
* :mod:`repro.core` — the assembled static/resonant sensors and chip

Quickstart::

    from repro.biochem import AssayProtocol
    from repro.config import REFERENCE_STATIC_SENSOR, build
    from repro.units import nM

    sensor = build(REFERENCE_STATIC_SENSOR.with_overrides(
        {"cantilever.length_um": 350}
    ))
    sensor.calibrate_offset()
    result = sensor.run_assay(AssayProtocol.injection(nM(10)))
    print(result.output_step())
"""

from __future__ import annotations

import importlib


def _lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for the package whose
    ``globals()`` is ``namespace``: its public names import on first
    access, so importing one submodule does not import its siblings.

    ``exports`` maps each submodule to the names the package re-exports
    from it; an ``"alias=name"`` entry renames one.  The submodules
    themselves resolve as attributes too.  A resolved name is stored in
    the package, so later reads are plain lookups.
    """
    package = namespace["__name__"]
    sources = {module: (module, None) for module in exports}
    for module, names in exports.items():
        for entry in names:
            alias, _, name = entry.partition("=")
            sources[alias] = (module, name or alias)

    def __getattr__(name: str):
        try:
            module, attr = sources[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(f"{package}.{module}")
        if attr is not None:
            value = getattr(value, attr)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(sources))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), {
    "actuation": (),
    "analysis": (),
    "biochem": ("Analyte", "AssayProtocol", "FunctionalizedSurface",
                "get_analyte"),
    "circuits": (),
    "config": (),
    "constants": (),
    "core": ("BiosensorChip", "ChannelConfig", "ResonantCantileverSensor",
             "StaticCantileverSensor"),
    "engine": (),
    "environment": (),
    "errors": ("ReproError",),
    "fabrication": ("PostCMOSFlow", "fabricate_cantilever"),
    "feedback": (),
    "fluidics": (),
    "materials": ("get_liquid", "get_material"),
    "mechanics": ("CantileverGeometry",),
    "transduction": (),
    "units": (),
})

__version__ = "1.1.0"

__all__ = [
    "Analyte",
    "AssayProtocol",
    "BiosensorChip",
    "CantileverGeometry",
    "ChannelConfig",
    "FunctionalizedSurface",
    "PostCMOSFlow",
    "ReproError",
    "ResonantCantileverSensor",
    "StaticCantileverSensor",
    "__version__",
    "actuation",
    "analysis",
    "biochem",
    "circuits",
    "config",
    "constants",
    "core",
    "engine",
    "environment",
    "errors",
    "fabricate_cantilever",
    "fabrication",
    "feedback",
    "fluidics",
    "get_analyte",
    "get_liquid",
    "get_material",
    "materials",
    "mechanics",
    "transduction",
    "units",
]
