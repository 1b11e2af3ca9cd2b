"""Design-space exploration: from process knobs to sensor performance.

The library models the whole chain — process, mechanics, transduction,
circuits — and describes any device variant with one typed spec, so
design questions become one-line *spec sweeps*: pick a dotted path, give
it a value grid, and every grid point is a complete, validated device
description.  This example answers three questions the paper's designers
faced:

1. How does the n-well depth (the etch-stop knob) trade static
   sensitivity against resonant frequency?
2. What cantilever length optimizes the in-liquid mass LOD at a fixed
   counter gate time?
3. Does a candidate layout pass the post-CMOS DRC deck, and what does
   the backside mask cost in die area?

Run:  python examples/design_exploration.py
"""

from repro.analysis import run_spec_sweep
from repro.config import (
    REFERENCE_RESONANT_SENSOR,
    REFERENCE_STATIC_SENSOR,
    build,
    build_cantilever,
)
from repro.fabrication import cantilever_layout, post_cmos_rule_deck
from repro.mechanics import natural_frequency
from repro.mechanics.surface_stress import tip_deflection
from repro.units import um

# ---------------------------------------------------------------------------
# 1. n-well depth: beam thickness is a pure process knob
# ---------------------------------------------------------------------------

def nwell_tradeoff(spec):
    device = build_cantilever(spec.cantilever, spec.process)
    return {
        "f1_kHz": natural_frequency(device.geometry) / 1e3,
        "defl_nm_at_5mN/m": abs(tip_deflection(device.geometry, 5e-3)) * 1e9,
        "KOH_h": device.process.koh_time / 3600.0,
    }


table = run_spec_sweep(
    REFERENCE_STATIC_SENSOR,
    "process.nwell_depth_um",
    [2.0, 3.0, 4.0, 5.0, 6.0],
    nwell_tradeoff,
    parameter_name="nwell_um",
)
print("1. etch-stop depth trade-off (500 x 100 um beam):")
print(table.format_table())
print("   -> thin beams bend more (static wins), thick beams resonate "
      "higher (resonant wins)\n")

# ---------------------------------------------------------------------------
# 2. beam length vs in-liquid mass LOD
# ---------------------------------------------------------------------------

def length_tradeoff(spec):
    sensor = build(spec)
    return {
        "f_wet_kHz": sensor.fluid_mode.frequency / 1e3,
        "Q_wet": sensor.fluid_mode.quality_factor,
        "resp_mHz_per_pg": abs(sensor.mass_responsivity()) * 1e-15 * 1e3,
        "lod_pg_10s_gate": sensor.minimum_detectable_mass(10.0) * 1e15,
    }


table = run_spec_sweep(
    REFERENCE_RESONANT_SENSOR,  # reference liquid is water
    "cantilever.length_um",
    [200.0, 300.0, 400.0, 500.0, 700.0],
    length_tradeoff,
    parameter_name="length_um",
)
print("2. beam length vs in-water mass resolution (10 s counter gate):")
print(table.format_table())
best = min(table.rows(), key=lambda r: r[4])
print(f"   -> best LOD at L = {best[0]:.0f} um: {best[4]:.0f} pg\n")

# ---------------------------------------------------------------------------
# 3. DRC and die-area cost of the backside mask
# ---------------------------------------------------------------------------

beam = REFERENCE_STATIC_SENSOR.cantilever
layout = cantilever_layout(um(beam.length_um), um(beam.width_um))
violations = post_cmos_rule_deck().check(layout)
opening = layout.bounding_box("backside_etch")
beam_area = um(beam.length_um) * um(beam.width_um)
opening_area = opening.area
print("3. physical verification of the three post-CMOS masks:")
print(f"   DRC violations : {len(violations)}")
print(f"   beam area      : {beam_area * 1e12:8.0f} um^2")
print(f"   backside window: {opening_area * 1e12:8.0f} um^2 "
      f"({opening_area / beam_area:.0f}x the beam: the 54.7-degree "
      "sidewalls dominate the die budget)")
