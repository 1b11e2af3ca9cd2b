"""Typed, frozen device specs — the single source of device truth.

The paper's two systems (static piezoresistive readout, Fig. 4; resonant
Lorentz-force loop, Fig. 5) share one fabricated device recipe.  This
module declares that recipe as a hierarchy of frozen dataclasses, each a
pure value object:

* serializable — ``to_dict`` / ``from_dict`` / ``to_json`` / ``from_json``
  round-trip exactly;
* validated eagerly — a bad field raises :class:`~repro.errors.ConfigError`
  at construction, with the dotted field path in the message;
* overridable — ``spec.with_overrides({"cantilever.length_um": 350})``
  returns a new spec with nested replacements applied (and re-validated);
* hashable — :func:`spec_hash` keys a spec by the stable content hash of
  its dict form, so sweep grids and the engine's
  :class:`~repro.engine.TieredCache` share one principled key.

Field units are the laboratory units of the cantilever literature
(``_um``, ``_v``, ``_hz`` suffixes); builders convert to strict SI at the
construction boundary, exactly as the CLI always did.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from ..errors import ConfigError

__all__ = [
    "BridgeSpec",
    "CantileverSpec",
    "ChannelSpec",
    "ChipSpec",
    "ProcessSpec",
    "ResonantLoopSpec",
    "ResonantSensorSpec",
    "Spec",
    "StaticReadoutSpec",
    "StaticSensorSpec",
    "spec_hash",
]

#: Bridge technologies the transduction layer implements.
BRIDGE_KINDS = ("diffused", "pmos")


def _fail(path: str, message: str) -> typing.NoReturn:
    raise ConfigError(f"{path}: {message}")


def _reprefix(err: ConfigError, prefix: str) -> ConfigError:
    """Prepend a parent field to the path already inside ``err``."""
    return ConfigError(f"{prefix}.{err.args[0]}" if err.args else prefix)


class Spec:
    """Base class of all device specs (concrete specs are frozen dataclasses).

    Subclasses implement ``_validate`` (called from ``__post_init__``)
    and inherit the full serialization / override machinery.
    """

    #: Short machine name of the spec node, recorded in ``to_dict``.
    spec_kind: typing.ClassVar[str] = ""

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:  # pragma: no cover - overridden
        """Raise :class:`ConfigError` with a field path on any bad value."""

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON-types dict form (nested specs become nested dicts).

        The ``"$spec"`` meta key records the node type (``$``-prefixed so
        it can never collide with a field name).
        """
        data: dict[str, Any] = {"$spec": type(self).spec_kind}
        for f in fields(self):  # type: ignore[arg-type]
            value = getattr(self, f.name)
            data[f.name] = _value_to_dict(value)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Spec":
        """Rebuild a spec from its ``to_dict`` form (validates eagerly)."""
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"{cls.spec_kind or cls.__name__}: expected a mapping, "
                f"got {type(data).__name__}"
            )
        kind = data.get("$spec")
        if kind is not None and kind != cls.spec_kind:
            raise ConfigError(
                f"$spec: expected {cls.spec_kind!r}, got {kind!r}"
            )
        hints = typing.get_type_hints(cls)
        kwargs: dict[str, Any] = {}
        known = {f.name for f in fields(cls)}  # type: ignore[arg-type]
        for name in data:
            if name != "$spec" and name not in known:
                _fail(name, f"unknown field for {cls.__name__}; "
                            f"known: {', '.join(sorted(known))}")
        for f in fields(cls):  # type: ignore[arg-type]
            if f.name not in data:
                continue
            try:
                kwargs[f.name] = _value_from_dict(hints[f.name], data[f.name])
            except ConfigError as err:
                raise _reprefix(err, f.name) from None
        try:
            return cls(**kwargs)
        except ConfigError:
            raise
        except TypeError as err:
            raise ConfigError(f"{cls.__name__}: {err}") from None

    def to_json(self, indent: int | None = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Spec":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{cls.__name__}: invalid JSON ({err})") from None
        return cls.from_dict(data)

    # -- overrides ---------------------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any]) -> "Spec":
        """New spec with dotted-path replacements applied and re-validated.

        >>> spec.with_overrides({"cantilever.length_um": 350})  # doctest: +SKIP

        Paths descend nested specs by field name and tuples by index
        (``channels.2.label``).  Unknown segments raise
        :class:`ConfigError` listing the valid fields at that level.
        """
        result = self
        for path, value in overrides.items():
            try:
                result = _apply_one(result, path.split("."), value)
            except ConfigError as err:
                # the path context is already inside; keep it untouched
                raise ConfigError(err.args[0]) from None
        return result

    def describe_paths(self) -> list[str]:
        """All dotted override paths this spec accepts (leaves only)."""
        paths: list[str] = []
        for f in fields(self):  # type: ignore[arg-type]
            value = getattr(self, f.name)
            if isinstance(value, Spec):
                paths += [f"{f.name}.{p}" for p in value.describe_paths()]
            elif isinstance(value, tuple) and value and isinstance(value[0], Spec):
                for i, item in enumerate(value):
                    paths += [f"{f.name}.{i}.{p}" for p in item.describe_paths()]
            else:
                paths.append(f.name)
        return paths


def _value_to_dict(value: Any) -> Any:
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_value_to_dict(v) for v in value]
    return value


def _value_from_dict(hint: Any, value: Any) -> Any:
    """Rebuild one field value from JSON types, guided by its annotation."""
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:  # Optional/unions
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if value is None:
            return None
        return _value_from_dict(args[0], value)
    if isinstance(hint, type) and issubclass(hint, Spec):
        return hint.from_dict(value)
    if origin is tuple:
        (item_type, *_rest) = typing.get_args(hint)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"expected a list, got {type(value).__name__}")
        items = []
        for i, entry in enumerate(value):
            try:
                items.append(_value_from_dict(item_type, entry))
            except ConfigError as err:
                raise _reprefix(err, str(i)) from None
        return tuple(items)
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    return value


def _apply_one(node: Any, segments: list[str], value: Any) -> Any:
    """Replace the value at ``segments`` below ``node``, bottom-up."""
    head, rest = segments[0], segments[1:]

    if isinstance(node, tuple):
        try:
            index = int(head)
        except ValueError:
            _fail(head, f"expected a tuple index 0..{len(node) - 1}")
        if not 0 <= index < len(node):
            _fail(head, f"index out of range (tuple has {len(node)} entries)")
        items = list(node)
        items[index] = (
            _coerced(items[index], value, head)
            if not rest
            else _apply_one(items[index], rest, value)
        )
        return tuple(items)

    if not isinstance(node, Spec):
        _fail(head, f"cannot descend into {type(node).__name__} value")

    names = {f.name for f in fields(node)}  # type: ignore[arg-type]
    if head not in names:
        _fail(head, f"unknown field of {type(node).__name__}; "
                    f"known: {', '.join(sorted(names))}")
    current = getattr(node, head)
    try:
        if rest:
            new_value = _apply_one(current, rest, value)
        else:
            new_value = _coerced(current, value, head)
        return replace(node, **{head: new_value})
    except ConfigError as err:
        message = err.args[0] if err.args else ""
        if message.startswith(f"{head}:") or message.startswith(f"{head}."):
            raise  # this level already named itself
        raise _reprefix(err, head) from None


def _coerced(current: Any, value: Any, path: str) -> Any:
    """Light type adaptation of an override value against the old one."""
    if isinstance(value, str):
        value = parse_value(value)
    if isinstance(current, bool):
        if not isinstance(value, bool):
            _fail(path, f"expected a boolean, got {value!r}")
        return value
    if isinstance(current, float) and isinstance(value, int):
        return float(value)
    if isinstance(current, Spec) or isinstance(current, tuple):
        _fail(path, "cannot replace a whole sub-spec; set its fields "
                    "individually")
    return value


def parse_value(raw: str) -> Any:
    """Parse one ``--set`` value string: bool / None / number / string.

    ``"true"``/``"false"`` (any case) become booleans, ``"none"``/``"null"``
    become ``None``, numeric literals become int/float, everything else
    stays a string.
    """
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def spec_hash(spec: Spec) -> str:
    """Stable SHA-256 key of a spec: ``stable_hash(spec.to_dict())``.

    This is the cache key contract: the engine's
    :class:`~repro.engine.TieredCache` and every spec-keyed sweep hash
    the *serialized* form, so two specs that round-trip equal always hit
    the same cache entry — across processes and sessions.
    """
    from ..engine.cache import stable_hash

    return stable_hash("repro-spec", spec.to_dict())


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _is_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _positive(path: str, value: Any) -> None:
    if not _is_number(value) or not value > 0:
        _fail(path, f"must be a positive finite number, got {value!r}")


def _nonnegative(path: str, value: Any) -> None:
    if not _is_number(value) or not value >= 0:
        _fail(path, f"must be a non-negative finite number, got {value!r}")


def _fraction(path: str, value: Any) -> None:
    if not _is_number(value) or not 0.0 <= value <= 1.0:
        _fail(path, f"must lie in [0, 1], got {value!r}")


def _integer(path: str, value: Any, minimum: int = 1) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        _fail(path, f"must be an integer >= {minimum}, got {value!r}")


# ---------------------------------------------------------------------------
# the spec hierarchy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessSpec(Spec):
    """Post-CMOS micromachining knobs (Fig. 3).

    ``nwell_depth_um`` is the electrochemical etch-stop depth — the
    released silicon thickness; ``keep_dielectrics`` spares the beam
    during the front-side dielectric RIE (heavier, stiffer variant used
    when circuit layers must ride on the beam).
    """

    spec_kind = "process"

    nwell_depth_um: float = 5.0
    keep_dielectrics: bool = False

    def _validate(self) -> None:
        _positive("nwell_depth_um", self.nwell_depth_um)
        if not isinstance(self.keep_dielectrics, bool):
            _fail("keep_dielectrics", "must be a boolean")


@dataclass(frozen=True)
class CantileverSpec(Spec):
    """Drawn cantilever dimensions (thickness comes from the process)."""

    spec_kind = "cantilever"

    length_um: float = 500.0
    width_um: float = 100.0
    membrane_margin_um: float = 50.0

    def _validate(self) -> None:
        _positive("length_um", self.length_um)
        _positive("width_um", self.width_um)
        _positive("membrane_margin_um", self.membrane_margin_um)


@dataclass(frozen=True)
class BridgeSpec(Spec):
    """Wheatstone bridge recipe of either transduction technology.

    ``kind="diffused"`` is the distributed p-diffusion bridge of the
    static system; ``kind="pmos"`` the PMOS-in-triode bridge of the
    resonant system (``nominal_resistance_ohm`` applies to the diffused
    element only — the PMOS on-resistance follows from its bias point).
    """

    spec_kind = "bridge"

    kind: str = "diffused"
    nominal_resistance_ohm: float = 10e3
    bias_voltage_v: float = 3.3
    mismatch_sigma: float = 2e-3
    seed: int | None = 42

    def _validate(self) -> None:
        if self.kind not in BRIDGE_KINDS:
            _fail("kind", f"must be one of {BRIDGE_KINDS}, got {self.kind!r}")
        _positive("nominal_resistance_ohm", self.nominal_resistance_ohm)
        _positive("bias_voltage_v", self.bias_voltage_v)
        _nonnegative("mismatch_sigma", self.mismatch_sigma)
        if self.seed is not None:
            _integer("seed", self.seed, minimum=0)


@dataclass(frozen=True)
class StaticReadoutSpec(Spec):
    """The Fig. 4 chain: chopper -> low-pass -> offset DAC -> gain stages."""

    spec_kind = "static_readout"

    chop_frequency_hz: float = 10e3
    first_stage_gain: float = 100.0
    first_stage_offset_v: float = 2e-3
    lowpass_cutoff_hz: float = 100.0
    lowpass_order: int = 2
    dac_full_scale_v: float = 1.0
    dac_bits: int = 10
    gain2: float = 10.0
    gain3: float = 5.0
    sample_rate_hz: float = 200e3
    rng_seed: int = 2024

    def _validate(self) -> None:
        _positive("chop_frequency_hz", self.chop_frequency_hz)
        _positive("first_stage_gain", self.first_stage_gain)
        _nonnegative("first_stage_offset_v", self.first_stage_offset_v)
        _positive("lowpass_cutoff_hz", self.lowpass_cutoff_hz)
        _integer("lowpass_order", self.lowpass_order)
        _positive("dac_full_scale_v", self.dac_full_scale_v)
        _integer("dac_bits", self.dac_bits, minimum=2)
        if self.dac_bits > 24:
            _fail("dac_bits", f"must lie in [2, 24], got {self.dac_bits}")
        _positive("gain2", self.gain2)
        _positive("gain3", self.gain3)
        _positive("sample_rate_hz", self.sample_rate_hz)
        _integer("rng_seed", self.rng_seed, minimum=0)
        if self.chop_frequency_hz >= self.sample_rate_hz / 2.0:
            _fail("chop_frequency_hz",
                  "must sit below the Nyquist rate of sample_rate_hz")


@dataclass(frozen=True)
class ResonantLoopSpec(Spec):
    """The Fig. 5 closed-loop operating point."""

    spec_kind = "resonant_loop"

    steps_per_cycle: int = 40
    mode: int = 1
    seed: int = 4321

    def _validate(self) -> None:
        _integer("steps_per_cycle", self.steps_per_cycle, minimum=8)
        _integer("mode", self.mode)
        _integer("seed", self.seed, minimum=0)


@dataclass(frozen=True)
class StaticSensorSpec(Spec):
    """Full static system: device + chemistry + Fig. 4 readout."""

    spec_kind = "static_sensor"

    process: ProcessSpec = field(default_factory=ProcessSpec)
    cantilever: CantileverSpec = field(default_factory=CantileverSpec)
    bridge: BridgeSpec = field(default_factory=BridgeSpec)
    readout: StaticReadoutSpec = field(default_factory=StaticReadoutSpec)
    analyte: str = "igg"
    immobilization_efficiency: float = 0.7

    def _validate(self) -> None:
        if not isinstance(self.analyte, str) or not self.analyte:
            _fail("analyte", f"must be an analyte name, got {self.analyte!r}")
        _fraction("immobilization_efficiency", self.immobilization_efficiency)


@dataclass(frozen=True)
class ResonantSensorSpec(Spec):
    """Full resonant system: device + chemistry + liquid + Fig. 5 loop."""

    spec_kind = "resonant_sensor"

    process: ProcessSpec = field(default_factory=ProcessSpec)
    cantilever: CantileverSpec = field(default_factory=CantileverSpec)
    bridge: BridgeSpec = field(
        default_factory=lambda: BridgeSpec(
            kind="pmos", mismatch_sigma=5e-3, seed=43
        )
    )
    loop: ResonantLoopSpec = field(default_factory=ResonantLoopSpec)
    liquid: str = "water"
    analyte: str = "igg"
    immobilization_efficiency: float = 0.7

    def _validate(self) -> None:
        if not isinstance(self.liquid, str) or not self.liquid:
            _fail("liquid", f"must be a liquid name, got {self.liquid!r}")
        if not isinstance(self.analyte, str) or not self.analyte:
            _fail("analyte", f"must be an analyte name, got {self.analyte!r}")
        _fraction("immobilization_efficiency", self.immobilization_efficiency)


@dataclass(frozen=True)
class ChannelSpec(Spec):
    """One channel of the 4-cantilever array (``analyte=None`` = reference)."""

    spec_kind = "channel"

    analyte: str | None = None
    immobilization_efficiency: float = 0.7
    label: str = ""

    def _validate(self) -> None:
        if self.analyte is not None and (
            not isinstance(self.analyte, str) or not self.analyte
        ):
            _fail("analyte", f"must be an analyte name or None, "
                             f"got {self.analyte!r}")
        _fraction("immobilization_efficiency", self.immobilization_efficiency)
        if not isinstance(self.label, str):
            _fail("label", f"must be a string, got {self.label!r}")


@dataclass(frozen=True)
class ChipSpec(Spec):
    """The single-chip biosensor: 4 channels + shared mux/readout."""

    spec_kind = "chip"

    process: ProcessSpec = field(default_factory=ProcessSpec)
    cantilever: CantileverSpec = field(default_factory=CantileverSpec)
    channels: tuple[ChannelSpec, ...] = field(
        default_factory=lambda: (
            ChannelSpec(analyte="igg", label="anti-IgG"),
            ChannelSpec(analyte="crp", label="anti-CRP"),
            ChannelSpec(analyte=None, label="ref1"),
            ChannelSpec(analyte=None, label="ref2"),
        )
    )
    temperature_drift_v_per_s: float = 0.0
    seed: int = 99

    def _validate(self) -> None:
        if not isinstance(self.channels, tuple):
            object.__setattr__(self, "channels", tuple(self.channels))
        if len(self.channels) != 4:
            _fail("channels",
                  f"the array has exactly 4 channels, got {len(self.channels)}")
        for i, channel in enumerate(self.channels):
            if not isinstance(channel, ChannelSpec):
                _fail(f"channels.{i}", "must be a ChannelSpec")
        if not isinstance(self.temperature_drift_v_per_s, (int, float)) \
                or isinstance(self.temperature_drift_v_per_s, bool):
            _fail("temperature_drift_v_per_s",
                  f"must be a number, got {self.temperature_drift_v_per_s!r}")
        _integer("seed", self.seed, minimum=0)
