"""Batched multi-channel array assay: every route channel-exact."""

import numpy as np
import pytest

from repro.biochem import AssayProtocol, get_analyte
from repro.core import BiosensorChip, ChannelConfig
from repro.units import nM


@pytest.fixture(scope="module")
def channel_plan():
    return [
        ChannelConfig(analyte=get_analyte("igg"), label="anti-IgG"),
        ChannelConfig(analyte=get_analyte("crp"), label="anti-CRP"),
        ChannelConfig(analyte=None, label="ref1"),
        ChannelConfig(analyte=None, label="ref2"),
    ]


@pytest.fixture(scope="module")
def protocol():
    return AssayProtocol.injection(nM(50), baseline=60, exposure=600, wash=60)


def build_chip(fabricated, channel_plan):
    chip = BiosensorChip(
        cantilever=fabricated, channels=channel_plan, temperature_drift=20e-6
    )
    chip.calibrate()
    return chip


class TestBatchedArrayAssay:
    def test_batched_matches_serial_bitwise(self, fabricated, channel_plan, protocol):
        serial = build_chip(fabricated, channel_plan).run_array_assay(
            protocol, sample_interval=10.0
        )
        batched = build_chip(fabricated, channel_plan).run_array_assay(
            protocol, sample_interval=10.0
        )
        np.testing.assert_array_equal(batched.times, serial.times)
        for channel in range(4):
            np.testing.assert_array_equal(
                batched.channel_outputs[channel], serial.channel_outputs[channel]
            )
        assert batched.channel_labels == serial.channel_labels
        assert batched.reference_channels == serial.reference_channels

    def test_batched_referencing_works(self, fabricated, channel_plan, protocol):
        chip = build_chip(fabricated, channel_plan)
        result = chip.run_array_assay(protocol, sample_interval=10.0)
        referenced = result.referenced(0)
        assert referenced.shape == result.times.shape
        # the active channel still shows a binding response after referencing
        assert abs(referenced[-1]) > abs(referenced[0])

    def test_watchdog_route_matches_plain_loop(
        self, fabricated, channel_plan, protocol
    ):
        watched = build_chip(fabricated, channel_plan).run_array_assay(
            protocol, sample_interval=10.0, timeout=60.0
        )
        default = build_chip(fabricated, channel_plan).run_array_assay(
            protocol, sample_interval=10.0
        )
        for channel in range(4):
            np.testing.assert_array_equal(
                watched.channel_outputs[channel], default.channel_outputs[channel]
            )
