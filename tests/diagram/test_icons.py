"""Icons: pads, subimages, bypassed doublets."""

import pytest

from repro.arch.als import ALSKind
from repro.arch.switch import DeviceKind, fu_in, fu_out, mem_read, sd_tap
from repro.diagram.icons import (
    CacheIcon,
    MemoryPlaneIcon,
    ShiftDelayIcon,
    icon_for_endpoint_device,
    make_als_icon,
)


class TestALSIcon:
    def test_pads_per_unit(self):
        icon = make_als_icon(0, ALSKind.TRIPLET, first_fu=20)
        # each active unit: two inputs + one output
        assert len(icon.input_pads()) == 6
        assert len(icon.output_pads()) == 3

    def test_pad_endpoints_use_global_fu_indices(self):
        icon = make_als_icon(12, ALSKind.TRIPLET, first_fu=20)
        eps = {p.endpoint for p in icon.pads()}
        assert fu_in(20, "a") in eps
        assert fu_out(22) in eps

    def test_bypassed_doublet_hides_pads(self):
        """The second doublet form of Fig. 4 exposes only one unit."""
        icon = make_als_icon(5, ALSKind.DOUBLET, first_fu=6, bypassed_slots=(1,))
        assert icon.active_slots == (0,)
        assert len(icon.output_pads()) == 1
        assert fu_out(7) not in {p.endpoint for p in icon.pads()}

    def test_bad_bypass_rejected(self):
        with pytest.raises(ValueError):
            make_als_icon(0, ALSKind.SINGLET, first_fu=0, bypassed_slots=(1,))

    def test_subimages_mark_double_boxes(self):
        icon = make_als_icon(0, ALSKind.DOUBLET, first_fu=0)
        subs = icon.subimages()
        assert subs[0][1] is True   # integer unit drawn as double box
        assert subs[1][1] is False

    def test_subimages_mark_bypassed(self):
        icon = make_als_icon(0, ALSKind.DOUBLET, first_fu=0, bypassed_slots=(1,))
        assert icon.subimages()[1][2] is True

    def test_names(self):
        assert make_als_icon(3, ALSKind.SINGLET, 3).icon_id == "S3"
        assert make_als_icon(12, ALSKind.TRIPLET, 20).icon_id == "T12"


class TestDeviceIcons:
    def test_memory_icon_pads(self):
        icon = MemoryPlaneIcon("M2", DeviceKind.MEMORY, 2)
        labels = {p.label for p in icon.pads()}
        assert labels == {"read", "write"}
        assert mem_read(2) in {p.endpoint for p in icon.output_pads()}

    def test_cache_icon_pads(self):
        icon = CacheIcon("C1", DeviceKind.CACHE, 1)
        assert len(icon.input_pads()) == 1
        assert len(icon.output_pads()) == 1

    def test_sd_icon_taps(self):
        icon = ShiftDelayIcon("SD0", DeviceKind.SHIFT_DELAY, 0, n_taps=4)
        assert len(icon.output_pads()) == 4
        assert sd_tap(0, 3) in {p.endpoint for p in icon.output_pads()}

    def test_factory(self):
        assert isinstance(
            icon_for_endpoint_device(DeviceKind.MEMORY, 1), MemoryPlaneIcon
        )
        assert isinstance(
            icon_for_endpoint_device(DeviceKind.CACHE, 1), CacheIcon
        )
        assert isinstance(
            icon_for_endpoint_device(DeviceKind.SHIFT_DELAY, 1), ShiftDelayIcon
        )
        with pytest.raises(ValueError):
            icon_for_endpoint_device(DeviceKind.FU, 1)
