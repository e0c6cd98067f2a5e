"""Binary checkpoint container."""

import re
import struct

import numpy as np
import pytest

from orbitnet.checkpoint import (MAGIC, CheckpointError, load_checkpoint,
                                 save_checkpoint)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        arrays = {
            "layers.0.groups.0.A": rng.standard_normal((36, 36)),
            "layers.0.lam": rng.random(20),
            "bn.0.initialized": np.asarray(1.0),
            "head.bias": np.zeros(10),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].dtype == np.float64

    def test_roundtrip_keeps_shapes(self, tmp_path, rng):
        # assert_array_equal broadcasts, so a 0-d array read back as (1,)
        # passes it; compare the shapes themselves
        arrays = {"scalar": np.asarray(1.0), "row": rng.random((1, 3)),
                  "grid": rng.random((2, 3, 4))}
        path = tmp_path / "shapes.ckpt"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert {k: v.shape for k, v in loaded.items()} == \
            {k: v.shape for k, v in arrays.items()}

    def test_network_state_roundtrip_keeps_shapes(self, tmp_path, rng):
        from orbitnet.network import UnfoldedNetwork
        net = UnfoldedNetwork("classification", 1, 2, 2, 2, 3, 0.5, rng)
        state = net.state_arrays()
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded["bn.0.initialized"].shape == ()
        assert {k: v.shape for k, v in loaded.items()} == \
            {k: v.shape for k, v in state.items()}

    def test_one_element_initialized_flag_still_loads(self, rng):
        # checkpoints written before 0-d shapes were kept store it as (1,)
        from orbitnet.network import UnfoldedNetwork
        net = UnfoldedNetwork("classification", 1, 2, 2, 2, 3, 0.5, rng)
        state = net.state_arrays()
        state["bn.0.initialized"] = np.ones(1)
        other = UnfoldedNetwork("classification", 1, 2, 2, 2, 3, 0.5, rng)
        other.load_state_arrays(state)
        assert other.bns[0].initialized is True

    def test_float32_payload_upcast(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.ones(3, dtype=np.float32)})
        assert load_checkpoint(path)["w"].dtype == np.float64

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "v9.ckpt"
        path.write_bytes(MAGIC + struct.pack("<II", 9, 0))
        with pytest.raises(CheckpointError, match="version 9"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"w": rng.standard_normal(100)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(CheckpointError, match="past end"):
            load_checkpoint(path)

    def test_every_truncation_names_the_path(self, tmp_path, rng):
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, {"w": rng.standard_normal((2, 3)),
                               "bias": rng.standard_normal(2)})
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match=re.escape(str(path))):
                load_checkpoint(path)

    def test_non_utf8_tensor_name_names_the_path(self, tmp_path):
        path = tmp_path / "name.ckpt"
        save_checkpoint(path, {"w\u00e9": np.zeros(2)})
        blob = bytearray(path.read_bytes())
        # the name is "w" then the two UTF-8 bytes of e-acute; cut the pair
        assert blob[19:21] == "\u00e9".encode("utf-8")
        blob[19] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("extents", [(2147483648, 2147483648, 4),
                                         (65535, 42009217, 6700417)])
    def test_extent_product_past_int64_names_the_path(self, tmp_path,
                                                      extents):
        # the int64 products of these extents wrap to 0 and -1
        path = tmp_path / "huge.ckpt"
        path.write_bytes(MAGIC + struct.pack("<IIH", 1, 1, 1) + b"w"
                         + struct.pack("<B3I", 3, *extents))
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_repeated_name_names_the_path_and_the_name(self, tmp_path):
        path = tmp_path / "twice.ckpt"
        tensor = b"w" + struct.pack("<BI", 1, 1)
        path.write_bytes(MAGIC + struct.pack("<IIH", 1, 2, 1) + tensor
                         + struct.pack("<dH", 1.0, 1) + tensor
                         + struct.pack("<d", 2.0))
        with pytest.raises(CheckpointError,
                           match=re.escape(str(path)) + r".*'w'"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path, rng):
        path = tmp_path / "g.ckpt"
        save_checkpoint(path, {"w": rng.standard_normal(4)})
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": rng.standard_normal(4)})
        before = path.read_bytes()
        # the second tensor cannot be converted, after the first is written
        with pytest.raises(ValueError):
            save_checkpoint(path, {"w": rng.standard_normal(8),
                                   "bad": "not a number"})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
