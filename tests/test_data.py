"""Dataset parsers, patch extraction, and linear patch transforms."""

import os

import numpy as np
import pytest

from orbitnet.data import (DatasetFormatError, PatchTransform,
                           avgpool_patch, extract_patch, load_cifar10,
                           load_mnist, read_idx, rotate_patch,
                           synthesize_cifar10_like, synthesize_mnist_like,
                           transform_pair_dataset, write_cifar_batch,
                           write_idx)
from orbitnet.groups import vec, vec_inv
from orbitnet.train import paper_transform_grid

REAL_MNIST = os.environ.get("ORBITNET_MNIST_DIR")
REAL_CIFAR = os.environ.get("ORBITNET_CIFAR_DIR")


class TestIdxFormat:
    def test_roundtrip_images(self, tmp_path, rng):
        arr = rng.integers(0, 256, size=(7, 9, 5)).astype(np.uint8)
        path = tmp_path / "imgs-idx3-ubyte"
        write_idx(path, arr)
        np.testing.assert_array_equal(read_idx(path), arr)

    def test_roundtrip_labels(self, tmp_path, rng):
        arr = rng.integers(0, 10, size=23).astype(np.uint8)
        path = tmp_path / "lbl-idx1-ubyte"
        write_idx(path, arr)
        np.testing.assert_array_equal(read_idx(path), arr)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"\x00\x00\x12\x34" + b"\x00" * 16)
        with pytest.raises(DatasetFormatError, match="offset 0"):
            read_idx(path)

    def test_truncated_payload_names_boundary(self, tmp_path, rng):
        arr = rng.integers(0, 256, size=(4, 3, 3)).astype(np.uint8)
        path = tmp_path / "trunc"
        write_idx(path, arr)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(DatasetFormatError, match="should end at offset"):
            read_idx(path)


class TestSyntheticStandIns:
    def test_mnist_like_loads_through_parser(self, tmp_path):
        synthesize_mnist_like(tmp_path, n_train=40, n_test=12, seed=3)
        ds = load_mnist(tmp_path, "train")
        assert ds.images.shape == (40, 1, 28, 28)
        assert ds.labels.shape == (40,)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert set(np.unique(ds.labels)).issubset(set(range(10)))
        test = load_mnist(tmp_path, "test")
        assert test.images.shape == (12, 1, 28, 28)

    def test_cifar_like_loads_through_parser(self, tmp_path):
        synthesize_cifar10_like(tmp_path, n_train=25, n_test=10, seed=3)
        ds = load_cifar10(tmp_path, "train")
        assert ds.images.shape == (25, 3, 32, 32)
        assert load_cifar10(tmp_path, "test").images.shape == (10, 3, 32, 32)

    def test_cifar_like_uneven_split_fills_every_batch(self, tmp_path):
        # 16 images used to leave data_batch_5 empty (ceil(16/5) = 4 per file)
        synthesize_cifar10_like(tmp_path, n_train=16, n_test=4, seed=1)
        out = tmp_path / "cifar-10-batches-bin"
        sizes = [(out / f"data_batch_{i}.bin").stat().st_size // 3073
                 for i in range(1, 6)]
        assert sizes == [4, 3, 3, 3, 3]
        assert load_cifar10(tmp_path, "train").images.shape == (16, 3, 32, 32)

    def test_cifar_like_rejects_fewer_images_than_batches(self, tmp_path):
        with pytest.raises(ValueError, match="n_train=4.*5 batch files"):
            synthesize_cifar10_like(tmp_path, n_train=4, n_test=4)

    def test_cifar_truncated_record_rejected(self, tmp_path, rng):
        out = tmp_path / "cifar-10-batches-bin"
        out.mkdir()
        imgs = rng.integers(0, 256, size=(3, 3, 32, 32)).astype(np.uint8)
        for name in ("data_batch_%d.bin" % i for i in range(1, 6)):
            write_cifar_batch(out / name, imgs, np.zeros(3))
        blob = (out / "data_batch_2.bin").read_bytes()
        (out / "data_batch_2.bin").write_bytes(blob[:-100])
        with pytest.raises(DatasetFormatError, match="record boundary"):
            load_cifar10(tmp_path, "train")

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mnist(tmp_path, "train")

    def test_load_is_idempotent(self, tmp_path):
        synthesize_mnist_like(tmp_path, n_train=10, n_test=5, seed=0)
        a = load_mnist(tmp_path, "train")
        b = load_mnist(tmp_path, "train")
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)


@pytest.mark.skipif(not REAL_MNIST, reason="set ORBITNET_MNIST_DIR to test "
                                           "against the real archives")
class TestRealMnist:
    def test_canonical_shapes(self):
        train = load_mnist(REAL_MNIST, "train")
        test = load_mnist(REAL_MNIST, "test")
        assert train.images.shape == (60000, 1, 28, 28)
        assert test.images.shape == (10000, 1, 28, 28)


@pytest.mark.skipif(not REAL_CIFAR, reason="set ORBITNET_CIFAR_DIR to test "
                                           "against the real archives")
class TestRealCifar:
    def test_canonical_shapes(self):
        train = load_cifar10(REAL_CIFAR, "train")
        test = load_cifar10(REAL_CIFAR, "test")
        assert train.images.shape == (50000, 3, 32, 32)
        assert test.images.shape == (10000, 3, 32, 32)


class TestExtractPatch:
    def test_exact_size_image_returns_itself(self, rng):
        img = rng.random((6, 6))
        np.testing.assert_array_equal(extract_patch(img, rng), img)

    def test_corner_bounds(self, rng):
        img = np.zeros((28, 28))
        img[22, 22] = 1.0   # only visible from the bottom-right-most corner
        seen_corner = False
        for _ in range(500):
            patch = extract_patch(img, rng)
            assert patch.shape == (6, 6)
            if patch[0, 0] == 1.0:
                seen_corner = True
        assert seen_corner

    def test_seeded_determinism(self):
        img = np.arange(28.0 * 28).reshape(28, 28)
        a = [extract_patch(img, np.random.default_rng(5)) for _ in range(3)]
        b = [extract_patch(img, np.random.default_rng(5)) for _ in range(3)]
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)

    def test_undersized_rejected(self, rng):
        with pytest.raises(ValueError):
            extract_patch(np.zeros((5, 6)), rng)


def brute_force_rotate(patch, theta_deg):
    """Per-pixel inverse-mapping bilinear rotation (independent oracle)."""
    s = patch.shape[0]
    c = (s - 1) / 2.0
    theta = np.deg2rad(theta_deg)
    out = np.zeros_like(patch, dtype=np.float64)
    for i in range(s):
        for j in range(s):
            xs = np.cos(theta) * (j - c) + np.sin(theta) * (i - c) + c
            ys = -np.sin(theta) * (j - c) + np.cos(theta) * (i - c) + c
            i0, j0 = int(np.floor(ys)), int(np.floor(xs))
            fy, fx = ys - i0, xs - j0
            total = 0.0
            for di, wy in ((0, 1 - fy), (1, fy)):
                for dj, wx in ((0, 1 - fx), (1, fx)):
                    ii, jj = i0 + di, j0 + dj
                    if 0 <= ii < s and 0 <= jj < s:
                        total += wy * wx * patch[ii, jj]
            out[i, j] = total
    return out


class TestRotatePatch:
    def test_zero_angle_is_identity(self, rng):
        patch = rng.random((6, 6))
        np.testing.assert_array_equal(rotate_patch(patch, 0.0), patch)

    def test_quarter_turn_is_exact_permutation(self, rng):
        patch = rng.random((6, 6))
        rotated = rotate_patch(patch, 90.0)
        expected = np.empty_like(patch)
        for i in range(6):
            for j in range(6):
                expected[i, j] = patch[5 - j, i]
        np.testing.assert_array_equal(rotated, expected)
        # four quarter turns close the cycle exactly
        out = patch
        for _ in range(4):
            out = rotate_patch(out, 90.0)
        np.testing.assert_array_equal(out, patch)

    def test_45_degrees_matches_brute_force(self, rng):
        for hot in [(0, 0), (2, 3), (5, 5), (3, 1)]:
            patch = np.zeros((6, 6))
            patch[hot] = 1.0
            np.testing.assert_allclose(rotate_patch(patch, 45.0),
                                       brute_force_rotate(patch, 45.0),
                                       atol=1e-12)

    def test_generic_angles_match_brute_force(self, rng):
        for theta in (30.0, 60.0, 137.5):
            patch = rng.random((6, 6))
            np.testing.assert_allclose(rotate_patch(patch, theta),
                                       brute_force_rotate(patch, theta),
                                       atol=1e-12)

    def test_linear_in_patch(self, rng):
        for _ in range(50):
            x, y = rng.random((2, 6, 6))
            a, b = rng.standard_normal(2)
            lhs = rotate_patch(a * x + b * y, 33.0)
            rhs = a * rotate_patch(x, 33.0) + b * rotate_patch(y, 33.0)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def brute_force_avgpool(patch, r):
    """Window means by explicit enumeration (independent oracle)."""
    s = patch.shape[0]
    lo = -(r // 2)
    hi = lo + r - 1
    out = np.zeros_like(patch, dtype=np.float64)
    for i in range(s):
        for j in range(s):
            values = [patch[ii, jj]
                      for ii in range(i + lo, i + hi + 1)
                      for jj in range(j + lo, j + hi + 1)
                      if 0 <= ii < s and 0 <= jj < s]
            out[i, j] = np.mean(values)
    return out


class TestAvgpoolPatch:
    def test_unit_window_is_identity(self, rng):
        patch = rng.random((6, 6))
        np.testing.assert_array_equal(avgpool_patch(patch, 1), patch)

    def test_full_window_center_is_patch_mean(self, rng):
        # with side 6 the pixel at (3, 3) sees the whole patch
        patch = rng.random((6, 6))
        assert avgpool_patch(patch, 6)[3, 3] == pytest.approx(patch.mean(),
                                                              rel=1e-12)

    def test_r3_matches_brute_force_exactly(self, rng):
        patch = rng.random((6, 6))
        np.testing.assert_array_equal(avgpool_patch(patch, 3),
                                      brute_force_avgpool(patch, 3))

    @pytest.mark.parametrize("r", [2, 4, 5, 6])
    def test_other_radii_match_brute_force(self, r, rng):
        patch = rng.random((6, 6))
        np.testing.assert_allclose(avgpool_patch(patch, r),
                                   brute_force_avgpool(patch, r), atol=1e-14)

    def test_out_of_range_rejected(self, rng):
        patch = rng.random((6, 6))
        for r in (0, 7, -1):
            with pytest.raises(ValueError):
                avgpool_patch(patch, r)

    def test_linear_in_patch(self, rng):
        for _ in range(50):
            x, y = rng.random((2, 6, 6))
            a, b = rng.standard_normal(2)
            lhs = avgpool_patch(a * x + b * y, 4)
            rhs = a * avgpool_patch(x, 4) + b * avgpool_patch(y, 4)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPatchTransform:
    def test_trivial_composition_is_identity(self, rng):
        t = PatchTransform.composition(radius=1, theta=0.0)
        patch = rng.random((6, 6))
        np.testing.assert_array_equal(t.apply(patch), patch)
        np.testing.assert_allclose(t.operator(), np.eye(36), atol=1e-15)

    def test_pooling_applies_before_rotation(self, rng):
        t = PatchTransform.composition(radius=3, theta=90.0)
        patch = rng.random((6, 6))
        np.testing.assert_array_equal(
            t.apply(patch), rotate_patch(avgpool_patch(patch, 3), 90.0))

    def test_composition_operator_is_product(self, rng):
        # operator of (rotate o pool) equals rotate matrix times pool matrix
        for r, theta in [(4, 60.0), (5, 60.0), (6, 60.0), (3, 90.0)]:
            compose = PatchTransform.composition(radius=r, theta=theta)
            rot = PatchTransform.rotation(theta)
            pool = PatchTransform.pooling(r)
            product = rot.operator() @ pool.operator()
            np.testing.assert_allclose(compose.operator(), product,
                                       atol=1e-10)

    def test_every_transform_is_linear(self, rng):
        transforms = [PatchTransform.rotation(30.0),
                      PatchTransform.pooling(4),
                      PatchTransform.composition(5, 60.0)]
        for t in transforms:
            for _ in range(30):
                x, y = rng.random((2, 6, 6))
                a, b = rng.standard_normal(2)
                lhs = t.apply(a * x + b * y)
                rhs = a * t.apply(x) + b * t.apply(y)
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_operator_reproduces_apply_on_1000_patches(self, rng):
        from orbitnet.groups import vec_inv
        t = PatchTransform.composition(radius=4, theta=45.0)
        op = t.operator()
        for _ in range(1000):
            patch = rng.random((6, 6))
            direct = t.apply(patch)
            via_op = vec_inv(op @ vec(patch), 6, 6)
            assert np.max(np.abs(direct - via_op)) < 1e-10

    def test_rotation_operator_structure(self):
        # zero-fill leakage: rows sum to at most one; interpolation spreads
        # each output pixel over at most 4 neighbors
        for theta in (30.0, 45.0, 60.0):
            op = PatchTransform.rotation(theta).operator()
            assert np.all(op.sum(axis=1) <= 1.0 + 1e-6)
            assert np.all((op > 1e-12).sum(axis=1) <= 4)
        op90 = PatchTransform.rotation(90.0).operator()
        assert set(np.unique(op90)) == {0.0, 1.0}
        np.testing.assert_array_equal(op90.sum(axis=1), np.ones(36))

    def test_pooling_operator_is_stochastic(self):
        # nonnegative entries, every row a mean: rows sum to one exactly
        for r in (2, 3, 4, 5, 6):
            op = PatchTransform.pooling(r).operator()
            assert np.all(op >= 0.0)
            np.testing.assert_allclose(op.sum(axis=1), np.ones(36),
                                       atol=1e-12)


def reference_pairs(images, transform, num_pairs, rng):
    """Per-plane pair loop: one image/position draw per patch, then one
    transform call per channel plane."""
    n, c = images.shape[0], images.shape[1]
    xs, ys = [], []
    while len(xs) < num_pairs:
        patch = extract_patch(images[int(rng.integers(0, n))], rng)
        for plane in patch[:num_pairs - len(xs)]:
            xs.append(vec(plane))
            ys.append(vec(transform.apply(plane)))
    return np.array(xs).reshape(num_pairs, 36), \
        np.array(ys).reshape(num_pairs, 36)


class TestBatchedTransforms:
    def test_stack_equals_patch_by_patch_on_every_grid_cell(self, rng):
        stack = rng.random((50, 6, 6))
        for t in paper_transform_grid():
            batched = t.apply(stack)
            per_patch = np.stack([t.apply(p) for p in stack])
            assert np.array_equal(batched, per_patch), t.label()

    @pytest.mark.parametrize("channels,num_pairs",
                             [(1, 40), (3, 40), (3, 7)])
    def test_pairs_equal_per_plane_reference(self, channels, num_pairs,
                                             rng):
        images = rng.random((5, channels, 11, 13))
        for t in (PatchTransform.rotation(30.0), PatchTransform.pooling(4),
                  PatchTransform.composition(5, 60.0)):
            got_rng = np.random.default_rng(17)
            ref_rng = np.random.default_rng(17)
            got = transform_pair_dataset(images, t, num_pairs, got_rng)
            ref = reference_pairs(images, t, num_pairs, ref_rng)
            assert np.array_equal(got[0], ref[0])
            assert np.array_equal(got[1], ref[1])
            # both consumed the same draws, so later draws agree too
            assert got_rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)

    def test_operator_equals_column_by_column_on_every_grid_cell(self):
        eye = np.eye(36)
        for t in paper_transform_grid():
            columns = [vec(t.apply(vec_inv(eye[j], 6, 6)))
                       for j in range(36)]
            assert np.array_equal(t.operator(), np.stack(columns, axis=1)), \
                t.label()


class TestTransformPairs:
    def test_shapes_and_consistency(self, rng):
        images = rng.random((10, 1, 12, 12))
        t = PatchTransform.pooling(3)
        xs, ys = transform_pair_dataset(images, t, 100, rng)
        assert xs.shape == (100, 36) and ys.shape == (100, 36)
        op = t.operator()
        np.testing.assert_allclose(ys, xs @ op.T, atol=1e-12)

    def test_multichannel_images_split_per_channel(self, rng):
        images = rng.random((4, 3, 8, 8))
        t = PatchTransform.rotation(90.0)
        xs, ys = transform_pair_dataset(images, t, 9, rng)
        assert xs.shape == (9, 36)

    def test_seeded_determinism(self, rng):
        images = rng.random((4, 1, 10, 10))
        t = PatchTransform.rotation(45.0)
        a = transform_pair_dataset(images, t, 20, np.random.default_rng(3))
        b = transform_pair_dataset(images, t, 20, np.random.default_rng(3))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_pairs_csv_roundtrip(self, tmp_path, rng):
        from orbitnet.data import load_pairs_csv, save_pairs_csv
        images = rng.random((4, 1, 10, 10))
        xs, ys = transform_pair_dataset(images, PatchTransform.pooling(2),
                                        15, rng)
        save_pairs_csv(tmp_path / "pairs.csv", xs, ys)
        first = (tmp_path / "pairs.csv").read_text().splitlines()[0]
        assert len(first.split(",")) == 72
        got_x, got_y = load_pairs_csv(tmp_path / "pairs.csv")
        np.testing.assert_allclose(got_x, xs, atol=1e-15)
        np.testing.assert_allclose(got_y, ys, atol=1e-15)
