"""Dataset ingestion, patch extraction, and linear patch transforms.

Parsers read the canonical on-disk formats bit-exactly: IDX (big-endian,
magic 2051/2049) for the digit images, and 3073-byte label+pixel records
for the color set. A fetch helper downloads the official archives; when no
network is available, `synthesize_*_like` writes procedurally generated
stand-in datasets in the same binary formats so every code path downstream
of the parsers behaves identically. The fetch helpers import their
download, archive and hash modules themselves: `urllib.request` alone pulls
in `http.client`, `email` and `ssl`, which no training, synthetic or
analysis process needs.
"""

import gzip
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .groups import stack_map_to_matrix, vec

PATCH = 6


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message names the failing byte offset."""


@dataclass
class ImageDataset:
    images: np.ndarray       # [N, C, H, W] float64 in [0, 1]
    labels: np.ndarray       # [N] int64 class indices

    def __len__(self):
        return self.images.shape[0]


# -- IDX (MNIST) ---------------------------------------------------------------

MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

# canonical gzip archive sizes in bytes, from the dataset distribution page
MNIST_ARCHIVE_SIZES = {
    "train-images-idx3-ubyte.gz": 9912422,
    "train-labels-idx1-ubyte.gz": 28881,
    "t10k-images-idx3-ubyte.gz": 1648877,
    "t10k-labels-idx1-ubyte.gz": 4542,
}

MNIST_MIRRORS = (
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "http://yann.lecun.com/exdb/mnist/",
)

CIFAR_URL = "https://www.cs.toronto.edu/~kriz/cifar-10-binary.tar.gz"
CIFAR_MD5 = "c32a1d4ab5d03f1284b67883e8d87530"

CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILES = ("test_batch.bin",)
_CIFAR_RECORD = 3073


def _read_bytes(path):
    data = path.read_bytes()
    if path.suffix == ".gz":
        return gzip.decompress(data)
    return data


def read_idx(path):
    """Parse one IDX file into a uint8 array of the declared shape."""
    raw = _read_bytes(path)
    if len(raw) < 4:
        raise DatasetFormatError(
            f"{path}: file ends at offset {len(raw)}, magic needs 4 bytes")
    magic = int.from_bytes(raw[0:4], "big")
    if magic not in (2051, 2049):
        raise DatasetFormatError(
            f"{path}: bad magic {magic} at offset 0 (expected 2051 for "
            f"images or 2049 for labels)")
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise DatasetFormatError(
            f"{path}: file ends at offset {len(raw)} inside the "
            f"{ndim}-dimension header")
    dims = [int.from_bytes(raw[4 + 4 * i: 8 + 4 * i], "big")
            for i in range(ndim)]
    expected = header_end + math.prod(dims)
    if len(raw) != expected:
        raise DatasetFormatError(
            f"{path}: payload for shape {tuple(dims)} should end at offset "
            f"{expected}, file has {len(raw)} bytes")
    return np.frombuffer(raw, dtype=np.uint8, offset=header_end).reshape(dims)


def write_idx(path, array):
    """Write a uint8 array in IDX format (inverse of read_idx)."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    magic = 2051 if array.ndim == 3 else 2049
    with open(path, "wb") as fh:
        fh.write(magic.to_bytes(4, "big"))
        for dim in array.shape:
            fh.write(int(dim).to_bytes(4, "big"))
        fh.write(array.tobytes())


def _resolve(root, names):
    """Pick the existing variant (raw or .gz) of each filename under root."""
    paths = []
    for name in names:
        plain = root / name
        gz = root / (name + ".gz")
        if plain.exists():
            paths.append(plain)
        elif gz.exists():
            paths.append(gz)
        else:
            raise FileNotFoundError(
                f"{plain} not found (nor {gz.name}); fetch or synthesize the "
                f"dataset first")
    return paths


def _check_split(split):
    if split not in ("train", "test"):
        raise ValueError(f"unknown split {split!r}: expected 'train' or "
                         f"'test'")


def load_mnist(root, split="train"):
    """Load the digit dataset from IDX files under `root`."""
    _check_split(split)
    root = Path(root)
    image_path, label_path = _resolve(root, MNIST_FILES[split])
    images = read_idx(image_path)
    labels = read_idx(label_path)
    if images.ndim != 3:
        raise DatasetFormatError(f"{image_path}: expected 3-D image data")
    if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
        raise DatasetFormatError(
            f"{label_path}: {labels.shape[0]} labels for "
            f"{images.shape[0]} images")
    floats = images.astype(np.float64)[:, None, :, :]
    floats /= 255.0   # in place: the peak holds one float64 copy
    return ImageDataset(floats, labels.astype(np.int64))


def load_cifar10(root, split="train"):
    """Load the color dataset from 3073-byte-record binaries under `root`."""
    _check_split(split)
    root = Path(root)
    if (root / "cifar-10-batches-bin").is_dir():
        root = root / "cifar-10-batches-bin"
    names = CIFAR_TRAIN_FILES if split == "train" else CIFAR_TEST_FILES
    images, labels = [], []
    for name in names:
        raw = (root / name).read_bytes()
        if len(raw) == 0 or len(raw) % _CIFAR_RECORD:
            full = (len(raw) // _CIFAR_RECORD) * _CIFAR_RECORD
            raise DatasetFormatError(
                f"{root / name}: record boundary at offset {full}, file has "
                f"{len(raw)} bytes ({_CIFAR_RECORD}-byte records)")
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
        labels.append(records[:, 0])
        images.append(records[:, 1:].reshape(-1, 3, 32, 32))
    images = np.concatenate(images).astype(np.float64)
    images /= 255.0
    labels = np.concatenate(labels).astype(np.int64)
    return ImageDataset(images, labels)


def write_cifar_batch(path, images, labels):
    """Write [N,3,32,32] uint8 images + labels as one binary batch file."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    records = np.empty((images.shape[0], _CIFAR_RECORD), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = images.reshape(images.shape[0], -1)
    path.write_bytes(records.tobytes())


# -- fetching ------------------------------------------------------------------

def _download(url, dest):
    import urllib.request
    with urllib.request.urlopen(url, timeout=60) as resp:
        dest.write_bytes(resp.read())


def fetch_mnist(root):
    """Download and unpack the digit archives; verifies pinned sizes."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for name, size in MNIST_ARCHIVE_SIZES.items():
        plain = root / name[:-3]
        if plain.exists():
            continue
        archive = root / name
        if not archive.exists():
            last_err = None
            for base in MNIST_MIRRORS:
                try:
                    _download(base + name, archive)
                    break
                except OSError as err:
                    last_err = err
            else:
                raise OSError(f"could not download {name}: {last_err}")
        if archive.stat().st_size != size:
            raise DatasetFormatError(
                f"{archive}: size {archive.stat().st_size} != pinned {size}")
        plain.write_bytes(gzip.decompress(archive.read_bytes()))


def fetch_cifar10(root):
    """Download, md5-check and unpack the color archive inside `root` only."""
    import hashlib
    import tarfile
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if (root / "cifar-10-batches-bin" / "data_batch_1.bin").exists():
        return
    archive = root / "cifar-10-binary.tar.gz"
    if not archive.exists():
        _download(CIFAR_URL, archive)
    digest = hashlib.md5(archive.read_bytes()).hexdigest()
    if digest != CIFAR_MD5:
        raise DatasetFormatError(
            f"{archive}: md5 {digest} != pinned {CIFAR_MD5}")
    with tarfile.open(archive) as tar:
        tar.extractall(root, filter="data")


# -- synthetic stand-ins ---------------------------------------------------------

_DIGIT_FONT = [
    "111101101101111", "010110010010111", "111001111100111",
    "111001111001111", "101101111001001", "111100111001111",
    "111100111101111", "111001010010010", "111101111101111",
    "111101111001111",
]


def _glyph(digit):
    bits = np.array([int(b) for b in _DIGIT_FONT[digit]], dtype=np.float64)
    return bits.reshape(5, 3)


def synthesize_mnist_like(root, n_train=6000, n_test=1000, seed=0):
    """Write a procedurally generated digit dataset in IDX format.

    Ten glyph classes with random placement, scale, and noise; a learnable
    stand-in for environments where the real archives cannot be fetched.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for split, count in (("train", n_train), ("test", n_test)):
        images = np.zeros((count, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=count).astype(np.uint8)
        for i in range(count):
            glyph = _glyph(int(labels[i]))
            sh = int(rng.integers(3, 5))        # vertical cell size
            sw = int(rng.integers(3, 5))
            big = np.kron(glyph, np.ones((sh, sw)))
            h, w = big.shape
            top = int(rng.integers(0, 28 - h + 1))
            left = int(rng.integers(0, 28 - w + 1))
            canvas = np.zeros((28, 28))
            canvas[top:top + h, left:left + w] = big * rng.uniform(0.6, 1.0)
            canvas += rng.normal(0.0, 0.05, size=(28, 28))
            images[i] = np.clip(canvas, 0, 1) * 255
        img_name, lbl_name = MNIST_FILES[split]
        write_idx(root / img_name, images)
        write_idx(root / lbl_name, labels)


def synthesize_cifar10_like(root, n_train=6000, n_test=1000, seed=0):
    """Write a procedurally generated color dataset in the binary batch format.

    The training images are split into the five batch files in consecutive
    chunks of near-equal size, so `n_train` must be at least 5.
    """
    if n_train < 5:
        raise ValueError(
            f"n_train={n_train} cannot fill the 5 batch files of the "
            f"training split; the loader rejects an empty batch file")
    root = Path(root)
    out = root / "cifar-10-batches-bin"
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    anchors = rng.uniform(0.2, 0.8, size=(10, 3))

    def make(count):
        images = np.zeros((count, 3, 32, 32), dtype=np.uint8)
        labels = rng.integers(0, 10, size=count).astype(np.uint8)
        yy, xx = np.mgrid[0:32, 0:32] / 31.0
        for i in range(count):
            base = anchors[int(labels[i])]
            freq = rng.uniform(1.0, 4.0, size=2)
            phase = rng.uniform(0, 2 * np.pi, size=3)
            canvas = np.empty((3, 32, 32))
            for c in range(3):
                wave = np.sin(2 * np.pi * (freq[0] * xx + freq[1] * yy)
                              + phase[c])
                canvas[c] = base[c] + 0.25 * wave
            canvas += rng.normal(0.0, 0.08, size=(3, 32, 32))
            images[i] = np.clip(canvas, 0, 1) * 255
        return images, labels

    train_images, train_labels = make(n_train)
    for name, images, labels in zip(
            CIFAR_TRAIN_FILES, np.array_split(train_images, 5),
            np.array_split(train_labels, 5)):
        write_cifar_batch(out / name, images, labels)
    test_images, test_labels = make(n_test)
    write_cifar_batch(out / "test_batch.bin", test_images, test_labels)


# name -> (loader, synthesizer, fetcher), keyed like config.DATASETS
DATASET_IO = {
    "mnist": (load_mnist, synthesize_mnist_like, fetch_mnist),
    "cifar10": (load_cifar10, synthesize_cifar10_like, fetch_cifar10),
}


# -- patches and transforms -----------------------------------------------------

def rotate_patch(patch, theta_deg):
    """Rotate about the patch center with bilinear interpolation, zero fill.

    Acts on the last two axes, so a [..., s, s] stack rotates plane by
    plane. Linear in the patch for fixed angle; quarter-turn multiples hit
    pixel centers exactly and reduce to permutations.
    """
    patch = np.asarray(patch, dtype=np.float64)
    s = patch.shape[-1]
    if theta_deg % 90 == 0:
        # quarter turns hit pixel centers exactly; skip interpolation
        return np.rot90(patch, k=-int(theta_deg // 90) % 4,
                        axes=(-2, -1)).copy()
    c = (s - 1) / 2.0
    theta = np.deg2rad(theta_deg)
    rows, cols = np.mgrid[0:s, 0:s]
    x = cols - c
    y = rows - c
    xs = np.cos(theta) * x + np.sin(theta) * y + c
    ys = -np.sin(theta) * x + np.cos(theta) * y + c
    j0 = np.floor(xs).astype(int)
    i0 = np.floor(ys).astype(int)
    fx = xs - j0
    fy = ys - i0

    def sample(ii, jj):
        inside = (ii >= 0) & (ii < s) & (jj >= 0) & (jj < s)
        values = patch[..., np.clip(ii, 0, s - 1), np.clip(jj, 0, s - 1)]
        return np.where(inside, values, 0.0)

    return ((1 - fy) * (1 - fx) * sample(i0, j0)
            + (1 - fy) * fx * sample(i0, j0 + 1)
            + fy * (1 - fx) * sample(i0 + 1, j0)
            + fy * fx * sample(i0 + 1, j0 + 1))


def avgpool_patch(patch, radius):
    """Same-size sliding-window mean with a square window of side `radius`.

    Acts on the last two axes of a [..., s, s] stack. Even windows are
    biased toward the top-left; border windows average the in-bounds
    pixels only. A window of side 1 is the identity and returns a copy.
    """
    patch = np.asarray(patch, dtype=np.float64)
    s = patch.shape[-1]
    if not 1 <= radius <= s:
        raise ValueError(f"window side {radius} outside 1..{s}")
    if radius == 1:
        return patch.copy()
    lo = -(radius // 2)
    hi = lo + radius - 1
    out = np.empty_like(patch)
    for i in range(s):
        r0, r1 = max(i + lo, 0), min(i + hi, s - 1)
        for j in range(s):
            c0, c1 = max(j + lo, 0), min(j + hi, s - 1)
            out[..., i, j] = patch[..., r0:r1 + 1, c0:c1 + 1].mean(
                axis=(-2, -1))
    return out


@dataclass
class PatchTransform:
    """A linear transform on square patches: pooling first, then rotation.

    kind ("rotate", "avgpool" or "compose") only names the cell; a
    rotation pools with a window of side 1, a pooling rotates by 0.
    """

    kind: str
    theta: float = 0.0
    radius: int = 1

    @classmethod
    def rotation(cls, theta):
        return cls(kind="rotate", theta=theta)

    @classmethod
    def pooling(cls, radius):
        return cls(kind="avgpool", radius=radius)

    @classmethod
    def composition(cls, radius, theta):
        return cls(kind="compose", theta=theta, radius=radius)

    def label(self):
        if self.kind == "rotate":
            return f"rotate_{self.theta:g}"
        if self.kind == "avgpool":
            return f"avgpool_{self.radius}"
        return f"compose_r{self.radius}_t{self.theta:g}"

    def apply(self, patch):
        return rotate_patch(avgpool_patch(patch, self.radius), self.theta)

    def operator(self):
        """36x36 matrix in the vec basis, from one stacked `apply`."""
        return stack_map_to_matrix(self.apply, PATCH, PATCH)


def save_pairs_csv(path, xs, ys):
    """Persist a pair dataset: one row = 36 input then 36 target columns."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.shape != ys.shape or xs.ndim != 2:
        raise ValueError(f"mismatched pair arrays: {xs.shape} vs {ys.shape}")
    from .analysis import save_csv
    save_csv(path, np.hstack([xs, ys]))


def load_pairs_csv(path):
    from .analysis import load_csv
    table = load_csv(path)
    half = table.shape[1] // 2
    return table[:, :half], table[:, half:]


def transform_pair_dataset(images, transform, num_pairs, rng):
    """(vec(patch), vec(transform(patch))) pairs as rows of X and Y.

    Each patch draws an image, then a top-left corner uniform over the
    positions; one `rng.integers` call makes every patch's three draws, in
    the order and from the stream that three scalar draws per patch use.
    Multichannel patches contribute one sample per channel, and the last
    patch may be cut short. The transform runs once on the stacked planes.
    """
    n, c, h, w = images.shape
    if h < PATCH or w < PATCH:
        raise ValueError(f"image {h}x{w} smaller than {PATCH}x{PATCH} patch")
    count = -(-num_pairs // c)
    bounds = np.tile([n, h - PATCH + 1, w - PATCH + 1], count)
    image, top, left = rng.integers(0, bounds).reshape(count, 3).T
    windows = np.lib.stride_tricks.sliding_window_view(
        images, (PATCH, PATCH), axis=(2, 3))
    patches = windows[image, :, top, left].astype(np.float64, copy=False)
    planes = patches.reshape(count * c, PATCH, PATCH)[:num_pairs]
    return vec(planes), vec(transform.apply(planes))
