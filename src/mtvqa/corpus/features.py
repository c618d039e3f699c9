"""Image feature storage: id -> flat float vector, one dimension per store."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError, open_archive, open_text

_MAGIC = "mtvqa-feat v1"


@dataclass
class FeatureStore:
    vectors: dict
    feature_dim: int

    def __len__(self):
        return len(self.vectors)

    def rows(self, image_ids):
        """The (len(image_ids), feature_dim) float64 vectors of `image_ids`, in order."""
        missing = [i for i in image_ids if i not in self.vectors]
        if missing:
            raise FormatError(f"feature store is missing image ids: {missing[:5]}"
                              + (" ..." if len(missing) > 5 else ""))
        return np.array([self.vectors[i] for i in image_ids],
                        dtype=np.float64).reshape(len(image_ids), self.feature_dim)


def save_features(path, store, binary=False):
    """Write the text format, or the packed .npz variant when `binary`."""
    if binary:
        ids = list(store.vectors.keys())
        mat = np.stack([store.vectors[i] for i in ids]) if ids else np.zeros((0, store.feature_dim))
        with open(path, "wb") as fh:
            np.savez(fh, magic=np.array(_MAGIC), dim=np.array(store.feature_dim),
                     ids=np.array(ids), matrix=mat)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MAGIC} {store.feature_dim}\n")
        for image_id, vec in store.vectors.items():
            fh.write(image_id + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def load_features(path):
    """Read either variant back into a FeatureStore."""
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"PK":
        return _load_binary(path)
    return _load_text(path)


def _load_binary(path):
    with open_archive(path, "feature") as z:
        if str(z["magic"]) != _MAGIC:
            raise FormatError(f"{path}: missing feature header")
        dim = int(z["dim"])
        ids = [str(i) for i in z["ids"]]
        mat = z["matrix"].astype(np.float64)
    if mat.shape != (len(ids), dim):
        raise FormatError(f"{path}: matrix shape {mat.shape} inconsistent with header")
    vectors = dict(zip(ids, mat))
    if len(vectors) < len(ids):
        repeated = next(i for i in vectors if ids.count(i) > 1)
        raise FormatError(f"{path}: image {repeated!r} is listed more than once")
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if len(bad):
        raise FormatError(f"{path}: image {ids[bad[0]]!r} has a non-finite value")
    return FeatureStore(vectors=vectors, feature_dim=dim)


def _load_text(path):
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(_MAGIC):
        raise FormatError(f"{path}: missing feature header (empty or foreign file)")
    try:
        dim = int(lines[0][len(_MAGIC):].strip())
    except ValueError as exc:
        raise FormatError(f"{path}: bad feature header") from exc
    vectors = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        image_id, vals = parts[0], parts[1:]
        if image_id in vectors:
            raise FormatError(f"{path}:{lineno}: image {image_id!r} is listed more than once")
        if len(vals) != dim:
            raise FormatError(
                f"{path}:{lineno}: record {image_id!r} has {len(vals)} values, expected {dim}")
        try:
            vectors[image_id] = np.array(vals, dtype=np.float64)
            if not np.isfinite(vectors[image_id]).all():
                raise ValueError("non-finite value")
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: record {image_id!r}: {exc}") from exc
    return FeatureStore(vectors=vectors, feature_dim=dim)
