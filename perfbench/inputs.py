"""Benchmark inputs, generated from the seed without the program's help.

Logits follow a low-rank model plus noise, f = Z W^T + sigma E, with
Z ~ N(0, I_r), W ~ N(0, 1/r) and E ~ N(0, 1).  Every 8th category is then
replaced by a sparse combination of 3 unplanted categories plus a little
noise, so the solver has a known support to recover.  Everything comes
from ``numpy.random.Generator`` and the files are written by the encoders
below, so a change to ``covlasso`` cannot change what the benchmark feeds
it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

PLANT_EVERY = 8
PLANT_TERMS = 3
PLANT_NOISE = 0.05


@dataclass(frozen=True)
class Logits:
    data: np.ndarray
    planted: dict[int, tuple[int, ...]]


def low_rank_logits(
    model: np.random.Generator,
    draw: np.random.Generator,
    n: int,
    samples: int,
    rank: int,
    sigma: float,
) -> Logits:
    """Low-rank logits with every PLANT_EVERY-th category planted.

    ``model`` fixes the classifier: the weights W and the planted
    combinations.  ``draw`` samples its inputs: Z, E and the planted
    noise.  A planted category t is a combination of the PLANT_TERMS
    categories after it, with weights of magnitude 0.5 to 1.5 and random
    signs, plus PLANT_NOISE noise.  ``planted`` maps each planted
    category to its support.
    """
    w = model.standard_normal((n, rank)) / np.sqrt(rank)
    targets = range(0, n - PLANT_TERMS, PLANT_EVERY)
    weights = {
        t: model.uniform(0.5, 1.5, PLANT_TERMS) * model.choice([-1.0, 1.0], PLANT_TERMS)
        for t in targets
    }
    z = draw.standard_normal((samples, rank))
    data = z @ w.T + sigma * draw.standard_normal((samples, n))
    planted = {}
    for t in targets:
        support = np.arange(t + 1, t + 1 + PLANT_TERMS)
        data[:, t] = data[:, support] @ weights[t] + PLANT_NOISE * draw.standard_normal(samples)
        planted[t] = tuple(int(j) for j in support)
    return Logits(data, planted)


def extension_labels(data: np.ndarray, new: np.ndarray, share: float) -> np.ndarray:
    """Labels over the base categories plus ``new.shape[1]`` new ones.

    A sample's label is the argmax of its base logits, unless one of the
    new categories' logits is in that category's top ``share`` of
    samples; then it is the last such new category.  The new logits are
    linear in the latent factors, so the base logits can predict them.
    """
    labels = np.argmax(data, axis=1)
    for k in range(new.shape[1]):
        top = new[:, k] >= np.quantile(new[:, k], 1.0 - share)
        labels[top] = data.shape[1] + k
    return labels


def second_moment(data: np.ndarray) -> np.ndarray:
    """Reference E[f f^T] by one float64 GEMM."""
    return (data.T @ data) / data.shape[0]


def encode_logits(data: np.ndarray, labels: np.ndarray | None = None) -> bytes:
    """NDLM file: header, row-major float64 logits, optional u32 labels."""
    samples, n = data.shape
    flags = 0 if labels is None else 1
    parts = [
        b"NDLM",
        struct.pack("<IQQI", 1, samples, n, flags),
        np.ascontiguousarray(data, dtype="<f8").tobytes(),
    ]
    if labels is not None:
        parts.append(np.asarray(labels, dtype="<u4").tobytes())
    return b"".join(parts)


def encode_cov(mat: np.ndarray, samples: int) -> bytes:
    """NDCV file: header and the upper triangle, row-major."""
    n = mat.shape[0]
    tri = np.ascontiguousarray(mat[np.triu_indices(n)], dtype="<f8")
    return b"NDCV" + struct.pack("<IQQ", 1, n, samples) + tri.tobytes()


def decode_cov(buf: bytes) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_cov`: the full symmetric matrix and N."""
    if buf[:4] != b"NDCV":
        raise ValueError("not a second-moment file")
    _, n, samples = struct.unpack("<IQQ", buf[4:24])
    tri = np.frombuffer(buf, dtype="<f8", offset=24)
    if tri.size != n * (n + 1) // 2:
        raise ValueError(f"triangle has {tri.size} values, order {n} needs {n * (n + 1) // 2}")
    mat = np.zeros((n, n))
    mat[np.triu_indices(n)] = tri
    return mat + np.triu(mat, 1).T, samples
