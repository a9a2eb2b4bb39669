"""Deterministic synthetic input generators.

The paper profiles and tests each benchmark on real media files (Table I).
Offline we substitute seeded synthetic signals with the same character:
structured images (gradients + texture + blobs), multi-tone audio with an
envelope, video with motion, and Gaussian-cluster ML data.  Train (profiling)
and test (fault-injection) inputs use different seeds and sizes, mirroring the
paper's separate train/test files.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def synthetic_image(width: int, height: int, seed: int = 0) -> np.ndarray:
    """A structured 8-bit grayscale image: gradient + texture + blobs.

    Returns an (height, width) uint8-range int array (values 0..255).
    """
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    img = 96.0 + 60.0 * (x / max(width - 1, 1)) + 40.0 * (y / max(height - 1, 1))
    img += 25.0 * np.sin(2.0 * math.pi * x / 7.5) * np.cos(2.0 * math.pi * y / 9.0)
    for _ in range(3):
        cx = rng.uniform(0, width)
        cy = rng.uniform(0, height)
        radius = rng.uniform(2.0, max(width, height) / 3.0)
        amp = rng.uniform(-50.0, 50.0)
        img += amp * np.exp(-(((x - cx) ** 2 + (y - cy) ** 2) / (2 * radius * radius)))
    img += rng.normal(0.0, 3.0, size=img.shape)
    return np.clip(np.round(img), 0, 255).astype(np.int64)


def synthetic_rgb_image(width: int, height: int, seed: int = 0) -> np.ndarray:
    """An (height, width, 3) RGB image built from three correlated planes."""
    base = synthetic_image(width, height, seed)
    r = np.clip(base + synthetic_image(width, height, seed + 1) // 4 - 32, 0, 255)
    g = np.clip(base, 0, 255)
    b = np.clip(255 - base // 2 + synthetic_image(width, height, seed + 2) // 8, 0, 255)
    return np.stack([r, g, b], axis=-1).astype(np.int64)


def synthetic_audio(num_samples: int, seed: int = 0) -> np.ndarray:
    """16-bit-range audio: a chord of sines with vibrato under an envelope."""
    rng = np.random.default_rng(seed)
    t = np.arange(num_samples, dtype=np.float64)
    signal = np.zeros(num_samples)
    for _ in range(4):
        freq = rng.uniform(0.01, 0.12)
        phase = rng.uniform(0, 2 * math.pi)
        amp = rng.uniform(0.1, 0.3)
        vibrato = 1.0 + 0.05 * np.sin(2 * math.pi * t * rng.uniform(0.001, 0.004))
        signal += amp * np.sin(2 * math.pi * freq * t * vibrato + phase)
    envelope = 0.4 + 0.6 * np.abs(np.sin(2 * math.pi * t / max(num_samples, 1)))
    signal = signal * envelope * 12000.0
    signal += rng.normal(0.0, 40.0, size=num_samples)
    return np.clip(np.round(signal), -32768, 32767).astype(np.int64)


def synthetic_video(
    width: int, height: int, frames: int, seed: int = 0
) -> np.ndarray:
    """(frames, height, width) video: a textured background with moving blobs."""
    rng = np.random.default_rng(seed)
    background = synthetic_image(width, height, seed).astype(np.float64)
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    blobs = [
        (rng.uniform(0, width), rng.uniform(0, height),
         rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
         rng.uniform(2.0, 5.0), rng.uniform(30.0, 70.0))
        for _ in range(2)
    ]
    out = np.empty((frames, height, width), dtype=np.int64)
    for f in range(frames):
        frame = background.copy()
        for (cx, cy, vx, vy, radius, amp) in blobs:
            px = (cx + vx * f) % width
            py = (cy + vy * f) % height
            frame += amp * np.exp(-(((x - px) ** 2 + (y - py) ** 2) / (2 * radius * radius)))
        out[f] = np.clip(np.round(frame), 0, 255).astype(np.int64)
    return out


def gaussian_clusters(
    num_points: int, num_clusters: int, num_dims: int, seed: int = 0, spread: float = 0.9
) -> Tuple[np.ndarray, np.ndarray]:
    """Labelled points drawn from well-separated Gaussians (scaled ×100 ints).

    Returns (points[num_points, num_dims] int, labels[num_points] int).
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10.0, 10.0, size=(num_clusters, num_dims))
    points = np.empty((num_points, num_dims))
    labels = np.empty(num_points, dtype=np.int64)
    for i in range(num_points):
        c = i % num_clusters
        labels[i] = c
        points[i] = centers[c] + rng.normal(0.0, spread, size=num_dims)
    return np.round(points * 100.0).astype(np.int64), labels


def two_class_data(
    num_points: int, num_dims: int, seed: int = 0, margin: float = 1.2
) -> Tuple[np.ndarray, np.ndarray]:
    """Linearly separable-ish two-class data (labels ±1, features ×100 ints)."""
    rng = np.random.default_rng(seed)
    normal = rng.normal(0.0, 1.0, size=num_dims)
    normal /= np.linalg.norm(normal)
    points = np.empty((num_points, num_dims))
    labels = np.empty(num_points, dtype=np.int64)
    for i in range(num_points):
        label = 1 if i % 2 == 0 else -1
        base = rng.normal(0.0, 1.5, size=num_dims)
        proj = float(base @ normal)
        base += normal * (label * (margin + abs(rng.normal(0.0, 0.8))) - proj)
        points[i] = base
        labels[i] = label
    return np.round(points * 100.0).astype(np.int64), labels
