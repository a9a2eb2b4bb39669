"""Fidelity metrics (paper Table I, column 4).

Each soft-computing benchmark judges output quality with a domain metric:

* PSNR for images, video, and mp3 audio (threshold 30 dB in the paper);
* segmental SNR for g721 audio (threshold 80 dB);
* classification error for the ML benchmarks (threshold 10%);
* output/segment matrix mismatch for the vision benchmarks (threshold 10%).

All metrics here compare a *faulty* output against the *golden* (fault-free)
output of the same binary — the paper's notion of acceptability is relative
to the fault-free run, not to a mathematical ideal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: SNR value used for numerically identical signals (the dynamic range of a
#: 16-bit signal; also the per-frame clamp for segmental SNR).
SNR_CLAMP_DB = 96.0


@dataclass(frozen=True)
class FidelityResult:
    """Outcome of a fidelity comparison."""

    metric: str
    score: float
    threshold: float
    #: True when the output is acceptable to the user (ASDC if not identical)
    acceptable: bool
    identical: bool

    def __repr__(self) -> str:
        verdict = "identical" if self.identical else ("ok" if self.acceptable else "BAD")
        return f"<Fidelity {self.metric}={self.score:.2f} thr={self.threshold} {verdict}>"


def _as_float_array(values: Sequence) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    # Corrupted float outputs can contain inf/NaN; treat them as maximally
    # wrong but finite so the metrics stay well-defined.
    return np.nan_to_num(arr, nan=1e18, posinf=1e18, neginf=-1e18)


def psnr(reference: Sequence, observed: Sequence, peak: float = 0.0) -> float:
    """Peak signal-to-noise ratio in dB (higher = closer).

    ``peak`` defaults to the reference signal's dynamic range (255 for 8-bit
    images fed as 0..255 ints).  Identical signals score :data:`SNR_CLAMP_DB`.
    """
    ref = _as_float_array(reference)
    obs = _as_float_array(observed)
    if ref.shape != obs.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {obs.shape}")
    if peak <= 0.0:
        peak = float(ref.max() - ref.min())
        if peak <= 0.0:
            peak = max(abs(float(ref.max())), 1.0)
    mse = float(np.mean((ref - obs) ** 2))
    if mse == 0.0:
        return SNR_CLAMP_DB
    return min(10.0 * math.log10(peak * peak / mse), SNR_CLAMP_DB)


def segmental_snr(
    reference: Sequence, observed: Sequence, frame: int = 64
) -> float:
    """Mean of per-frame SNRs in dB, each clamped to [0, SNR_CLAMP_DB].

    The standard speech-quality metric: local corruption hurts proportionally
    to how many frames it touches.
    """
    ref = _as_float_array(reference)
    obs = _as_float_array(observed)
    if ref.shape != obs.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {obs.shape}")
    if frame <= 0:
        raise ValueError("frame size must be positive")
    # Per-frame sums as row reductions over the whole frames, the last
    # partial frame summed on its own: the same sums as one np.sum per frame.
    noise_sq = (ref - obs) ** 2
    signal_sq = ref * ref
    full = len(ref) - len(ref) % frame
    noises: list = []
    signals: list = []
    if full:
        rows = full // frame
        noises = np.sum(noise_sq[:full].reshape(rows, -1), axis=1).tolist()
        signals = np.sum(signal_sq[:full].reshape(rows, -1), axis=1).tolist()
    if full < len(ref):
        noises.append(float(np.sum(noise_sq[full:])))
        signals.append(float(np.sum(signal_sq[full:])))
    snrs = []
    for noise, signal in zip(noises, signals):
        if noise == 0.0:
            snrs.append(SNR_CLAMP_DB)
        elif signal == 0.0:
            snrs.append(0.0)
        else:
            snrs.append(min(max(10.0 * math.log10(signal / noise), 0.0), SNR_CLAMP_DB))
    return float(np.mean(snrs)) if snrs else SNR_CLAMP_DB


def classification_error(reference: Sequence, observed: Sequence) -> float:
    """Fraction of labels that differ (0.0 = identical classification)."""
    ref = np.asarray(reference)
    obs = np.asarray(observed)
    if ref.shape != obs.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {obs.shape}")
    if ref.size == 0:
        return 0.0
    return float(np.mean(ref != obs))


def matrix_mismatch(reference: Sequence, observed: Sequence) -> float:
    """Fraction of elements that differ (vision benchmarks' output matrices)."""
    return classification_error(reference, observed)


_METRICS = {
    "psnr": (psnr, "higher"),
    "segsnr": (segmental_snr, "higher"),
    "class_error": (classification_error, "lower"),
    "matrix_mismatch": (matrix_mismatch, "lower"),
}


def evaluate(
    metric: str, reference: Sequence, observed: Sequence, threshold: float
) -> FidelityResult:
    """Score ``observed`` against ``reference`` and apply the threshold.

    For 'higher' metrics (PSNR, segSNR) the output is acceptable when the
    score is at or above the threshold; for 'lower' metrics (error rates)
    when at or below.
    """
    try:
        fn, direction = _METRICS[metric]
    except KeyError:
        raise ValueError(f"unknown fidelity metric {metric!r}") from None
    ref = np.asarray(reference)
    obs = np.asarray(observed)
    identical = ref.shape == obs.shape and bool(np.array_equal(ref, obs))
    score = fn(reference, observed)
    acceptable = score >= threshold if direction == "higher" else score <= threshold
    return FidelityResult(
        metric=metric, score=score, threshold=threshold,
        acceptable=bool(acceptable), identical=identical,
    )
