"""Unit and property tests for the fidelity metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fidelity import (
    SNR_CLAMP_DB,
    classification_error,
    evaluate,
    matrix_mismatch,
    psnr,
    segmental_snr,
)

signal = st.lists(
    st.integers(min_value=-32768, max_value=32767), min_size=8, max_size=128
)


class TestPSNR:
    def test_identical_signals_clamp(self):
        assert psnr([1, 2, 3], [1, 2, 3]) == SNR_CLAMP_DB

    def test_known_value(self):
        # constant error of 16 on an 8-bit image: PSNR = 20*log10(255/16)
        ref = np.zeros(100) + 100
        obs = ref + 16
        assert psnr(ref, obs, peak=255) == pytest.approx(
            20 * math.log10(255 / 16), abs=1e-6
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr([1, 2], [1, 2, 3])

    def test_nonfinite_observed_scores_terribly(self):
        assert psnr([1.0, 2.0], [math.inf, 2.0], peak=255) < 0

    @given(signal, st.integers(min_value=0, max_value=127))
    @settings(max_examples=30)
    def test_more_noise_never_raises_psnr(self, ref, noise):
        ref = np.asarray(ref)
        small = psnr(ref, ref + noise, peak=65535)
        big = psnr(ref, ref + noise * 2, peak=65535)
        assert big <= small + 1e-9


class TestSegmentalSNR:
    def test_identical_clamp(self):
        assert segmental_snr([5] * 100, [5] * 100) == SNR_CLAMP_DB

    def test_localised_corruption_hurts_proportionally(self):
        ref = np.asarray([1000] * 256)
        one_frame = ref.copy()
        one_frame[0:64] += 5000
        many_frames = ref + 5000
        assert segmental_snr(ref, one_frame, frame=64) > segmental_snr(
            ref, many_frames, frame=64
        )

    def test_bad_frame_size_rejected(self):
        with pytest.raises(ValueError):
            segmental_snr([1], [1], frame=0)

    def test_silent_reference_with_noise_scores_zero(self):
        assert segmental_snr([0] * 64, [100] * 64, frame=64) == 0.0

    @given(
        st.lists(st.integers(min_value=-32768, max_value=32767),
                 min_size=0, max_size=400),
        st.data(),
        st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_frame_loop_bit_for_bit(self, ref, data, frame):
        """The row-reduction form gives the same float as one ``np.sum``
        per frame (the formula kept here as the oracle)."""
        obs = list(ref)
        for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
            if obs:
                i = data.draw(st.integers(min_value=0, max_value=len(obs) - 1))
                obs[i] += data.draw(st.integers(min_value=-70000,
                                                max_value=70000))
        expected = _segmental_snr_per_frame(ref, obs, frame)
        got = segmental_snr(ref, obs, frame=frame)
        assert got.hex() == expected.hex()

    def test_matches_per_frame_loop_on_nonfinite_and_2d(self):
        rng = np.random.default_rng(3)
        ref = rng.normal(0, 1000, size=(70, 3))
        obs = ref.copy()
        obs[5, 1] = np.nan
        obs[40, 0] += 1e9
        for frame in (1, 7, 64, 70, 71):
            expected = _segmental_snr_per_frame(ref, obs, frame)
            assert segmental_snr(ref, obs, frame=frame).hex() == expected.hex()


def _segmental_snr_per_frame(reference, observed, frame):
    """The per-frame loop ``segmental_snr`` replaced: the test's oracle."""
    ref = np.nan_to_num(np.asarray(reference, dtype=np.float64),
                        nan=1e18, posinf=1e18, neginf=-1e18)
    obs = np.nan_to_num(np.asarray(observed, dtype=np.float64),
                        nan=1e18, posinf=1e18, neginf=-1e18)
    snrs = []
    for start in range(0, len(ref), frame):
        r = ref[start:start + frame]
        o = obs[start:start + frame]
        noise = float(np.sum((r - o) ** 2))
        signal = float(np.sum(r * r))
        if noise == 0.0:
            snrs.append(SNR_CLAMP_DB)
        elif signal == 0.0:
            snrs.append(0.0)
        else:
            snrs.append(min(max(10.0 * math.log10(signal / noise), 0.0),
                            SNR_CLAMP_DB))
    return float(np.mean(snrs)) if snrs else SNR_CLAMP_DB


class TestClassification:
    def test_exact_match(self):
        assert classification_error([1, 2, 3], [1, 2, 3]) == 0.0

    def test_fraction(self):
        assert classification_error([1, 1, 1, 1], [1, 1, 2, 2]) == 0.5

    def test_matrix_mismatch_alias(self):
        assert matrix_mismatch([0, 1], [1, 1]) == 0.5

    def test_empty_is_zero(self):
        assert classification_error([], []) == 0.0


class TestEvaluate:
    def test_higher_is_better_direction(self):
        r = evaluate("psnr", [1, 2, 3], [1, 2, 3], threshold=30.0)
        assert r.acceptable and r.identical

    def test_lower_is_better_direction(self):
        r = evaluate("class_error", [1, 1, 1, 1], [1, 1, 1, 2], threshold=0.10)
        assert not r.identical
        assert not r.acceptable  # 25% > 10%

    def test_acceptable_but_not_identical(self):
        ref = np.arange(100) + 1000
        obs = ref.copy()
        obs[0] += 1
        r = evaluate("psnr", ref, obs, threshold=30.0)
        assert r.acceptable and not r.identical

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            evaluate("ssim", [1], [1], 0.5)

    @given(signal)
    @settings(max_examples=30)
    def test_identity_is_always_acceptable(self, data):
        for metric, thr in [("psnr", 30.0), ("segsnr", 80.0),
                            ("class_error", 0.1), ("matrix_mismatch", 0.1)]:
            r = evaluate(metric, data, list(data), thr)
            assert r.identical and r.acceptable
