"""Unit tests for the Table-II detection-rate analysis harness."""

import pytest

from repro.ecc import (
    CRC8ATMCode,
    HammingSECDED,
    aligned_burst_patterns,
    contiguous_burst_patterns,
    detection_rate_burst,
    detection_rate_random,
    detection_table,
)
from repro.ecc.secded import popcount


class TestPatternGenerators:
    def test_contiguous_burst_count_and_shape(self):
        patterns = list(contiguous_burst_patterns(72, 4))
        assert len(patterns) == 69
        for p in patterns:
            assert popcount(p) == 4
            # A contiguous run: p / lowest-set-bit == 0b1111.
            low = p & -p
            assert p // low == 0b1111

    def test_aligned_burst_count(self):
        patterns = list(aligned_burst_patterns(72, 4, lane=8))
        assert len(patterns) == 9 * 70  # 9 lanes x C(8,4)
        for p in patterns:
            assert popcount(p) == 4

    def test_aligned_patterns_stay_in_one_lane(self):
        for p in aligned_burst_patterns(72, 3):
            lanes = {b // 8 for b in range(72) if (p >> b) & 1}
            assert len(lanes) == 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            list(contiguous_burst_patterns(72, 0))
        with pytest.raises(ValueError):
            list(contiguous_burst_patterns(72, 73))
        with pytest.raises(ValueError):
            list(aligned_burst_patterns(72, 9, lane=8))
        with pytest.raises(ValueError):
            list(aligned_burst_patterns(70, 2, lane=8))


class TestDetectionRates:
    def test_single_and_double_errors_always_detected(self, secded_code):
        assert detection_rate_random(secded_code, 1) == 1.0
        assert detection_rate_random(secded_code, 2) == 1.0

    def test_odd_errors_always_detected(self, secded_code):
        assert detection_rate_random(secded_code, 3, samples=3000) == 1.0
        assert detection_rate_random(secded_code, 5, samples=3000) == 1.0

    def test_crc8_bursts_100_percent(self, crc8):
        for e in range(1, 9):
            assert detection_rate_burst(crc8, e, mode="aligned") == 1.0
            assert detection_rate_burst(crc8, e, mode="contiguous") == 1.0

    def test_hamming_weaker_than_crc8_on_burst4(self, hamming, crc8):
        h = detection_rate_burst(hamming, 4, mode="aligned")
        c = detection_rate_burst(crc8, 4, mode="aligned")
        assert c == 1.0
        assert h < c  # the paper's Table-II ordering

    def test_random_even_weight_band(self, secded_code):
        rate = detection_rate_random(secded_code, 4, samples=20000)
        assert 0.97 < rate < 1.0

    def test_unknown_burst_mode(self, crc8):
        with pytest.raises(ValueError):
            detection_rate_burst(crc8, 4, mode="spiral")

    def test_deterministic_given_seed(self, hamming):
        a = detection_rate_random(hamming, 6, samples=2000, seed=7)
        b = detection_rate_random(hamming, 6, samples=2000, seed=7)
        assert a == b


class TestDetectionTable:
    @pytest.fixture(scope="class")
    def report(self):
        return detection_table(
            {"Hamming": HammingSECDED(), "CRC8-ATM": CRC8ATMCode()},
            error_counts=(1, 2, 3, 4),
            random_samples=2000,
        )

    def test_structure(self, report):
        assert report.error_counts == [1, 2, 3, 4]
        assert set(report.rates) == {"Hamming", "CRC8-ATM"}
        for modes in report.rates.values():
            assert set(modes) == {"random", "burst"}
            assert all(len(v) == 4 for v in modes.values())

    def test_row_accessor(self, report):
        row = report.row(4)
        assert row["CRC8-ATM"]["burst"] == 1.0

    def test_format_contains_all_codes(self, report):
        text = report.format_table()
        assert "Hamming" in text and "CRC8-ATM" in text
        assert "100.00%" in text


class TestBackendEquality:
    """Scalar and batched backends on the same pattern spaces."""

    def test_exhaustive_random_rates_identical(self, secded_code):
        for errors in (1, 2, 3):
            scalar = detection_rate_random(secded_code, errors)
            batched = detection_rate_random(
                secded_code, errors, backend="batched"
            )
            assert scalar == batched

    def test_burst_rates_identical(self, secded_code):
        for errors in (1, 2, 4, 8):
            for mode in ("aligned", "contiguous"):
                scalar = detection_rate_burst(secded_code, errors, mode=mode)
                batched = detection_rate_burst(
                    secded_code, errors, mode=mode, backend="batched"
                )
                assert scalar == batched

    def test_sampled_rates_identical(self):
        """Both backends evaluate one seeded draw of sampled positions."""
        codes = {"Hamming": HammingSECDED(), "CRC8-ATM": CRC8ATMCode()}
        for burst_mode in ("aligned", "contiguous"):
            scalar = detection_table(
                codes, error_counts=range(4, 9), random_samples=5000,
                burst_mode=burst_mode, seed=3,
            )
            batched = detection_table(
                codes, error_counts=range(4, 9), random_samples=5000,
                burst_mode=burst_mode, seed=3, backend="batched",
            )
            assert scalar.rates == batched.rates

    def test_batched_sampled_deterministic_given_seed(self, hamming):
        a = detection_rate_random(
            hamming, 6, samples=2000, seed=7, backend="batched"
        )
        b = detection_rate_random(
            hamming, 6, samples=2000, seed=7, backend="batched"
        )
        assert a == b

    def test_table_identical_on_exhaustive_counts(self):
        codes = {"Hamming": HammingSECDED(), "CRC8-ATM": CRC8ATMCode()}
        scalar = detection_table(codes, error_counts=(1, 2, 3))
        batched = detection_table(
            codes, error_counts=(1, 2, 3), backend="batched"
        )
        assert scalar.rates == batched.rates

    def test_unknown_backend_rejected(self, hamming):
        with pytest.raises(ValueError):
            detection_rate_random(hamming, 2, backend="simd")
        with pytest.raises(ValueError):
            detection_rate_burst(hamming, 2, backend="simd")
        with pytest.raises(ValueError):
            detection_table({"h": hamming}, backend="simd")
