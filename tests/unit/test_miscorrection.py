"""Unit tests for the SECDED miscorrection profiling."""

import pickle

import pytest

from repro.ecc import CRC8ATMCode, HammingSECDED, miscorrection
from repro.ecc.miscorrection import (
    MiscorrectionProfile,
    hamming_chip_error_sdc_fraction,
    measure_lane_error_profile,
)
from repro.faultsim.schemes import EccDimmScheme


class TestProfileMeasurement:
    def test_profile_sums_to_one(self):
        p = measure_lane_error_profile(HammingSECDED(), samples=3000)
        assert p.detected + p.miscorrected + p.silent == pytest.approx(1.0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            MiscorrectionProfile(0.5, 0.5, 0.5)

    def test_deterministic_given_seed(self):
        a = measure_lane_error_profile(HammingSECDED(), samples=2000, seed=1)
        b = measure_lane_error_profile(HammingSECDED(), samples=2000, seed=1)
        assert a == b

    def test_crc8_detects_more_lane_errors_than_hamming(self):
        """The Table-II ordering carries into the miscorrection study:
        a degree-8 CRC detects every in-lane burst that Hamming
        miscorrects."""
        ham = measure_lane_error_profile(HammingSECDED(), samples=6000)
        crc = measure_lane_error_profile(CRC8ATMCode(), samples=6000)
        assert crc.detected > ham.detected
        assert crc.silent == 0.0  # no lane error is a CRC8 codeword

    def test_lane_choice_does_not_change_story(self):
        lane0 = measure_lane_error_profile(HammingSECDED(), lane=0, samples=4000)
        lane7 = measure_lane_error_profile(HammingSECDED(), lane=7, samples=4000)
        assert lane0.sdc_fraction == pytest.approx(
            lane7.sdc_fraction, abs=0.15
        )

    def test_hamming_sdc_fraction_band(self):
        frac = hamming_chip_error_sdc_fraction(10000)
        assert 0.3 < frac < 0.6


class TestSchemeIntegration:
    def test_ecc_dimm_defaults_to_measured_fraction(self):
        scheme = EccDimmScheme()
        assert scheme.sdc_fraction == pytest.approx(
            hamming_chip_error_sdc_fraction(), abs=1e-12
        )

    def test_override_still_supported(self):
        assert EccDimmScheme(sdc_fraction=0.1).sdc_fraction == 0.1

    @pytest.fixture
    def measure_calls(self, monkeypatch):
        """Count lane-profile measurements, with the fraction cache empty."""
        calls = []
        real = miscorrection.measure_lane_error_profile

        def counting(*args, **kwargs):
            calls.append(kwargs.get("backend"))
            return real(*args, **kwargs)

        monkeypatch.setattr(
            miscorrection, "measure_lane_error_profile", counting
        )
        hamming_chip_error_sdc_fraction.cache_clear()
        yield calls
        hamming_chip_error_sdc_fraction.cache_clear()

    def test_constructor_does_not_measure(self, measure_calls):
        EccDimmScheme()
        assert measure_calls == []

    def test_first_access_measures_once_through_batched(self, measure_calls):
        scheme = EccDimmScheme()
        assert scheme.sdc_fraction == scheme.sdc_fraction
        assert measure_calls == ["batched"]

    def test_pickled_bound_scheme_carries_fraction(self, measure_calls):
        """Pool workers get a resolved fraction and never re-measure.

        The scheme is pickled before anything read its split, as the
        Monte-Carlo driver does when it ships a fresh scheme to a pool.
        """
        payload = pickle.dumps(EccDimmScheme())
        assert measure_calls == ["batched"]
        hamming_chip_error_sdc_fraction.cache_clear()
        restored = pickle.loads(payload)
        assert restored.sdc_fraction == pytest.approx(0.44275, abs=1e-12)
        assert measure_calls == ["batched"]
        # ...and the batched value is the scalar oracle's, bit for bit.
        assert restored.sdc_fraction == hamming_chip_error_sdc_fraction()

    def test_pickled_override_never_measures(self, measure_calls):
        restored = pickle.loads(pickle.dumps(EccDimmScheme(sdc_fraction=0.25)))
        assert restored.sdc_fraction == 0.25
        assert measure_calls == []


class TestBackendEquality:
    def test_profiles_bit_identical_across_backends(self):
        """Both backends classify the identical drawn sample set."""
        for code in (HammingSECDED(), CRC8ATMCode()):
            scalar = measure_lane_error_profile(code, samples=4000)
            batched = measure_lane_error_profile(
                code, samples=4000, backend="batched"
            )
            assert scalar == batched

    def test_lane_and_width_respected_by_batched(self):
        scalar = measure_lane_error_profile(
            HammingSECDED(), lane=3, lane_bits=4, samples=3000
        )
        batched = measure_lane_error_profile(
            HammingSECDED(), lane=3, lane_bits=4, samples=3000,
            backend="batched",
        )
        assert scalar == batched

    def test_sdc_fraction_backend_invariant(self):
        assert hamming_chip_error_sdc_fraction(
            8000
        ) == hamming_chip_error_sdc_fraction(8000, backend="batched")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            measure_lane_error_profile(
                HammingSECDED(), samples=100, backend="turbo"
            )
