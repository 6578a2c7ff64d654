"""Periodogram estimation and eigenvalue-criterion detection."""
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from oracles import add_noise, normalize_power, synthesize, to_iq
from qsine import classical
from qsine.classical import (
    DEFAULT_NFFT,
    SpectrumEstimate,
    aic_mdl_counts,
    aic_mdl_detect,
    classical_estimate,
    periodogram_estimates,
    pick_peaks,
    zero_padded_dft,
)
from qsine.quantize import bussgang_linearize, make_quantizer, quantize
from qsine.signals import GenConfig, ParameterSet, make_dataset, substream
from qsine.tones import TWO_PI


def _tone_frame(amps, freqs, phases, N=64):
    params = ParameterSet(m=len(amps), amps=np.asarray(amps, float),
                          freqs=np.asarray(freqs, float),
                          phases=np.asarray(phases, float))
    return params, synthesize(params, N)


class TestZeroPaddedDft:
    def test_matches_numpy_fft(self):
        rng = substream(3, 0)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        spec = zero_padded_dft(x, 256)
        npt.assert_allclose(spec.values, np.fft.fft(x, n=256), rtol=1e-12)
        npt.assert_allclose(spec.magnitudes, np.abs(spec.values[:129]))

    def test_on_bin_tone_is_exact(self):
        # a tone at k0/nfft gives value N * a * e^{j phi} in bin k0
        N, nfft, k0 = 64, 1024, 100
        _, x = _tone_frame([0.8], [k0 / nfft], [1.2], N)
        spec = zero_padded_dft(x, nfft)
        got = spec.values[k0] / N
        assert got == pytest.approx(0.8 * np.exp(1.2j), abs=1e-10)

    def test_rejects_short_nfft(self):
        with pytest.raises(ValueError, match="must be >="):
            zero_padded_dft(np.ones(64, dtype=complex), 32)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            zero_padded_dft(np.ones(64, dtype=complex), 100)


def _fake_spectrum(nfft, peaks):
    mag = np.zeros(nfft)
    for k, v in peaks.items():
        mag[k] = v
    return SpectrumEstimate(nfft=nfft, values=mag.astype(complex),
                            magnitudes=mag)


class TestPickPeaks:
    def test_simple_peaks_sorted_ascending(self):
        spec = _fake_spectrum(64, {20: 8.0, 5: 10.0, 7: 9.0})
        npt.assert_array_equal(pick_peaks(spec, 3, N=16), [5, 7, 20])

    def test_guard_suppresses_mainlobe_shoulder(self):
        # N=8 -> guard = ceil(64/16) = 4; the bin-12 peak sits inside the
        # bin-10 exclusion zone, so the third pick jumps to bin 30
        spec = _fake_spectrum(64, {10: 10.0, 12: 9.0, 30: 8.0})
        npt.assert_array_equal(pick_peaks(spec, 2, N=8), [10, 30])

    def test_degraded_pick_warns(self):
        spec = _fake_spectrum(64, {10: 10.0})
        with pytest.warns(RuntimeWarning, match="guarded local maxima"):
            got = pick_peaks(spec, 2, N=8)
        assert len(got) == 2
        assert 10 in got

    def test_band_excludes_dc_and_negative_half(self):
        mag = np.zeros(64)
        mag[0] = 100.0   # DC
        mag[40] = 50.0   # negative-frequency half (k >= nfft/2)
        mag[12] = 5.0
        spec = SpectrumEstimate(64, mag.astype(complex), mag)
        npt.assert_array_equal(pick_peaks(spec, 1, N=8), [12])

    def test_validation(self):
        spec = _fake_spectrum(64, {10: 1.0})
        with pytest.raises(ValueError):
            pick_peaks(spec, 0, N=8)


class TestClassicalEstimate:
    def test_single_tone_round_trip(self):
        _, x = _tone_frame([0.8], [0.2], [1.0])
        ps = classical_estimate(to_iq(x), 1)
        assert abs(ps.freqs[0] - 0.2) <= 1.0 / DEFAULT_NFFT
        assert ps.amps[0] == pytest.approx(0.8, rel=0.02)
        assert ps.phases[0] == pytest.approx(1.0, abs=0.05)

    def test_two_tone_round_trip(self):
        # mutual spectral leakage between tones biases each peak by
        # O(1/(N*nfft_bin)) -- far above the single-tone bin error, so the
        # frequency tolerance is looser here
        _, x = _tone_frame([1.0, 0.7], [0.1, 0.3], [0.5, 4.0])
        ps = classical_estimate(to_iq(x), 2)
        npt.assert_allclose(ps.freqs, [0.1, 0.3], atol=5e-4)
        npt.assert_allclose(ps.amps, [1.0, 0.7], rtol=0.05)
        npt.assert_allclose(ps.phases, [0.5, 4.0], atol=0.15)

    def test_accepts_iq_matrix(self):
        _, x = _tone_frame([0.8], [0.2], [1.0])
        ps = classical_estimate(to_iq(x), 1)
        assert abs(ps.freqs[0] - 0.2) <= 1.0 / DEFAULT_NFFT

    def test_quantized_frame_keeps_frequency(self):
        # 3-bit quantization distorts amplitude but barely moves the peak
        _, x = _tone_frame([0.9], [0.22], [2.0])
        z = normalize_power(add_noise(x, 40.0, 0.81, substream(11, 0)))
        q = make_quantizer(3)
        ps = classical_estimate(to_iq(quantize(z, q)), 1, qspec=q)
        assert abs(ps.freqs[0] - 0.22) < 1e-3

    def test_results_sorted_by_frequency(self):
        _, x = _tone_frame([0.5, 1.0], [0.35, 0.12], [1.0, 2.0])
        ps = classical_estimate(to_iq(x), 2)
        assert ps.freqs[0] < ps.freqs[1]


def _noisy_frame(m, snr_db, seed, N=64):
    rng = substream(seed, 0)
    freqs = np.linspace(0.06, 0.3, m)
    params = ParameterSet(m=m, amps=np.full(m, 0.8), freqs=freqs,
                          phases=rng.uniform(0, 2 * np.pi, size=m))
    x = synthesize(params, N)
    return add_noise(x, snr_db, float(np.sum(params.amps**2)), rng)


class TestAicMdl:
    @pytest.mark.parametrize("m", [1, 2])
    def test_mdl_detects_clean_tones(self, m):
        hits = sum(
            aic_mdl_detect(to_iq(_noisy_frame(m, 30.0, seed)), "mdl") == m
            for seed in range(50)
        )
        assert hits >= 45

    @pytest.mark.parametrize("m", [1, 2])
    def test_aic_overshoots_but_never_undershoots(self, m):
        # AIC's fixed penalty is too weak at high SNR: it sometimes reports
        # extra sources, but does not drop real ones
        preds = [aic_mdl_detect(to_iq(_noisy_frame(m, 30.0, seed)), "aic")
                 for seed in range(50)]
        assert all(p >= m for p in preds)
        assert sum(p == m for p in preds) >= 25

    def test_scale_invariance(self):
        x = to_iq(_noisy_frame(2, 10.0, 5))
        for crit in ("aic", "mdl"):
            assert aic_mdl_detect(x, crit) == aic_mdl_detect(10.0 * x, crit)

    def test_noise_only_prefers_smallest_count(self):
        hits = 0
        for seed in range(10):
            noise = substream(100 + seed, 0).normal(size=(64, 2)) / np.sqrt(2)
            hits += aic_mdl_detect(noise, "mdl") == 1
        assert hits >= 8

    def test_qspec_path_matches_manual_linearization(self):
        q = make_quantizer(3)
        z = quantize(normalize_power(_noisy_frame(2, 20.0, 9)), q)
        via_qspec = aic_mdl_detect(to_iq(z), "mdl", qspec=q)
        manual = aic_mdl_detect(to_iq(bussgang_linearize(to_iq(z), q)), "mdl")
        assert via_qspec == manual

    def test_validation(self):
        x = to_iq(_noisy_frame(1, 10.0, 1))
        with pytest.raises(ValueError, match="criterion"):
            aic_mdl_detect(x, "bic")
        with pytest.raises(ValueError, match="L must be"):
            aic_mdl_detect(x, "mdl", L=40)
        with pytest.raises(ValueError, match="Mmax"):
            aic_mdl_detect(x, "mdl", L=4, Mmax=4)

    def test_mmax_caps_answer(self):
        x = to_iq(_noisy_frame(2, 30.0, 3))
        assert aic_mdl_detect(x, "mdl", Mmax=1) == 1


# --------------------------------------------------------------------------
# the stacked code against the frame-by-frame algorithms it replaced
# --------------------------------------------------------------------------

def _ref_frame(x, qspec):
    x = np.asarray(x)
    if qspec is not None:
        return bussgang_linearize(x, qspec)
    return x[:, 0] + 1j * x[:, 1]


def _ref_pick(mag, nfft, m, N):
    """Guarded greedy pick over the full magnitude spectrum, with the
    local maxima found by index gathers."""
    lo, hi = 1, nfft // 2
    guard = math.ceil(nfft / (2 * N))
    k = np.arange(lo, hi)
    candidates = k[(mag[k] > mag[k - 1]) & (mag[k] >= mag[k + 1])]
    order = candidates[np.argsort(mag[candidates])[::-1]]
    picked = []
    for k in order:
        if len(picked) == m:
            break
        if all(abs(k - p) >= guard for p in picked):
            picked.append(int(k))
    if len(picked) < m:
        warnings.warn("degraded", RuntimeWarning)
        blocked = np.zeros(nfft, dtype=bool)
        for p in picked:
            blocked[max(0, p - guard + 1) : p + guard] = True
        rest = np.arange(lo, hi)
        rest = rest[~blocked[lo:hi]]
        for k in rest[np.argsort(mag[rest])[::-1]]:
            if len(picked) == m:
                break
            if all(abs(k - p) >= guard for p in picked):
                picked.append(int(k))
        while len(picked) < m:
            picked.append(int(lo))
    return np.sort(np.asarray(picked, dtype=int))


def _ref_estimate(x, m, qspec, nfft):
    """Frame-by-frame periodogram: (amps, freqs, phases)."""
    xt = _ref_frame(x, qspec)
    N = len(xt)
    vals = np.fft.fft(xt, n=nfft)
    peaks = _ref_pick(np.abs(vals), nfft, m, N)
    r = vals[peaks]
    return np.abs(r) / N, peaks / nfft, np.mod(np.angle(r), TWO_PI)


def _ref_count(x, criterion, qspec, L=16, Mmax=5):
    """Frame-by-frame AIC/MDL count: one eigendecomposition per criterion."""
    xt = _ref_frame(x, qspec)
    N = len(xt)
    K = N - L + 1
    Y = np.lib.stride_tricks.sliding_window_view(xt, L).T
    R = (Y @ Y.conj().T) / K
    ev = np.clip(np.linalg.eigvalsh(R)[::-1].real, 1e-12, None)
    best_k, best_score = 1, math.inf
    for k in range(1, Mmax + 1):
        tail = ev[k:]
        log_gm = float(np.mean(np.log(tail)))
        am = float(np.mean(tail))
        llr = -K * (L - k) * (log_gm - math.log(am))
        if criterion == "aic":
            score = 2.0 * llr + 2.0 * k * (2 * L - k)
        else:
            score = llr + 0.5 * k * (2 * L - k) * math.log(K)
        if score < best_score:
            best_k, best_score = k, score
    return best_k


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _cell(bits, snr, m_fixed, n, seed):
    return make_dataset(GenConfig(bits=bits, snr_db=snr, m_fixed=m_fixed,
                                  seed=seed), n)


def _unquantized_stack(n, seed):
    """(n, 64, 2) IQ frames of 1..5 tones in noise, never quantized."""
    counts = 1 + np.arange(n) % 5
    frames = [to_iq(_noisy_frame(int(m), [-5.0, 5.0, 20.0][i % 3], seed + i))
              for i, m in enumerate(counts)]
    return np.stack(frames), counts


class TestStackedPeriodogram:
    @pytest.mark.parametrize("bits", [1, 3])
    @pytest.mark.parametrize("nfft", [256, DEFAULT_NFFT])
    @pytest.mark.parametrize("m_fixed", [None, 2])
    def test_matches_frame_by_frame(self, bits, nfft, m_fixed):
        q = make_quantizer(bits)
        ds = _cell(bits, [-10.0, 0.0, 10.0][bits % 3], m_fixed, 24, 700 + bits)
        counts = ds.counts if m_fixed is None else m_fixed
        A, F, P = periodogram_estimates(ds.x, counts, q, nfft)
        assert A.shape == (24, int(ds.counts.max()))
        for i, x in enumerate(ds.x):
            m = int(ds.counts[i])
            want = _ref_estimate(x, m, q, nfft)
            for got, ref in zip((A[i], F[i], P[i]), want):
                assert _same_bits(got[:m], ref), i
                assert np.isnan(got[m:]).all()

    @pytest.mark.parametrize("nfft", [256, DEFAULT_NFFT])
    def test_unquantized_complex_stack(self, nfft):
        Z, counts = _unquantized_stack(15, 40)
        A, F, P = periodogram_estimates(Z, counts, None, nfft)
        for i, z in enumerate(Z):
            m = int(counts[i])
            want = _ref_estimate(z, m, None, nfft)
            for got, ref in zip((A[i, :m], F[i, :m], P[i, :m]), want):
                assert _same_bits(got, ref), i
            ps = classical_estimate(z, m, nfft=nfft)
            for got, ref in zip((ps.amps, ps.freqs, ps.phases), want):
                assert _same_bits(got, ref), i

    def test_one_frame_form_is_one_row(self):
        q = make_quantizer(3)
        ds = _cell(3, 5.0, 3, 5, 41)
        A, F, P = periodogram_estimates(ds.x, 3, q)
        for i in (0, 4):
            ps = classical_estimate(ds.x[i], 3, qspec=q)
            assert ps.m == 3
            for got, row in zip((ps.amps, ps.freqs, ps.phases),
                                (A[i], F[i], P[i])):
                assert _same_bits(got, row)

    def test_degraded_frame_still_warns(self):
        # an all-zero frame has no local maximum: every pick is a fallback
        Z, _ = _unquantized_stack(3, 50)
        Z[1] = 0.0
        with pytest.warns(RuntimeWarning, match="guarded local maxima"):
            A, F, P = periodogram_estimates(Z, 3, None, 256)
        for i, z in enumerate(Z):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                want = _ref_estimate(z, 3, None, 256)
            assert len(caught) == (i == 1)
            for got, ref in zip((A[i], F[i], P[i]), want):
                assert _same_bits(got, ref), i

    def test_tied_magnitudes(self):
        # small integer magnitudes: plateaus and equal peaks everywhere
        rng = substream(51, 0)
        for trial in range(40):
            nfft = 256
            mag = rng.integers(0, 4, size=nfft).astype(float)
            spec = SpectrumEstimate(nfft, mag.astype(complex), mag)
            half = SpectrumEstimate(nfft, mag.astype(complex),
                                    mag[: nfft // 2 + 1])
            for m in (1, 3, 6):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    want = _ref_pick(mag, nfft, m, 16)
                    npt.assert_array_equal(pick_peaks(spec, m, 16), want)
                    npt.assert_array_equal(pick_peaks(half, m, 16), want)

    def test_plateau_takes_its_left_edge(self):
        spec = _fake_spectrum(64, {10: 5.0, 11: 5.0, 30: 5.0})
        npt.assert_array_equal(pick_peaks(spec, 2, N=8), [10, 30])

    def test_rejects_bad_nfft(self):
        ds = _cell(3, 0.0, 1, 2, 52)
        with pytest.raises(ValueError, match="power of two"):
            periodogram_estimates(ds.x, 1, make_quantizer(3), 100)
        with pytest.raises(ValueError, match="must be >="):
            periodogram_estimates(ds.x, 1, make_quantizer(3), 32)


class TestStackedAicMdl:
    @pytest.mark.parametrize("bits", [1, 3])
    @pytest.mark.parametrize("snr", [-10.0, 0.0, 10.0])
    def test_matches_frame_by_frame(self, bits, snr):
        q = make_quantizer(bits)
        ds = _cell(bits, snr, None, 150, 800 + bits)
        aic, mdl = aic_mdl_counts(ds.x, q)
        assert aic.dtype == mdl.dtype == np.int64
        want_aic = [_ref_count(x, "aic", q) for x in ds.x]
        want_mdl = [_ref_count(x, "mdl", q) for x in ds.x]
        npt.assert_array_equal(aic, want_aic)
        npt.assert_array_equal(mdl, want_mdl)

    def test_unquantized_complex_stack(self):
        Z, _ = _unquantized_stack(60, 60)
        aic, mdl = aic_mdl_counts(Z, None, L=12, Mmax=4)
        for i, z in enumerate(Z):
            assert aic[i] == _ref_count(z, "aic", None, L=12, Mmax=4), i
            assert mdl[i] == _ref_count(z, "mdl", None, L=12, Mmax=4), i
            assert aic_mdl_detect(z, "AIC", L=12, Mmax=4) == aic[i]

    def test_chunk_remainder(self, monkeypatch):
        q = make_quantizer(3)
        ds = _cell(3, 0.0, None, 45, 61)
        whole = aic_mdl_counts(ds.x, q)
        for chunk in (1, 7, 44):
            monkeypatch.setattr(classical, "EIG_CHUNK", chunk)
            for got, want in zip(aic_mdl_counts(ds.x, q), whole):
                npt.assert_array_equal(got, want)
        npt.assert_array_equal(whole[1], [_ref_count(x, "mdl", q) for x in ds.x])

    def test_rejects_bad_window_and_shape(self):
        ds = _cell(1, 0.0, None, 2, 62)
        with pytest.raises(ValueError, match="L must be"):
            aic_mdl_counts(ds.x, make_quantizer(1), L=40)
        with pytest.raises(ValueError, match="Mmax"):
            aic_mdl_counts(ds.x, make_quantizer(1), L=4, Mmax=4)
        with pytest.raises(ValueError, match="IQ stack"):
            aic_mdl_counts(ds.x[0])
