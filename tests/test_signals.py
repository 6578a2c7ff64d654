"""Tests for frame synthesis, the label generator, and dataset I/O."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from oracles import (add_noise, draw_parameters, normalize_power, synthesize,
                     to_iq, validate)
from qsine import signals, tones
from qsine.quantize import make_quantizer, quantize
from qsine.signals import (
    Dataset,
    GenConfig,
    ParameterSet,
    load_dataset,
    make_dataset,
    save_dataset,
    substream,
)


class TestSynthesize:
    def test_single_tone_matches_direct_formula(self):
        p = ParameterSet(m=1, amps=[0.7], freqs=[0.2], phases=[1.1])
        n = np.arange(16)
        expected = 0.7 * np.exp(1j * (2 * np.pi * 0.2 * n + 1.1))
        npt.assert_allclose(synthesize(p, 16), expected, rtol=1e-14)

    def test_superposition(self):
        a = ParameterSet(m=1, amps=[0.5], freqs=[0.1], phases=[0.3])
        b = ParameterSet(m=1, amps=[0.9], freqs=[0.31], phases=[2.0])
        both = ParameterSet(m=2, amps=[0.5, 0.9], freqs=[0.1, 0.31],
                            phases=[0.3, 2.0])
        npt.assert_allclose(synthesize(both, 32),
                            synthesize(a, 32) + synthesize(b, 32), rtol=1e-13)

    def test_empty_set_is_silence(self):
        p = ParameterSet(m=0, amps=[], freqs=[], phases=[])
        assert np.all(synthesize(p, 8) == 0)


class TestNoiseAndNormalization:
    def test_noise_variance_tracks_snr(self):
        # var = power / 10^(snr/10), split evenly between re and im
        rng = substream(42, 0)
        frame = np.zeros(200_000, dtype=np.complex128)
        noisy = add_noise(frame, 10.0, 2.0, rng)
        assert np.var(noisy.real) == pytest.approx(0.1, rel=0.02)
        assert np.var(noisy.imag) == pytest.approx(0.1, rel=0.02)

    def test_infinite_snr_is_identity(self):
        rng = substream(1, 2)
        frame = np.exp(1j * np.linspace(0, 5, 32))
        out = add_noise(frame, np.inf, 1.0, rng)
        npt.assert_array_equal(out, frame)

    def test_normalized_frame_power(self):
        rng = substream(7, 0)
        frame = rng.normal(size=64) + 1j * rng.normal(size=64)
        s = normalize_power(frame)
        assert np.sum(np.abs(s) ** 2) == pytest.approx(64.0, rel=1e-12)

    def test_normalize_rejects_zero_frame(self):
        with pytest.raises(ValueError):
            normalize_power(np.zeros(8, dtype=complex))

    def test_iq_round_trip(self):
        rng = substream(3, 1)
        frame = rng.normal(size=10) + 1j * rng.normal(size=10)
        x = to_iq(frame)
        assert x.shape == (10, 2)
        npt.assert_array_equal(x[:, 0] + 1j * x[:, 1], frame)
        # the package's layout is the oracle's, for one frame and for a stack
        npt.assert_array_equal(tones.to_iq(frame), x)
        npt.assert_array_equal(tones.to_complex(x), frame)
        stack = np.stack([frame, 2 * frame])
        npt.assert_array_equal(tones.to_complex(tones.to_iq(stack)), stack)


class TestDrawParameters:
    """Distributional properties of the label generator."""

    def test_label_invariants_hold(self):
        cfg = GenConfig(seed=11)
        for i in range(300):
            p = validate(draw_parameters(cfg, substream(11, i)))
            assert 1 <= p.m <= cfg.M
            assert np.all(p.amps >= 0.1) and np.all(p.amps <= 1.0)
            assert np.all(np.diff(p.freqs) > 0)
            assert np.all(p.freqs > 0) and np.all(p.freqs < 0.5)

    def test_spacing_from_first_frequency(self):
        # after sorting, every f_i sits at least (i-1)/N above f_1
        cfg = GenConfig(seed=23)
        for i in range(300):
            p = draw_parameters(cfg, substream(23, i))
            if p.m > 1:
                gaps = p.freqs[1:] - p.freqs[0]
                k = np.arange(1, p.m)
                assert np.all(gaps >= k / cfg.N - 1e-12)

    def test_base_frequency_band(self):
        # the lowest frequency is the uniform anchor on (0, 0.25); fixing
        # m=1 avoids the resample-on-overflow bias that multi-tone draws
        # put on the accepted anchor
        cfg = GenConfig(seed=5, m_fixed=1)
        lows = np.asarray([draw_parameters(cfg, substream(5, i)).freqs[0]
                           for i in range(2000)])
        assert lows.max() < 0.25
        assert lows.min() > 0.0
        assert lows.mean() == pytest.approx(0.125, abs=0.01)

    def test_anchor_band_holds_under_resampling(self):
        cfg = GenConfig(seed=6)
        lows = np.asarray([draw_parameters(cfg, substream(6, i)).freqs[0]
                           for i in range(500)])
        assert np.all((lows > 0.0) & (lows < 0.25))

    def test_m_fixed(self):
        cfg = GenConfig(seed=9, m_fixed=4)
        for i in range(50):
            assert draw_parameters(cfg, substream(9, i)).m == 4

    def test_ood_spacing_floor(self):
        cfg = GenConfig(seed=31, freq_mode="ood_uniform")
        for i in range(400):
            p = draw_parameters(cfg, substream(31, i))
            if p.m > 1:
                assert np.min(np.diff(p.freqs)) >= 1.0 / cfg.N

    def test_ood_covers_upper_band(self):
        # uniform mode reaches above 0.25 even for the lowest frequency
        cfg = GenConfig(seed=13, freq_mode="ood_uniform", m_fixed=1)
        lows = [draw_parameters(cfg, substream(13, i)).freqs[0]
                for i in range(500)]
        assert max(lows) > 0.3


class TestMakeExample:
    """Single examples, as rows of make_dataset."""

    def test_deterministic_per_index(self):
        cfg = GenConfig(seed=77, snr_db=5.0)
        a = make_dataset(cfg, 4)[3]
        b = make_dataset(cfg, 4)[3]
        npt.assert_array_equal(a.x, b.x)
        npt.assert_array_equal(a.label.freqs, b.label.freqs)

    def test_independent_of_generation_order(self):
        # row i is the same whatever the dataset's size, and whatever
        # count groups the rows around it fall into
        cfg = GenConfig(seed=78, freq_mode="ood_uniform", bits=1)
        whole = make_dataset(cfg, 12)
        for i in (0, 5, 7, 11):
            assert make_dataset(cfg, i + 1)[i].x.tobytes() == whole[i].x.tobytes()

    def test_shape_and_quantized_values(self):
        cfg = GenConfig(seed=2, bits=1)
        ex = make_dataset(cfg, 1)[0]
        assert ex.x.shape == (cfg.N, 2)
        npt.assert_array_equal(np.unique(np.abs(ex.x)), [1.0])

    def test_snr_range_draws_within_bounds(self):
        cfg = GenConfig(seed=4, snr_range=(-3.0, 3.0))
        snrs = make_dataset(cfg, 100).snr_db
        assert min(snrs) >= -3.0 and max(snrs) <= 3.0
        assert np.std(snrs) > 0.5  # actually spread out


def _reference_example(cfg, index, spec):
    """Example `index` built frame by frame with the reference pipeline."""
    rng = substream(cfg.seed, index)
    if cfg.snr_range is not None:
        snr_db = float(rng.uniform(cfg.snr_range[0], cfg.snr_range[1]))
    else:
        snr_db = float(cfg.snr_db)
    params = draw_parameters(cfg, rng)
    u = synthesize(params, cfg.N)
    y = add_noise(u, snr_db, float(np.sum(params.amps**2)), rng)
    x = to_iq(quantize(normalize_power(y), spec))
    return x, params, snr_db


GROUPED_CONFIGS = {
    "in_dist_mixed": dict(seed=101),
    # eval cells draw from _cell_seed's 64-bit seeds: two entropy words
    "two_word_seed_spread": dict(seed=2**63 + 109, snr_range=(0.0, 20.0)),
    "two_word_seed_ood_fixed_m": dict(seed=2**32, m_fixed=5, bits=2,
                                      freq_mode="ood_uniform"),
    "ood_mixed_1bit": dict(seed=102, bits=1, freq_mode="ood_uniform"),
    "in_dist_spread_fixed_m": dict(seed=103, m_fixed=3, snr_range=(-10.0, 10.0)),
    "ood_spread_mixed": dict(seed=104, freq_mode="ood_uniform",
                             snr_range=(-10.0, 20.0)),
    "ood_fixed_m_1bit": dict(seed=105, bits=1, m_fixed=2,
                             freq_mode="ood_uniform", snr_db=-5.0),
    "noiseless": dict(seed=106, snr_db=math.inf),
    "noiseless_1bit_fixed_m": dict(seed=107, bits=1, m_fixed=4, snr_db=math.inf),
}


def _assert_matches_reference(cfg, ds):
    spec = make_quantizer(cfg.bits)
    for i, ex in enumerate(ds):
        x, params, snr_db = _reference_example(cfg, i, spec)
        assert ex.x.dtype == np.float64
        assert ex.x.tobytes() == x.tobytes(), i
        assert ex.label.m == params.m
        for got, want in ((ex.label.amps, params.amps),
                          (ex.label.freqs, params.freqs),
                          (ex.label.phases, params.phases)):
            assert got.tobytes() == want.tobytes(), i
        assert ex.snr_db == snr_db


class TestGroupedGeneration:
    @pytest.mark.parametrize("name", sorted(GROUPED_CONFIGS))
    def test_bytes_match_frame_by_frame_pipeline(self, name):
        cfg = GenConfig(**GROUPED_CONFIGS[name])
        _assert_matches_reference(cfg, make_dataset(cfg, 120))

    @pytest.mark.parametrize("seed", [2, 2**64 - 3])
    def test_rows_past_a_seed_block_match_the_pipeline(self, seed):
        # the rows of the second and third seeding blocks, one or two
        # entropy words of seed
        cfg = GenConfig(seed=seed, snr_range=(-10.0, 10.0))
        _assert_matches_reference(cfg, make_dataset(cfg, 2 * signals.SEED_BLOCK + 5))

    def test_chunked_groups_give_the_same_bytes(self, monkeypatch):
        cfg = GenConfig(seed=108, snr_range=(-5.0, 5.0))
        whole = make_dataset(cfg, 60)
        monkeypatch.setattr(signals, "GROUP_CHUNK", 4)
        chunked = make_dataset(cfg, 60)
        assert chunked.x.tobytes() == whole.x.tobytes()
        npt.assert_array_equal(chunked.counts, whole.counts)

    def test_non_finite_snr_rejected(self):
        for snr in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="finite or \\+inf"):
                make_dataset(GenConfig(seed=1, snr_db=snr), 3)

    def test_non_finite_snr_range_rejected(self):
        for lo, hi in ((0.0, math.inf), (-math.inf, math.inf), (0.0, math.nan)):
            with pytest.raises(ValueError, match="snr_range"):
                GenConfig(seed=1, snr_range=(lo, hi))

    def test_all_zero_frame_rejected(self):
        y = np.ones((3, 8, 2))
        y[1] = 0.0
        with pytest.raises(ValueError, match="all-zero"):
            signals._normalize_rows(y)

    @pytest.mark.parametrize("count", [0, 2**32 + 1])
    def test_count_bounds(self, count):
        # rows at or above 2**32 would need a second entropy word
        with pytest.raises(ValueError, match="count must be in 1..2\\*\\*32"):
            make_dataset(GenConfig(seed=1), count)

    @pytest.mark.parametrize("case", ["count", "range", "order", "phase"])
    def test_label_check_names_the_first_bad_row(self, case):
        # the dataset-wide check raises what the per-frame check raises for
        # the first bad row
        ds = make_dataset(GenConfig(seed=120, m_fixed=3), 5)
        counts, freqs, phases = ds.counts.copy(), ds.freqs.copy(), ds.phases.copy()
        signals._check_labels(counts, freqs, phases)
        row = {"count": 2, "range": 1, "order": 3, "phase": 2}[case]
        if case == "count":
            counts[row] = 0
        elif case == "range":
            freqs[row, 2] = 0.5
        elif case == "order":
            freqs[row, 1] = freqs[row, 0]
        else:
            phases[row, 0] = 2 * math.pi
        freqs[4], phases[4] = freqs[4, ::-1].copy(), -phases[4]  # a later bad row
        with pytest.raises(ValueError) as got:
            signals._check_labels(counts, freqs, phases)
        m = int(counts[row])
        with pytest.raises(ValueError) as want:
            validate(ParameterSet(m=m, amps=ds.amps[row, :m],
                                  freqs=freqs[row, :m], phases=phases[row, :m]))
        assert str(got.value) == str(want.value)


class TestDataset:
    def test_arrays_and_examples(self):
        cfg = GenConfig(seed=110, M=4)
        ds = make_dataset(cfg, 30)
        assert isinstance(ds, Dataset) and len(ds) == 30
        assert ds.x.shape == (30, 64, 2) and ds.x.dtype == np.float64
        assert ds.counts.dtype == np.int64 and ds.amps.shape == (30, 4)
        examples = list(ds)
        assert len(examples) == 30
        for i in (0, 13, -1, np.int64(29)):
            ex = ds[i]
            m = int(ds.counts[i])
            assert ex.label.m == m and ex.x.shape == (64, 2)
            npt.assert_array_equal(ex.x, ds.x[i])
            npt.assert_array_equal(ex.label.freqs, ds.freqs[i, :m])
            assert np.isnan(ds.freqs[i, m:]).all()
            assert ex.snr_db == cfg.snr_db
        npt.assert_array_equal(examples[13].x, ds[13].x)

    def test_mask_and_slice_select_rows(self):
        ds = make_dataset(GenConfig(seed=111), 40)
        two = ds[ds.counts == 2]
        assert isinstance(two, Dataset) and len(two) == int(np.sum(ds.counts == 2))
        assert all(ex.label.m == 2 for ex in two)
        head = ds[:5]
        assert len(head) == 5
        assert head[4].x.tobytes() == ds[4].x.tobytes()

    def test_rows_must_agree(self):
        ds = make_dataset(GenConfig(seed=112), 4)
        with pytest.raises(ValueError, match="one row per frame"):
            Dataset(x=ds.x, counts=ds.counts[:3], amps=ds.amps,
                    freqs=ds.freqs, phases=ds.phases, snr_db=ds.snr_db)


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        cfg = GenConfig(seed=6, M=3)
        examples = make_dataset(cfg, 20)
        base = str(tmp_path / "ds")
        save_dataset(base, cfg, examples)
        meta, loaded = load_dataset(base)
        assert meta == {"N": 64, "M": 3, "bits": 3}
        assert len(loaded) == 20
        for orig, back in zip(examples, loaded):
            assert back.label.m == orig.label.m
            npt.assert_allclose(back.x, orig.x, atol=0)  # float32 exact
            npt.assert_allclose(back.label.freqs, orig.label.freqs, rtol=1e-15)
            assert back.snr_db == orig.snr_db

    def test_header_line(self, tmp_path):
        cfg = GenConfig(seed=6, M=5, bits=1)
        base = str(tmp_path / "ds")
        save_dataset(base, cfg, make_dataset(cfg, 2))
        first = open(base + ".labels.csv").readline().strip()
        assert first == "qsine-dataset v1, N=64, M=5, bits=1"

    def test_truncated_samples_rejected(self, tmp_path):
        cfg = GenConfig(seed=6)
        base = str(tmp_path / "ds")
        save_dataset(base, cfg, make_dataset(cfg, 4))
        raw = open(base + ".samples.f32", "rb").read()
        open(base + ".samples.f32", "wb").write(raw[: len(raw) // 2])
        with pytest.raises(ValueError):
            load_dataset(base)


class TestSubstreamStates:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_one_pass_gives_the_pcg64_seeding(self, seed):
        rows = [0, 1, 31, 32, 2**32 - 1]
        got = [signals._substream_states(seed, r, r + 1)[0] for r in rows]
        got += signals._substream_states(seed, 0, 33)[31:]
        want = []
        for r in [*rows, 31, 32]:
            state = np.random.PCG64(np.random.SeedSequence([seed, r])).state
            want.append((state["state"]["state"], state["state"]["inc"]))
        assert got == want

    def test_rows_need_one_word_and_seeds_no_sign(self):
        with pytest.raises(ValueError, match="32-bit word"):
            signals._substream_states(0, 2**32 - 1, 2**32 + 1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            signals._substream_states(-1, 0, 1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            make_dataset(GenConfig(seed=-1), 2)


def test_substream_independence():
    """Different keys give different streams; same key repeats exactly."""
    a = substream(0, 1).normal(size=4)
    b = substream(0, 2).normal(size=4)
    c = substream(0, 1).normal(size=4)
    assert not np.allclose(a, b)
    npt.assert_array_equal(a, c)
