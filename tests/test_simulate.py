"""QAM mapping, power calibration, and the Monte-Carlo engine."""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import cpfde
from cpfde import _pool, fde, simulate
from cpfde.channel import ChannelTaps, PowerDelayProfile
from cpfde.errors import ConfigurationError
from cpfde.simulate import (
    SimConfig,
    demap_symbols,
    ebn0_to_sigma_x2,
    map_symbols,
    per_position_error_profile,
    run_experiment,
    _realization_taps,
)


def assert_same_results(a, b):
    """Two reports agree exactly: every row and every per-realization MSE."""
    assert a.rows == b.rows
    assert a.realization_mse.keys() == b.realization_mse.keys()
    for key, mse in a.realization_mse.items():
        np.testing.assert_array_equal(b.realization_mse[key], mse)


class TestQamMapping:
    @pytest.mark.parametrize("order", [4, 16, 64, 256, 4**simulate.MAX_QAM_BITS_PER_AXIS])
    def test_round_trip(self, order):
        rng = np.random.default_rng(0)
        B = order.bit_length() - 1
        bits = rng.integers(0, 2, size=500 * B)
        syms = map_symbols(bits, order)
        hard, back = demap_symbols(syms, order)
        np.testing.assert_array_equal(back, bits)
        np.testing.assert_allclose(hard, syms, atol=1e-12)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        B = order.bit_length() - 1
        n = order * 4
        # exhaustive constellation sweep via all bit patterns
        bits = np.array(
            [(v >> s) & 1 for v in range(order) for s in range(B - 1, -1, -1)]
        )
        syms = map_symbols(bits, order)
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_gray_neighbors_differ_by_one_bit(self):
        # adjacent real-axis levels of 16-QAM differ in exactly one bit
        bits = np.array(
            [(v >> s) & 1 for v in range(16) for s in range(3, -1, -1)]
        )
        syms = map_symbols(bits, 16)
        groups = bits.reshape(16, 4)
        by_point = {complex(s): tuple(g) for s, g in zip(syms, groups)}
        scale = np.sqrt(3.0 / 30.0)
        levels = np.array([-3, -1, 1, 3]) * scale
        for im in levels:
            for a, b in zip(levels, levels[1:]):
                ga = by_point[complex(a + 1j * im)]
                gb = by_point[complex(b + 1j * im)]
                assert sum(x != y for x, y in zip(ga, gb)) == 1

    def test_demap_tie_break_toward_smaller(self):
        # midpoint between two levels resolves to the smaller point
        scale = np.sqrt(3.0 / 30.0)
        mid = 2.0 * scale  # between levels 1 and 3
        hard, _ = demap_symbols(np.array([mid + 1j * mid]), 16)
        np.testing.assert_allclose(hard, [(1 + 1j) * scale], atol=1e-12)

    def test_demap_saturates_outside_constellation(self):
        hard, _ = demap_symbols(np.array([100.0 + 100.0j]), 16)
        scale = np.sqrt(3.0 / 30.0)
        np.testing.assert_allclose(hard, [(3 + 3j) * scale], atol=1e-12)

    def test_non_square_order_rejected(self):
        for order in (8, -4, 0, 1, 2, 10**21, 4**9, 4**64):
            with pytest.raises(ConfigurationError):
                map_symbols(np.zeros(3, dtype=int), order)

    def test_bit_count_divisibility(self):
        with pytest.raises(ConfigurationError):
            map_symbols(np.zeros(5, dtype=int), 16)

    def test_qpsk_awgn_ber_matches_q_function(self):
        # Gray QPSK over AWGN: BER = Q(sqrt(2 Eb/N0))
        rng = np.random.default_rng(1)
        ebn0 = 10 ** (4.0 / 10.0)
        n = 200_000
        bits = rng.integers(0, 2, size=2 * n)
        syms = map_symbols(bits, 4)
        # Es = 1, B = 2 -> N0 = 1 / (B ebn0)
        n0 = 1.0 / (2 * ebn0)
        noisy = syms + np.sqrt(n0 / 2) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        _, back = demap_symbols(noisy, 4)
        ber = np.mean(back != bits)
        expected = norm.sf(np.sqrt(2 * ebn0))
        assert ber == pytest.approx(expected, rel=0.08)


class TestEbn0Mapping:
    def base_cfg(self, **kw):
        return SimConfig(**{**dict(K=2, M=4, L=1, T_c=64, N_sim=2, block_lens=(8, 64)), **kw})

    def test_trivial_point(self):
        # K=M=B(QPSK)... choose values so everything cancels:
        cfg = SimConfig(K=1, M=1, L=0, modulation=4, T_c=8, N_sim=1, block_lens=(2,))
        # trace = N_ref * t; sigma_x2 = ebn0 * M * B / (N_ref t K) * K/K at unit noise power
        s = ebn0_to_sigma_x2(0.0, 1.0, cfg, N_b_ref=2)
        assert s == pytest.approx(1.0 * 1 * 2 / (2 * 1.0))

    @pytest.mark.parametrize("ebn0", [-simulate.MAX_EBN0_DB, simulate.MAX_EBN0_DB])
    def test_grid_bound_maps_to_finite_positive_power(self, ebn0):
        # At the accepted extremes the mapped power stays a finite positive
        # float, even for a paper-scale trace and reference block length.
        cfg = self.base_cfg(M=64, modulation=4**simulate.MAX_QAM_BITS_PER_AXIS, ebn0_grid=(ebn0,))
        for trace, n_ref in ((1e-6, 2), (1e6, 2**22)):
            s = ebn0_to_sigma_x2(ebn0, trace, cfg, n_ref)
            assert 0.0 < s < np.inf

    def test_3db_doubles_power(self):
        cfg = self.base_cfg()
        a = ebn0_to_sigma_x2(0.0, 2.0, cfg, 8)
        b = ebn0_to_sigma_x2(10.0 * np.log10(2.0), 2.0, cfg, 8)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_trace_inverse_proportionality(self):
        cfg = self.base_cfg()
        a = ebn0_to_sigma_x2(5.0, 1.0, cfg, 8)
        b = ebn0_to_sigma_x2(5.0, 4.0, cfg, 8)
        assert b == pytest.approx(a / 4.0, rel=1e-12)

    def test_unit_link_energy_trace(self):
        # generate_channel normalizes each scalar link: ensemble tap energy = M K
        cfg = self.base_cfg(N_sim=400)
        tr = np.mean([_realization_taps(cfg, i).energy() for i in range(cfg.N_sim)])
        assert tr == pytest.approx(cfg.M * cfg.K, rel=0.05)

    def test_bad_trace(self):
        with pytest.raises(ConfigurationError):
            ebn0_to_sigma_x2(0.0, 0.0, self.base_cfg(), 8)


class TestConfigValidation:
    def test_block_len_bounds(self):
        with pytest.raises(ConfigurationError):
            SimConfig(L=15, block_lens=(8, 64), T_c=64)
        with pytest.raises(ConfigurationError):
            SimConfig(L=3, block_lens=(8, 128), T_c=64)

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            SimConfig(L=3, block_lens=(8,), T_c=64, methods=("ZF",))

    def test_pdp_length_consistency(self):
        with pytest.raises(ConfigurationError):
            SimConfig(L=3, block_lens=(8,), T_c=64, pdp=PowerDelayProfile.uniform(3))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(N_sim=0),
            dict(K=0),
            dict(M=0),
            dict(workers=0),
            dict(ebn0_grid=()),
            dict(ebn0_grid=(5.0, float("nan"))),
            dict(ebn0_grid=(float("inf"),)),
            dict(ebn0_grid=(4000.0,)),
            dict(ebn0_grid=(-4000.0,)),
            dict(ebn0_grid=(5.0, 5.0)),
            dict(block_lens=(8, 8)),
            dict(block_lens=()),
            dict(methods=("WF", "WF")),
            dict(methods=()),
            dict(quant_bits=0),
            dict(quant_bits=17),
            dict(seed=-1),
            dict(modulation=-4),
            dict(modulation=10**21),
        ],
        ids=lambda d: ",".join(f"{k}={v}" for k, v in d.items()),
    )
    def test_bad_input_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            SimConfig(**{**dict(L=3, block_lens=(8,), T_c=64), **bad})

    def test_stream_cap(self):
        # Paper scale (M=64, T_c=50000, a 51 MB stream) is well inside the cap.
        SimConfig(K=2, M=64, L=127, T_c=50000, block_lens=(1024, 50000))
        T_c = simulate.MAX_STREAM_BYTES // (64 * 16)
        SimConfig(M=64, L=3, T_c=T_c, block_lens=(8,))
        with pytest.raises(ConfigurationError, match="exceeds"):
            SimConfig(M=64, L=3, T_c=T_c + 1, block_lens=(8,))
        # The K x T_c symbol stream and the (L+1, M, K) taps have the same cap.
        SimConfig(K=64, M=1, L=3, T_c=T_c, block_lens=(8,))
        with pytest.raises(ConfigurationError, match="K x T_c = 65 x"):
            SimConfig(K=65, M=1, L=3, T_c=T_c, block_lens=(8,))
        with pytest.raises(ConfigurationError, match="K x T_c = 100000000 x 2048"):
            SimConfig(K=10**8, N_sim=1, block_lens=(64,))
        SimConfig(K=256, M=256, L=255, T_c=1024, block_lens=(256,))  # 2**28-byte taps
        with pytest.raises(ConfigurationError, match=r"\(L\+1\) x M x K = 257 x 256 x 256"):
            SimConfig(K=256, M=256, L=256, T_c=1024, block_lens=(257,))

    def test_overlap_defaults_to_memory(self, monkeypatch):
        # The sweep equalizes every stream with overlap L' = L.
        overlaps = []

        def recording_config(**kw):
            overlaps.append(kw["overlap"])
            return fde.FdeConfig(**kw)

        monkeypatch.setattr(simulate, "FdeConfig", recording_config)
        cfg = SimConfig(K=1, M=2, L=3, T_c=64, N_sim=1, ebn0_grid=(10.0,), block_lens=(8, 16))
        run_experiment(cfg)
        assert overlaps and set(overlaps) == {3}


class TestEngine:
    def small_cfg(self, **kw):
        base = dict(
            K=2,
            M=8,
            L=3,
            T_c=128,
            N_sim=3,
            ebn0_grid=(10.0,),
            block_lens=(16, 128),
            seed=7,
        )
        base.update(kw)
        return SimConfig(**base)

    @pytest.mark.parametrize("L", [0, 3])
    def test_counts_are_the_scored_prefix(self, L):
        # At L = 3, N_b = 16 and 20 end in a clamped final block; 28 and 128 do not.
        cfg = self.small_cfg(L=L, block_lens=(16, 20, 28, 128))
        rep = run_experiment(cfg)
        for r in rep.rows:
            assert r.symbols_counted == cfg.N_sim * cfg.K * (cfg.T_c - L)
            assert r.edge_symbols_excluded == cfg.N_sim * cfg.K * L
            per_real = rep.realization_mse[(r.ebn0_db, r.n_b, r.method)]
            assert np.mean(per_real) == pytest.approx(r.mse, rel=1e-12)

    def test_worker_processes_capped(self, monkeypatch):
        # A process pool forks all of its workers at once: never more than
        # realizations or CPUs.  The fake pool records its size and maps serially.
        started = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append((max_workers, initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", SerialPool)
        serial = run_experiment(self.small_cfg())
        for cpus, expected in ((4, [(3, (1,))]), (2, [(2, (1,))]), (1, [])):
            started.clear()
            monkeypatch.setattr(_pool, "_threads", cpus)
            rep = run_experiment(self.small_cfg(workers=5000))
            assert started == expected
            assert rep.rows == serial.rows

    def test_report_shape_and_counting(self):
        cfg = self.small_cfg()
        rep = run_experiment(cfg)
        assert len(rep.rows) == 1 * 2 * 2
        for r in rep.rows:
            assert r.symbols_counted + r.edge_symbols_excluded == cfg.N_sim * cfg.K * cfg.T_c
            assert r.edge_symbols_excluded > 0
            assert 0.0 <= r.ber <= 1.0 and r.mse > 0.0
            assert len(rep.realization_mse[(r.ebn0_db, r.n_b, r.method)]) == cfg.N_sim

    def test_noiseless_unquantized_flat_channel_is_exact(self):
        # L=0, no quantizer, 120 dB Eb/N0: equalizer inverts the channel
        cfg = self.small_cfg(L=0, quant_bits=None, ebn0_grid=(120.0,), block_lens=(16,))
        rep = run_experiment(cfg)
        for r in rep.rows:
            assert r.mse < 1e-6
            assert r.ber == 0.0

    def test_same_seed_reproducible(self):
        cfg = self.small_cfg()
        a = run_experiment(cfg)
        b = run_experiment(self.small_cfg())
        for ra, rb in zip(a.rows, b.rows):
            assert ra == rb

    def test_seed_changes_results(self):
        a = run_experiment(self.small_cfg())
        b = run_experiment(self.small_cfg(seed=8))
        assert any(ra.mse != rb.mse for ra, rb in zip(a.rows, b.rows))

    def test_worker_count_invariant(self):
        # small_cfg's grid holds N_b = T_c = 128, the one-block route.
        a = run_experiment(self.small_cfg(workers=1))
        b = run_experiment(self.small_cfg(workers=2))
        assert_same_results(a, b)

    def test_equalizer_thread_count_invariant(self, monkeypatch):
        cfg = self.small_cfg()
        serial = run_experiment(cfg)
        # Every call pooled: freq_channel, convolve_transmit and quantize split
        # their M = 8 rows, overlap-save its blocks, and the filters come in
        # chunks of 5 subbands (K * M * 16 bytes each); at N_b = T_c = 128 each
        # chunk builds and applies its own filters.
        monkeypatch.setattr(_pool, "_PARALLEL_MIN_BYTES", 0)
        monkeypatch.setattr(fde, "_CHUNK_BYTES", 5 * cfg.K * cfg.M * 16)
        for threads in (1, 2, 5):
            monkeypatch.setattr(_pool, "_threads", threads)
            assert_same_results(run_experiment(cfg), serial)

    def test_forked_workers_after_parent_pool(self):
        # The parent runs its stages on thread pools before run_experiment forks;
        # none of their threads outlives its call, so a worker (2 equalizer
        # threads each) inherits no pool.
        script = textwrap.dedent(
            f"""
            import dataclasses
            import threading
            from cpfde import _pool, simulate

            _pool._PARALLEL_MIN_BYTES = 0
            _pool._threads = 4
            cfg = simulate.SimConfig(
                K=2, M=8, L=3, T_c=128, N_sim=3, ebn0_grid=(10.0,),
                block_lens=(16, 128), seed=7,
            )
            one = simulate.run_experiment(cfg)
            assert not [t for t in threading.enumerate() if t.name.startswith("cpfde-pool")]
            two = simulate.run_experiment(dataclasses.replace(cfg, workers=2))
            assert two.rows == one.rows
            for key, mse in one.realization_mse.items():
                assert (two.realization_mse[key] == mse).all()
            """
        )
        src = str(Path(cpfde.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            pytest.fail("run_experiment(workers=2) hung after the parent created its pool")
        assert code == 0

    def test_mse_monotone_in_ebn0(self):
        cfg = self.small_cfg(ebn0_grid=(0.0, 10.0, 20.0), N_sim=4)
        rep = run_experiment(cfg)
        for n_b in cfg.block_lens:
            for m in cfg.methods:
                mses = [rep.row(e, n_b, m).mse for e in cfg.ebn0_grid]
                assert all(a > b for a, b in zip(mses, mses[1:]))

    def test_quantization_accounting_helps(self):
        # with a 1-bit ADC the distortion-aware filter beats the unaware one
        cfg = self.small_cfg(M=16, ebn0_grid=(15.0,), N_sim=4)
        rep = run_experiment(cfg)
        for n_b in cfg.block_lens:
            wf = rep.row(15.0, n_b, "WF").mse
            wfq = rep.row(15.0, n_b, "WF_Q").mse
            assert wfq < wf

    def test_csv_and_metadata(self, tmp_path, monkeypatch):
        # The report as the sweep command writes it: one CSV line per row, and
        # a sidecar holding the seed, the configuration and the stderrs.
        import json

        from cpfde.cli import main

        runs = []

        def recording_run(cfg):
            runs.append((cfg, run_experiment(cfg)))
            return runs[-1][1]

        monkeypatch.setattr(simulate, "run_experiment", recording_run)
        code = main([
            "sweep", "--antennas", "8", "--taps", "4", "--coherence", "128",
            "--realizations", "2", "--ebn0", "10", "--block-lens", "16",
            "--seed", "7", "--output-dir", str(tmp_path),
        ])
        assert code == 0
        (cfg, rep), = runs
        assert cfg == self.small_cfg(N_sim=2, block_lens=(16,))
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "ebn0_db,n_b,method,mse,ber,symbols,edge_excluded,seed"
        assert len(lines) == len(rep.rows) + 1
        for line, r in zip(lines[1:], rep.rows):
            ebn0, n_b, method, mse, ber, symbols, edge, seed = line.split(",")
            assert (float(ebn0), int(n_b), method) == (r.ebn0_db, r.n_b, r.method)
            assert float(mse) == pytest.approx(r.mse, rel=1e-11)
            assert float(ber) == pytest.approx(r.ber, rel=1e-11)
            assert (int(symbols), int(edge)) == (r.symbols_counted, r.edge_symbols_excluded)
            assert int(seed) == cfg.seed
        d = json.loads((tmp_path / "report.csv.json").read_text())
        assert d["seed"] == cfg.seed
        assert d["config"]["M"] == cfg.M
        assert d["mse_stderr"] == [r.mse_stderr for r in rep.rows]
        assert all(r.mse_stderr > 0 for r in rep.rows)


class TestErrorProfile:
    def test_profile_length_and_positivity(self):
        cfg = SimConfig(K=2, M=8, L=3, T_c=128, N_sim=2, block_lens=(16, 128), seed=3)
        prof = per_position_error_profile(cfg, 16, 10.0)
        assert prof.shape == (16,)
        assert np.all(prof > 0)

    def test_flat_channel_profile_is_flat(self):
        cfg = SimConfig(
            K=1,
            M=4,
            L=0,
            T_c=256,
            N_sim=30,
            block_lens=(16,),
            quant_bits=None,
            seed=5,
        )
        prof = per_position_error_profile(cfg, 16, 10.0)
        assert np.max(prof) / np.min(prof) < 2.0

    def test_bathtub_newest_edge_dominates(self):
        # without discard the newest positions of a block carry the
        # inter-block interference and sit well above the flat center
        cfg = SimConfig(
            K=2, M=16, L=8, T_c=512, N_sim=30, block_lens=(64,), seed=11
        )
        prof = per_position_error_profile(cfg, 64, 10.0)
        center = np.mean(prof[16:48])
        newest = np.mean(prof[:4])
        assert newest > 1.2 * center

    def test_infeasible_block(self):
        cfg = SimConfig(K=1, M=2, L=3, T_c=64, N_sim=1, block_lens=(8,))
        with pytest.raises(ConfigurationError):
            per_position_error_profile(cfg, 2, 10.0)

    def test_short_coherence_rejected_before_any_realization(self, monkeypatch):
        # T_c < 2 n_b leaves no interior block; the check runs before the
        # Eb/N0 trace pass draws a channel and before any transmission.
        def fail(*_):
            raise AssertionError("realization started")

        monkeypatch.setattr(simulate, "_transmit", fail)
        monkeypatch.setattr(simulate, "_realization_taps", fail)
        cfg = SimConfig(K=1, M=2, L=3, T_c=64, N_sim=200, block_lens=(64,))
        with pytest.raises(ConfigurationError, match="interior block"):
            per_position_error_profile(cfg, 64, 10.0)
        with pytest.raises(ConfigurationError, match="interior block"):
            per_position_error_profile(cfg, 33, 10.0)
