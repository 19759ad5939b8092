"""Acceptance gate: nine numbered criteria, one PASS/FAIL line each.

Each test prints its verdict so the pytest -v log doubles as the acceptance
report.  Tolerances are pinned; the statistical criteria (6-8) use fixed seeds
so their verdicts are reproducible bit-for-bit.
"""

import numpy as np
import pytest

from cpfde.blockopt import ComplexityParams, dynamic_cost, optimal_block_length, per_symbol_cost, static_cost
from cpfde.channel import ChannelTaps, build_block_circulant, freq_channel
from cpfde.fde import FdeConfig, build_filter_bank, equalize_block, time_domain_wf, unitary_dft_matrix
from cpfde.quant import bussgang_model, design_quantizer
from cpfde.simulate import SimConfig, per_position_error_profile, run_experiment


def verdict(num, ok, detail=""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_taps(rng, L, M, K):
    return ChannelTaps(
        rng.standard_normal((L + 1, M, K)) + 1j * rng.standard_normal((L + 1, M, K))
    )


DESK = dict(
    K=2,
    M=32,
    L=15,
    modulation=16,
    T_c=2048,
    N_sim=20,
    quant_bits=1,
    ebn0_grid=(0.0, 5.0, 10.0, 15.0),
    block_lens=(64, 2048),
    seed=42,
)

_report_cache = {}


def desk_report():
    if "report" not in _report_cache:
        _report_cache["report"] = run_experiment(SimConfig(**DESK))
    return _report_cache["report"]


class TestAcceptance:
    def test_criterion_1_diagonalization_identity(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(50):
            M = int(rng.integers(1, 5))
            K = int(rng.integers(1, 4))
            L = int(rng.integers(0, 5))
            N_b = int(rng.integers(L + 1, 17))
            taps = random_taps(rng, L, M, K)
            cir = build_block_circulant(taps, N_b)
            subbands = freq_channel(taps, N_b)
            F = unitary_dft_matrix(N_b)
            lhs = np.kron(F, np.eye(M)) @ cir @ np.kron(F.conj().T, np.eye(K))
            bd = np.zeros_like(lhs)
            for i in range(N_b):
                bd[i * M : (i + 1) * M, i * K : (i + 1) * K] = subbands[i]
            worst = max(worst, np.linalg.norm(lhs - bd) / max(np.linalg.norm(bd), 1e-30))
        verdict(1, worst < 1e-10, f"max rel err {worst:.3g}")

    def test_criterion_2_estimator_equivalence(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(50):
            M, K, L, N_b = 6, 2, 3, 16
            taps = random_taps(rng, L, M, K)
            # WF_Q's model, then WF's (rho_q = 0).
            for account in (True, False):
                rho = float(rng.uniform(0.1, 0.5)) if account else 0.0
                bm = bussgang_model(taps, rho, 1.0)
                cir = build_block_circulant(taps, N_b, rho)
                cfg = FdeConfig(block_len=N_b, overlap=L)
                # Gain-free subbands; build_filter_bank applies (1 - rho), which
                # the dense circulant carries.
                bank = build_filter_bank(freq_channel(taps, N_b), bm, cfg)
                x = rng.standard_normal(K * N_b) + 1j * rng.standard_normal(K * N_b)
                r = cir @ x + 0.1 * (
                    rng.standard_normal(M * N_b) + 1j * rng.standard_normal(M * N_b)
                )
                dense = time_domain_wf(r, cir, bm)
                fast = equalize_block(
                    r.reshape(M, N_b, order="F"), bank
                ).reshape(-1, order="F")
                worst = max(worst, np.linalg.norm(fast - dense) / np.linalg.norm(dense))
        verdict(2, worst < 1e-9, f"max rel err {worst:.3g}")

    def test_criterion_3_complexity_point_checks(self):
        p = ComplexityParams(K=2, M=64, L_prime=127, T_c=50_000)
        td = dynamic_cost(1024, p)
        ts = static_cost(1024, p)
        tsym = per_symbol_cost(1024, p)
        ok = (
            td == 806_912.0
            and ts == 1_974_272.0
            and abs(tsym - 469.6) / 469.6 < 1e-3
        )
        verdict(3, ok, f"T_d={td:.0f} T_s={ts:.0f} T_sym={tsym:.6f}")

    def test_criterion_4a_integer_argmin_antenna_invariance(self):
        # The closed-form per-symbol cost is not exactly separable in M: the
        # integer argmin shifts by one sample when M doubles (the curve is flat
        # to ~1e-7 relative there), so strict equality does not hold.
        details = []
        ok = True
        for lp in (31, 127):
            opts = {
                M: optimal_block_length(
                    ComplexityParams(K=2, M=M, L_prime=lp, T_c=50_000)
                ).n_opt
                for M in (64, 128)
            }
            ok = ok and opts[64] == opts[128]
            details.append(f"L'={lp}: {opts[64]} vs {opts[128]}")
        verdict("4a", ok, "; ".join(details))

    def test_criterion_4b_argmin_grows_with_overlap(self):
        a = optimal_block_length(ComplexityParams(2, 64, 31, 50_000)).n_opt
        b = optimal_block_length(ComplexityParams(2, 64, 127, 50_000)).n_opt
        verdict("4b", b > a, f"L'=31: {a}, L'=127: {b}")

    def test_criterion_4c_argmin_shrinks_with_coherence_time(self):
        ok = True
        details = []
        for lp in (31, 127):
            long = optimal_block_length(ComplexityParams(2, 64, lp, 50_000)).n_opt
            short = optimal_block_length(ComplexityParams(2, 64, lp, 5_000)).n_opt
            ok = ok and short <= long
            details.append(f"L'={lp}: {long}->{short}")
        verdict("4c", ok, "; ".join(details))

    def test_criterion_5_bussgang_gain(self):
        rng = np.random.default_rng(505)
        spec = design_quantizer(1, 1.0)
        y = rng.standard_normal(10**6)
        qy = np.where(y > 0, spec.levels[1], spec.levels[0])
        gain = float(np.mean(qy * y) / np.mean(y * y))
        gain_ok = abs(gain - 2 / np.pi) / (2 / np.pi) < 0.01
        rho_ok = abs(spec.rho_q - (1 - 2 / np.pi)) < 1e-9
        power_ok = all(
            1 / 1.2 < design_quantizer(b, 1.0).rho_q / 3.0 ** (-b) < 1.2
            for b in range(1, 6)
        )
        verdict(
            5,
            gain_ok and rho_ok and power_ok,
            f"gain {gain:.5f}, rho_q(1) {spec.rho_q:.9f}",
        )

    def test_criterion_6_bathtub_profile(self):
        cfg = SimConfig(
            K=2,
            M=16,
            L=8,
            T_c=512,
            N_sim=25,  # 25 realizations x 2 users x ~6 interior blocks > 200 trials
            block_lens=(64,),
            quant_bits=1,
            seed=606,
        )
        prof = per_position_error_profile(cfg, 64, 10.0)
        edge = np.concatenate([prof[:8], prof[-8:]]).mean()
        center = prof[16:48].mean()
        verdict(6, edge > 1.2 * center, f"edge {edge:.4f} vs center {center:.4f}")

    def test_criterion_7_quantization_aware_filter_wins(self):
        rep = desk_report()
        ok = True
        details = []
        for ebn0 in (10.0, 15.0):
            for n_b in DESK["block_lens"]:
                wf = rep.row(ebn0, n_b, "WF")
                wfq = rep.row(ebn0, n_b, "WF_Q")
                se = np.hypot(wf.mse_stderr, wfq.mse_stderr)
                ok = ok and (wf.mse - wfq.mse) > 3 * se
                details.append(
                    f"{ebn0:g}dB/N_b={n_b}: {wf.mse:.4f}>{wfq.mse:.4f}+3x{se:.4f}"
                )
        verdict(7, ok, "; ".join(details))

    def test_criterion_8_optimal_block_matches_full_length(self):
        rep = desk_report()
        p = ComplexityParams(K=DESK["K"], M=DESK["M"], L_prime=DESK["L"], T_c=DESK["T_c"])
        n_pow2 = optimal_block_length(p).n_opt_pow2
        assert n_pow2 == DESK["block_lens"][0]
        ok = True
        details = []
        for ebn0 in DESK["ebn0_grid"]:
            for m in ("WF", "WF_Q"):
                short = rep.row(ebn0, n_pow2, m).mse
                full = rep.row(ebn0, DESK["T_c"], m).mse
                ratio = short / full
                ok = ok and ratio <= 1.05
                details.append(f"{ebn0:g}dB/{m}: {ratio:.4f}")
        verdict(8, ok, "; ".join(details))

    def test_criterion_9_worker_determinism(self):
        base = dict(K=2, M=8, L=3, T_c=128, N_sim=4, ebn0_grid=(10.0,),
                    block_lens=(16, 128), seed=909)
        first, *others = [run_experiment(SimConfig(**base, workers=w)) for w in (1, 1, 2)]
        same = all(
            rep.rows == first.rows
            and all(
                np.array_equal(rep.realization_mse[key], mse)
                for key, mse in first.realization_mse.items()
            )
            for rep in others
        )
        verdict(9, same, "3 runs identical (rows and per-realization MSEs)")
