"""Complexity model point values and block-length optimizer properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfde.blockopt import (
    MAX_COHERENCE,
    ComplexityParams,
    dynamic_cost,
    frame_count,
    optimal_block_length,
    per_symbol_cost,
    static_cost,
)
from cpfde.errors import ConfigurationError

REF = ComplexityParams(K=2, M=64, L_prime=127, T_c=50_000)


class TestCostFormulas:
    def test_dynamic_cost_point_value(self):
        # (M+K) N log2 N + K M N at N=1024: 66*1024*10 + 128*1024
        assert dynamic_cost(1024, REF) == pytest.approx(806_912.0)

    def test_static_cost_point_value(self):
        # (KM log2 N + KM + 2 K^2 M + K^3) N at N=1024
        assert static_cost(1024, REF) == pytest.approx(1_974_272.0)

    def test_per_symbol_cost_point_value(self):
        assert per_symbol_cost(1024, REF) == pytest.approx(469.526443523, rel=1e-9)

    def test_vectorized_matches_scalar(self):
        grid = np.array([128, 256, 1024])
        vec = per_symbol_cost(grid, REF)
        for n, v in zip(grid, vec):
            assert per_symbol_cost(int(n), REF) == pytest.approx(v, rel=1e-14)

    def test_frame_count_exact_vs_smooth(self):
        p = ComplexityParams(K=1, M=1, L_prime=4, T_c=100)
        assert frame_count(20, p, exact=True) == 6  # ceil(96 / 16)
        assert frame_count(20, p) == pytest.approx(100 / 16)

    def test_infeasible_block_len_rejected(self):
        with pytest.raises(ConfigurationError):
            per_symbol_cost(100, REF)  # below L'+1
        with pytest.raises(ConfigurationError):
            per_symbol_cost(REF.T_c + 1, REF)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            ComplexityParams(K=0, M=1, L_prime=0, T_c=10)
        with pytest.raises(ConfigurationError):
            ComplexityParams(K=1, M=1, L_prime=10, T_c=10)

    def test_coherence_cap(self):
        # The exhaustive scan is O(T_c) in memory; a T_c above the cap fails
        # in validation, before the scan allocates anything.
        assert ComplexityParams(K=2, M=64, L_prime=127, T_c=MAX_COHERENCE).T_c == MAX_COHERENCE
        with pytest.raises(ConfigurationError, match="unsupported"):
            ComplexityParams(K=2, M=64, L_prime=127, T_c=10**12)


class TestOptimizer:
    def test_reference_optimum(self):
        res = optimal_block_length(REF)
        assert res.n_opt == 900
        assert res.n_opt_pow2 == 1024
        assert res.cost_at_opt <= res.cost_at_pow2

    def test_desk_scale_optimum(self):
        p = ComplexityParams(K=2, M=32, L_prime=15, T_c=2048)
        res = optimal_block_length(p)
        assert res.n_opt == 72
        assert res.n_opt_pow2 == 64

    def test_pow2_mode_agrees_with_bracketing(self):
        # n_opt_pow2 is the cheapest power-of-2 row of the emitted curve.
        res = optimal_block_length(REF, emit_curve=True)
        n = res.curve[:, 0].astype(np.int64)
        rows = res.curve[(n & (n - 1)) == 0]
        best = rows[np.argmin(rows[:, 1])]
        assert res.n_opt_pow2 == int(best[0]) == 1024
        assert res.cost_at_pow2 == best[1]

    def test_pow2_near_optimal(self):
        # the power-of-2 surrogate costs at most 25% more than the integer optimum
        for lp in (7, 15, 31, 63, 127):
            p = ComplexityParams(K=2, M=64, L_prime=lp, T_c=50_000)
            res = optimal_block_length(p)
            assert res.cost_at_pow2 <= 1.25 * res.cost_at_opt

    def test_optimum_exceeds_overlap(self):
        res = optimal_block_length(REF)
        assert res.n_opt > REF.L_prime

    def test_optimum_grows_with_overlap(self):
        opts = []
        for lp in (7, 15, 31, 63, 127):
            p = ComplexityParams(K=2, M=64, L_prime=lp, T_c=50_000)
            opts.append(optimal_block_length(p).n_opt)
        assert all(a < b for a, b in zip(opts, opts[1:]))

    def test_optimum_shrinks_with_coherence_time(self):
        for lp in (7, 15, 31, 63, 127):
            long = optimal_block_length(ComplexityParams(2, 64, lp, 50_000)).n_opt
            short = optimal_block_length(ComplexityParams(2, 64, lp, 5_000)).n_opt
            assert short < long

    def test_curve_emission(self):
        res = optimal_block_length(REF, emit_curve=True)
        assert res.curve is not None
        assert res.curve.shape[1] == 4
        grid = res.curve[:, 0]
        assert grid[0] == 128 and grid[-1] == REF.T_c
        # curve minimum matches the reported optimum
        i = int(np.argmin(res.curve[:, 1]))
        assert int(grid[i]) == res.n_opt

    def test_no_feasible_pow2(self):
        p = ComplexityParams(K=1, M=1, L_prime=0, T_c=1)
        with pytest.raises(ConfigurationError):
            optimal_block_length(p)
        # [5, 7] holds no power of 2: the integer optimum stands in for it.
        res = optimal_block_length(ComplexityParams(K=2, M=64, L_prime=4, T_c=7))
        assert res.n_opt_pow2 == res.n_opt == 6
        assert res.cost_at_pow2 == res.cost_at_opt

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(1, 4),
        M=st.integers(1, 16),
        L_prime=st.integers(0, 20),
        T_c=st.integers(2, 400),
    )
    def test_matches_brute_force(self, K, M, L_prime, T_c):
        if T_c < max(L_prime + 1, 2):
            return
        p = ComplexityParams(K, M, L_prime, T_c)
        res = optimal_block_length(p)
        lo = max(L_prime + 1, 2)
        best = min(range(lo, T_c + 1), key=lambda n: (per_symbol_cost(n, p), n))
        assert res.n_opt == best
        assert res.cost_at_opt == pytest.approx(per_symbol_cost(best, p), rel=1e-12)
        pow2 = [n for n in range(lo, T_c + 1) if n & (n - 1) == 0]
        if pow2:
            best2 = min(pow2, key=lambda n: (per_symbol_cost(n, p), n))
            assert res.n_opt_pow2 == best2
            assert res.cost_at_pow2 == pytest.approx(per_symbol_cost(best2, p), rel=1e-12)

