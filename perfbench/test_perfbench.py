"""Tests of the benchmark itself: smoke runs, negative controls, failure modes.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, run
from perfbench.workloads import WORKLOADS, Workload

CLI = run.load_cli()
from cpfde import blockopt  # noqa: E402  (importable once load_cli put src on the path)


def quiet(*_):
    pass


def tiny_sweep() -> Workload:
    # No --block-lens, so the CLI chooses N_b with optimal_block_length as by default.
    p = blockopt.ComplexityParams(K=2, M=4, L_prime=3, T_c=256)
    n_opt = blockopt.optimal_block_length(p).n_opt_pow2
    return Workload(
        name="tiny_sweep", subcommand="sweep",
        argv=("--antennas", "4", "--taps", "4", "--coherence", "256",
              "--realizations", "2", "--ebn0", "0,10"),
        K=2, M=4, L=3, T_c=256, N_sim=2, bits=1, ebn0=(0.0, 10.0), block_lens=(n_opt, 256),
    )


TINY_BATHTUB = Workload(
    name="tiny_bathtub", subcommand="bathtub",
    argv=("--bits", "3", "--antennas", "4", "--taps", "4", "--block-len", "16",
          "--coherence", "256", "--realizations", "2", "--ebn0-point", "10"),
    K=2, M=4, L=3, T_c=256, N_sim=2, bits=3, block_len=16,
)


def cli_output(workload: Workload, seed: int, tmp_path: Path):
    code, _, _ = run.run_cli(CLI.main, workload.cli_argv(seed, str(tmp_path)))
    assert code == 0
    return checks.read_output(workload, tmp_path / workload.output_name)


@pytest.mark.parametrize("make", [tiny_sweep, lambda: TINY_BATHTUB], ids=["sweep", "bathtub"])
def test_smoke_emits_every_metric_with_its_unit(make):
    workload = make()
    result, _ = run.measure(workload, seed=3, seconds=0, trace=False, setup_repeats=1, log=quiet)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in run.SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_measures_every_layer_metric():
    measured = set()
    for workload in (tiny_sweep(), TINY_BATHTUB):
        result, record = run.measure(workload, seed=0, seconds=0, trace=True, log=quiet)
        assert result["correct"] and not record["probe_errors"]
        units = {m["name"]: m["unit"] for m in run.SPEC["per_layer"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        measured |= set(record["layer_metrics"])
        spans = record["spans"]
        assert spans and all(len(s) == 5 for s in spans)  # name, start, end, parent, run id
    assert {m["name"] for m in run.SPEC["per_layer"]} <= measured
    # the bathtub bypasses overlap-save: a function that is never called reports 0
    assert result["metrics"]["fde.overlap_save_stream.calls"]["value"] == 0


def test_tracer_restores_the_library():
    import cpfde.simulate

    original = cpfde.simulate.convolve_transmit
    run.measure(TINY_BATHTUB, seed=0, seconds=0, trace=True, log=quiet)
    assert cpfde.simulate.convolve_transmit is original


def test_stored_references_pass_their_own_checks():
    for name, workload in WORKLOADS.items():
        ref = checks.load_reference(name, checks.REFERENCE_SEED)
        output = ref["rows"] if workload.subcommand == "sweep" else ref["profile"]
        if workload.subcommand == "sweep":
            assert len(output) == workload.operations
        assert checks.check_output(workload, output, ref) == []
        assert checks.load_reference(name, checks.REFERENCE_SEED + 1) is None


def test_negative_control_perturbed_outputs_fail():
    workload = WORKLOADS["desk_sweep"]
    ref = checks.load_reference(workload.name, checks.REFERENCE_SEED)
    rows = [dict(r) for r in ref["rows"]]
    rows[0]["mse"] *= 1 + 1e-4
    rows[1]["ber"] = math.nan
    del rows[2]
    assert len(checks.check_output(workload, rows, ref)) == 3
    rows = [dict(r) for r in ref["rows"]]
    rows[3]["mse"] = -1.0
    assert len(checks.check_output(workload, rows, None)) == 1  # range check, any seed

    bathtub = WORKLOADS["fine_bathtub"]
    bref = checks.load_reference(bathtub.name, checks.REFERENCE_SEED)
    profile = list(bref["profile"])
    profile[5] *= 1 + 1e-4
    assert checks.check_output(bathtub, profile, bref)
    assert checks.check_output(bathtub, profile[:-1], None)


def test_negative_control_broken_validate_fails():
    code, _, stdout = run.run_cli(CLI.main, ["validate", "--json", "--break", "circulant"])
    attempted, failures = checks.check_validate(stdout, code)
    assert attempted == 4 and len(failures) == 1
    code, _, stdout = run.run_cli(CLI.main, ["validate", "--json"])
    assert checks.check_validate(stdout, code) == (4, [])


def test_negative_control_perturbed_program_raises_error_rate(tmp_path, monkeypatch):
    workload = tiny_sweep()
    ref = checks.as_reference(workload, cli_output(workload, checks.REFERENCE_SEED, tmp_path))
    (tmp_path / f"{workload.name}.json").write_text(json.dumps(ref))
    monkeypatch.setattr(checks, "REFERENCE_DIR", tmp_path)

    import cpfde.fde

    original = cpfde.fde.equalize_block
    monkeypatch.setattr(cpfde.fde, "equalize_block", lambda R, bank: original(R, bank) * 1.01)
    result, record = run.measure(workload, seed=0, seconds=0, trace=False, setup_repeats=1, log=quiet)
    assert not result["correct"]
    assert record["error_rate"] > 0 and result["failed"] > 0


def test_seed_changes_inputs_and_repeats_exactly(tmp_path):
    workload = tiny_sweep()
    a = cli_output(workload, 1, tmp_path)
    assert cli_output(workload, 1, tmp_path) == a
    assert cli_output(workload, 2, tmp_path) != a


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
