"""Command-line interface: exit codes, outputs, sidecars, and fault hooks."""

import argparse
import json
import shlex
from pathlib import Path

import pytest

from cpfde.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestOptimizeBlock:
    def test_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "optimize-block")
        assert code == 0
        lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
        assert lines["n_opt"] == "900"
        assert lines["n_opt_pow2"] == "1024"
        assert float(lines["t_sym_at_pow2"]) == pytest.approx(469.526443523, rel=1e-9)

    def test_curve_row_at_1024(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "optimize-block",
            "--emit-curve",
            "curve.csv",
            "--output-dir",
            str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "curve.csv").read_text().splitlines()
        assert rows[0] == "n_b,t_sym,t_s,t_d_per_frame"
        row = next(r for r in rows if r.startswith("1024,"))
        _, t_sym, t_s, t_d = row.split(",")
        assert float(t_sym) == pytest.approx(469.526443523, rel=1e-6)
        assert float(t_s) == pytest.approx(1_974_272.0)
        assert float(t_d) == pytest.approx(806_912.0)
        sidecar = json.loads((tmp_path / "curve.csv.json").read_text())
        assert sidecar["n_opt"] == 900 and sidecar["params"]["M"] == 64

    def test_doubling_antennas_keeps_pow2_choice(self, capsys):
        code, out, _ = run_cli(capsys, "optimize-block", "--antennas", "128")
        assert code == 0
        lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
        assert lines["n_opt_pow2"] == "1024"

    def test_infeasible_params_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "optimize-block", "--overlap", "100", "--coherence", "50"
        )
        assert code == 2
        assert "error:" in err

    def test_config_file_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "opt.ini"
        cfg.write_text("[complexity]\nantennas = 64\noverlap = 15\ncoherence = 2048\nusers = 2\n")
        code, out, _ = run_cli(capsys, "optimize-block", "--config", str(cfg))
        assert code == 0
        lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
        assert lines["n_opt"] == "72"
        # flag overrides file
        code, out, _ = run_cli(
            capsys, "optimize-block", "--config", str(cfg), "--overlap", "127",
            "--coherence", "50000",
        )
        lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
        assert lines["n_opt"] == "900"


class TestSweep:
    ARGS = (
        "sweep",
        "--antennas", "8",
        "--taps", "4",
        "--coherence", "128",
        "--realizations", "2",
        "--ebn0", "10",
        "--block-lens", "16,128",
        "--seed", "3",
    )

    def test_rows_and_sidecar(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *self.ARGS, "--output-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert rows[0] == "ebn0_db,n_b,method,mse,ber,symbols,edge_excluded,seed"
        assert len(rows) == 1 + 1 * 2 * 2  # one ebn0 x two N_b x two methods
        meta = json.loads((tmp_path / "report.csv.json").read_text())
        assert meta["seed"] == 3 and meta["config"]["M"] == 8
        assert "mse=" in out

    def test_determinism_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            code, _, _ = run_cli(capsys, *self.ARGS, "--output-dir", str(d))
            assert code == 0
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()

    def test_method_subset(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, *self.ARGS, "--methods", "wfq", "--output-dir", str(tmp_path)
        )
        assert code == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
        assert all(",WF_Q," in r for r in rows)

    def test_bad_method_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, *self.ARGS, "--methods", "zf", "--output-dir", str(tmp_path)
        )
        assert code == 2 and "unknown method" in err


class TestBathtub:
    def test_profile_csv(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "bathtub",
            "--antennas", "8",
            "--taps", "4",
            "--coherence", "128",
            "--realizations", "2",
            "--block-len", "16",
            "--ebn0-point", "10",
            "--block-lens", "16",
            "--seed", "1",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "bathtub.csv").read_text().splitlines()
        assert rows[0] == "position,error_power"
        assert len(rows) == 17
        sidecar = json.loads((tmp_path / "bathtub.csv.json").read_text())
        assert sidecar["n_b"] == 16 and sidecar["ebn0_db"] == 10
        assert sidecar["edge_center_ratio"] > 0

    def test_ebn0_grid_flag_rejected(self, capsys, tmp_path):
        # The profiled point is --ebn0-point; the sweep's grid flag is not
        # accepted, not even as an abbreviation of --ebn0-point.
        with pytest.raises(SystemExit) as exc:
            main(["bathtub", "--ebn0", "0", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--ebn0" in capsys.readouterr().err


class TestQuantizerTable:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "quantizer-table")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "b,delta_over_sigma,rho_q"
        assert len(rows) == 9
        b1 = rows[1].split(",")
        assert float(b1[2]) == pytest.approx(1 - 2 / 3.141592653589793, abs=1e-9)


class TestValidate:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--json")
        assert code == 0
        res = json.loads(out)
        assert set(res) == {
            "diagonalization",
            "fde_vs_wf_oracle",
            "bussgang_gain",
            "argmin_m_invariance",
        }
        assert all(v["pass"] for v in res.values())

    def test_fault_hook_fails(self, capsys):
        # negative control: the broken circulant must be caught
        code, out, err = run_cli(capsys, "validate", "--break", "circulant")
        assert code == 1
        assert "FAIL diagonalization" in out
        assert "failed: diagonalization" in err


class TestParser:
    SIMULATION_FLAGS = {
        "--users", "--antennas", "--taps", "--channel", "--modulation", "--coherence",
        "--realizations", "--bits", "--seed", "--workers", "--block-lens", "--methods",
    }

    @pytest.mark.parametrize(
        "name, own_flags",
        [
            ("sweep", {"--ebn0", "--paper-scale", "--output"}),
            ("bathtub", {"--block-len", "--ebn0-point", "--output"}),
        ],
    )
    def test_simulation_flags_shared(self, name, own_flags):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {o for a in sub.choices[name]._actions for o in a.option_strings}
        expected = {"-h", "--help", "--config", "--output-dir"} | self.SIMULATION_FLAGS
        assert flags == expected | own_flags
        args = parser.parse_args([name, "--taps", "4", "--channel", "eva", "--workers", "2"])
        assert (args.taps, args.channel, args.workers) == (4, "eva", 2)

    def test_readme_commands_parse(self):
        # The README's command lines (those without shell variables) stay valid.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = [
            line
            for line in readme.read_text().splitlines()
            if line.startswith("cpfde ") and "$" not in line
        ]
        assert len(lines) >= 5
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")
