"""Command-line interface: exit codes, outputs, sidecars, and fault hooks."""

import argparse
import dataclasses
import errno
import io
import json
import shlex
from pathlib import Path

import pytest

from cpfde import blockopt, cli, simulate
from cpfde.channel import PowerDelayProfile
from cpfde.cli import build_parser, main, parse_args


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
        assert len(rows) == 1 + 50_000 - 127  # N_b = L'+1 .. T_c
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

    def test_pow2_flag_gone(self, capsys):
        # The default output already prints n_opt_pow2 and t_sym_at_pow2.
        with pytest.raises(SystemExit) as exc:
            main(["optimize-block", "--pow2"])
        assert exc.value.code == 2

    def test_infeasible_params_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "optimize-block", "--overlap", "100", "--coherence", "50"
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("subcommand", ["optimize-block", "sweep", "bathtub"])
    def test_coherence_above_cap_exit_2(self, capsys, tmp_path, monkeypatch, subcommand):
        # The default block length comes from the same capped scan.
        monkeypatch.setattr(simulate, "run_experiment", None)  # never reached
        monkeypatch.setattr(simulate, "per_position_error_profile", None)
        code, _, err = run_cli(
            capsys, subcommand, "--coherence", str(10**12), "--output-dir", str(tmp_path)
        )
        assert code == 2
        assert err.splitlines() == [
            f"error: T_c={10**12} > {blockopt.MAX_COHERENCE} unsupported"
        ]

    @pytest.mark.parametrize("subcommand", ["sweep", "bathtub"])
    def test_stream_above_cap_exit_2(self, capsys, tmp_path, monkeypatch, subcommand):
        # A given block length skips the capped scan; the stream bound still
        # rejects T_c before any channel is drawn or stream allocated.
        def fail(*_):
            raise AssertionError("realization started")

        monkeypatch.setattr(simulate, "_realization_taps", fail)
        code, _, err = run_cli(
            capsys, subcommand, "--coherence", str(10**12), "--block-lens", "64",
            "--realizations", "1", "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert err.splitlines() == [
            f"error: M x T_c = 32 x {10**12} stream exceeds {simulate.MAX_STREAM_BYTES} bytes"
        ]

    @pytest.mark.parametrize("subcommand", ["sweep", "bathtub"])
    def test_users_above_cap_exit_2(self, capsys, tmp_path, monkeypatch, subcommand):
        # The K x T_c symbol stream is bounded like the receive stream: the
        # config is rejected before any channel, symbol or tap array exists.
        def fail(*_):
            raise AssertionError("realization started")

        monkeypatch.setattr(simulate, "_realization_taps", fail)
        code, _, err = run_cli(
            capsys, subcommand, "--users", str(10**8), "--block-lens", "64",
            "--realizations", "1", "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert err.splitlines() == [
            f"error: K x T_c = {10**8} x 2048 symbol stream exceeds {simulate.MAX_STREAM_BYTES} bytes"
        ]

    def test_subbands_above_cap_exit_2(self, capsys, tmp_path, monkeypatch):
        # The (M, K, N_b) subbands of a block length below T_c are bounded
        # like the streams, and so are the T_c-long Gram factors of the
        # one-block N_b = T_c: 4 GiB each here, rejected before any channel
        # is drawn.
        def fail(*_):
            raise AssertionError("realization started")

        monkeypatch.setattr(simulate, "_realization_taps", fail)
        for coherence, message in [
            ("8192", "M x K x sum(n) = 256 x 256 x 4096 tap spectra"),
            ("4096", "K(K-1)/2 x Q x sum(N_b) = 32640 x 2 x 4096 Gram factors"),
        ]:
            code, _, err = run_cli(
                capsys, "sweep", "--users", "256", "--antennas", "256", "--taps", "4",
                "--coherence", coherence, "--block-lens", "4096", "--realizations", "1",
                "--ebn0", "10", "--output-dir", str(tmp_path),
            )
            assert code == 2
            assert err.splitlines() == [
                f"error: {message} exceeds {simulate.MAX_STREAM_BYTES} bytes"
            ]

    def test_gram_factors_of_every_block_length_above_cap_exit_2(self, capsys, tmp_path,
                                                                  monkeypatch):
        # Every N_b's bank lives from the first Eb/N0 point to the last, so
        # the Gram factors of all block lengths are bounded together: at
        # N_b 100 and 156 the subbands are 2**28 bytes, inside the cap, but
        # the factors of four points' eight models are 1.07 GB.
        def fail(*_):
            raise AssertionError("realization started")

        monkeypatch.setattr(simulate, "_realization_taps", fail)
        code, _, err = run_cli(
            capsys, "sweep", "--users", "256", "--antennas", "256", "--taps", "4",
            "--coherence", "4096", "--block-lens", "100,156", "--realizations", "1",
            "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert err.splitlines() == [
            "error: K(K-1)/2 x Q x sum(N_b) = 32640 x 8 x 256 Gram factors exceeds"
            f" {simulate.MAX_STREAM_BYTES} bytes"
        ]
        assert not list(tmp_path.iterdir())

    def test_gram_products_above_cap_exit_2(self, capsys, tmp_path, monkeypatch):
        # 128 users, antennas and taps: every array of the realization but
        # the bank build's pair products of the taps' 256-point spectra
        # (4.3 GB) is inside the cap, and those are refused before any
        # channel is drawn.
        def fail(*_):
            raise AssertionError("realization started")

        monkeypatch.setattr(simulate, "_realization_taps", fail)
        code, _, err = run_cli(
            capsys, "sweep", "--users", "128", "--antennas", "128", "--taps", "128",
            "--coherence", "128", "--block-lens", "128", "--realizations", "1",
            "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert err.splitlines() == [
            "error: M x K(K+1)/2 x n_lag = 128 x 8256 x 256 Gram products exceeds"
            f" {simulate.MAX_STREAM_BYTES} bytes"
        ]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("block_lens", ["64", "2048"])
    def test_singular_gram_exit_2(self, capsys, tmp_path, block_lens):
        # 4 users on 2 antennas at 200 dB: WF's Gram matrix is singular to
        # working precision on a multi-block stream (N_b = 64) and a one-block
        # stream (N_b = T_c = 2048) alike.  One error line, no report.
        code, _, err = run_cli(
            capsys, "sweep", "--users", "4", "--antennas", "2", "--ebn0", "200",
            "--realizations", "2", "--block-lens", block_lens, "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: the 4 x 4 Gram matrix is singular")
        assert not list(tmp_path.iterdir())

    def test_singular_gram_at_last_point_exit_2(self, capsys, tmp_path):
        # The same channels equalize at 0 dB: only the last point is singular.
        code, _, err = run_cli(
            capsys, "sweep", "--users", "4", "--antennas", "2", "--ebn0", "0,200",
            "--realizations", "2", "--block-lens", "64,2048", "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: the 4 x 4 Gram matrix is singular")
        assert not list(tmp_path.iterdir())

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

    def test_rows_and_sidecar(self, capsys, tmp_path, monkeypatch):
        original, reports = simulate.run_experiment, []

        def recording_run(cfg):
            reports.append(original(cfg))
            return reports[-1]

        monkeypatch.setattr(simulate, "run_experiment", recording_run)
        code, out, _ = run_cli(capsys, *self.ARGS, "--output-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert rows[0] == "ebn0_db,n_b,method,mse,ber,symbols,edge_excluded,seed"
        assert len(rows) == 1 + 1 * 2 * 2  # one ebn0 x two N_b x two methods
        assert all(r.endswith(",3") for r in rows[1:])
        meta = json.loads((tmp_path / "report.csv.json").read_text())
        assert list(meta) == ["seed", "config", "mse_stderr"]
        assert meta["seed"] == 3 and meta["config"]["M"] == 8
        assert list(meta["config"]) == [f.name for f in dataclasses.fields(simulate.SimConfig)]
        # mse_stderr in CSV row order; two realizations give a nonzero spread
        assert meta["mse_stderr"] == [r.mse_stderr for r in reports[0].rows]
        assert all(s > 0 for s in meta["mse_stderr"])
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

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--seed", "-1"),
            ("bathtub", "--seed", "-1"),
            ("sweep", "--modulation", "-4"),
            ("sweep", "--modulation", "1000000000000000000000"),
            ("sweep", "--modulation", str(4**9)),
            ("sweep", "--modulation", str(4**64)),
        ],
        ids=" ".join,
    )
    def test_bad_seed_or_modulation_exit_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(simulate, "run_experiment", None)  # never reached
        monkeypatch.setattr(simulate, "per_position_error_profile", None)
        code, _, err = run_cli(capsys, *argv, "--output-dir", str(tmp_path))
        assert code == 2
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--ebn0=4000"),
            ("sweep", "--ebn0=-4000"),
            ("sweep", "--ebn0=0,4000"),
            ("bathtub", "--ebn0-point=4000"),
            ("bathtub", "--ebn0-point=-4000"),
        ],
        ids=" ".join,
    )
    def test_out_of_range_ebn0_exit_2(self, capsys, tmp_path, monkeypatch, argv):
        # Rejected with the configuration: no channel is drawn for the Eb/N0
        # trace pass and no realization starts.
        def fail(*_):
            raise AssertionError("realization started")

        monkeypatch.setattr(simulate, "_realization_taps", fail)
        code, _, err = run_cli(capsys, *argv, "--output-dir", str(tmp_path))
        assert code == 2
        assert err.splitlines() == [
            f"error: Eb/N0 grid points must lie within +-{simulate.MAX_EBN0_DB:g} dB"
        ]


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
        assert "n_b" not in sidecar and "ebn0_db" not in sidecar
        assert sidecar["edge_center_ratio"] > 0
        # The recorded grid is the one point profiled, not the sweep's default grid.
        assert sidecar["config"]["ebn0_grid"] == [10.0]
        assert sidecar["config"]["block_lens"] == [16]
        assert sidecar["config"]["methods"] == ["WF_Q"]

    def test_zero_block_len_exit_2(self, capsys, tmp_path):
        # 0 is a block length, not "unset": it is rejected, not replaced by N_b.
        code, _, err = run_cli(
            capsys, "bathtub", "--block-len", "0", "--output-dir", str(tmp_path)
        )
        assert code == 2 and "error:" in err
        assert not (tmp_path / "bathtub.csv").exists()

    def test_block_len_above_cap_exit_2(self, capsys, tmp_path, monkeypatch):
        # --block-len replaces --block-lens in the configuration, so its
        # (M, K, N_b) subbands, 2 GiB here, are bounded as a sweep's are,
        # before any realization runs.
        def fail(*_):
            raise AssertionError("realization started")

        monkeypatch.setattr(simulate, "_realization_taps", fail)
        code, _, err = run_cli(
            capsys, "bathtub", "--users", "16", "--antennas", "32", "--coherence", "524288",
            "--block-lens", "64", "--block-len", "262144", "--realizations", "1",
            "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert err.splitlines() == [
            f"error: M x K x sum(n) = 32 x 16 x 262144 tap spectra exceeds"
            f" {simulate.MAX_STREAM_BYTES} bytes"
        ]
        assert not (tmp_path / "bathtub.csv").exists()

    def test_config_holds_only_the_profiled_block_length(self, capsys, tmp_path, monkeypatch):
        # A 4 x 256 stream at the bound: the run's configuration holds only
        # the profiled N_b = 16, not the default block lengths (n_opt_pow2 and
        # T_c), and so does its sidecar.
        monkeypatch.setattr(simulate, "MAX_STREAM_BYTES", 4 * 256 * 16)
        code, _, err = run_cli(
            capsys, "bathtub", "--antennas", "4", "--taps", "4", "--coherence", "256",
            "--block-len", "16", "--realizations", "1", "--output-dir", str(tmp_path),
        )
        assert code == 0, err
        sidecar = json.loads((tmp_path / "bathtub.csv.json").read_text())
        assert sidecar["config"]["block_lens"] == [16]

    def test_given_block_len_skips_the_scan(self, capsys, tmp_path, monkeypatch):
        def fail(*_):
            raise AssertionError("block length scan run")

        monkeypatch.setattr(blockopt, "optimal_block_length", fail)
        code, _, err = run_cli(
            capsys, "bathtub", "--antennas", "4", "--taps", "4", "--coherence", "128",
            "--block-len", "16", "--realizations", "1", "--output-dir", str(tmp_path),
        )
        assert code == 0, err

    def test_two_methods_exit_2(self, capsys, tmp_path, monkeypatch):
        # The bathtub profiles one filter; two are refused before any channel is drawn.
        def fail(*_):
            raise AssertionError("realization started")

        monkeypatch.setattr(simulate, "_realization_taps", fail)
        code, _, err = run_cli(
            capsys, "bathtub", "--methods", "wf,wfq", "--output-dir", str(tmp_path)
        )
        assert code == 2
        assert err.splitlines() == [
            "error: the profile takes one block length, Eb/N0 point and method"
        ]
        assert not (tmp_path / "bathtub.csv").exists()

    def test_ebn0_grid_flag_rejected(self, capsys, tmp_path):
        # The profiled point is --ebn0-point; the sweep's grid flag is not
        # accepted, not even as an abbreviation of --ebn0-point.
        with pytest.raises(SystemExit) as exc:
            main(["bathtub", "--ebn0", "0", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--ebn0" in capsys.readouterr().err


def config_from_sidecar(config: dict) -> simulate.SimConfig:
    """The SimConfig that a sidecar's `config` object records."""
    pdp = config["pdp"]
    entries = tuple((int(i), float(p)) for i, p in pdp["entries"])
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in config.items()}
    fields["pdp"] = PowerDelayProfile(entries, pdp["total_taps"])
    return simulate.SimConfig(**fields)


class TestSidecarRecordsTheRun:
    # Rerunning the configuration a sidecar records writes its CSV again.
    def test_sweep(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, *TestSweep.ARGS, "--channel", "eva", "--bits", "3",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "report.csv.json").read_text())
        cfg = config_from_sidecar(sidecar["config"])
        rows = [
            f"{r.ebn0_db:.12g},{r.n_b},{r.method},{r.mse:.12g},{r.ber:.12g},"
            f"{r.symbols_counted},{r.edge_symbols_excluded},{cfg.seed}"
            for r in simulate.run_experiment(cfg).rows
        ]
        assert (tmp_path / "report.csv").read_text().splitlines()[1:] == rows

    def test_bathtub(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "bathtub", "--antennas", "8", "--taps", "4", "--coherence", "128",
            "--realizations", "2", "--block-lens", "32,16", "--methods", "wf",
            "--channel", "eva", "--ebn0-point", "5", "--seed", "4",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "bathtub.csv.json").read_text())
        cfg = config_from_sidecar(sidecar["config"])
        assert (cfg.block_lens, cfg.ebn0_grid, cfg.methods) == ((32,), (5.0,), ("WF",))
        profile = simulate.per_position_error_profile(cfg)
        rows = [f"{i},{p:.12g}" for i, p in enumerate(profile)]
        assert (tmp_path / "bathtub.csv").read_text().splitlines()[1:] == rows


def write_ini(path, **keys):
    path.write_text("[sim]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    return str(path)


def sweep_ini(path):
    """TestSweep.ARGS as an INI file."""
    flags = TestSweep.ARGS[1:]
    keys = {f[2:].replace("-", "_"): v for f, v in zip(flags[::2], flags[1::2])}
    return write_ini(path, **keys)


class TestConfigFile:
    def test_sweep_file_matches_flags(self, capsys, tmp_path):
        ini = sweep_ini(tmp_path / "sweep.ini")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, *TestSweep.ARGS, "--output-dir", str(a))[0] == 0
        assert run_cli(capsys, "sweep", "--config", ini, "--output-dir", str(b))[0] == 0
        for name in ("report.csv", "report.csv.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sweep_flag_overrides_file(self, capsys, tmp_path):
        ini = sweep_ini(tmp_path / "sweep.ini")
        code, _, _ = run_cli(
            capsys, "sweep", "--config", ini, "--seed", "5", "--methods", "wfq",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        meta = json.loads((tmp_path / "report.csv.json").read_text())
        assert meta["seed"] == 5 and meta["config"]["methods"] == ["WF_Q"]
        assert meta["config"]["M"] == 8  # from the file

    def test_negative_grid_from_file(self, capsys, tmp_path):
        # The `--key=value` form keeps a leading minus from reading as a flag,
        # in a file and on the command line alike.
        ini = write_ini(tmp_path / "f.ini", ebn0="-5,0")
        for argv in (["--config", ini], ["--ebn0=-5,0"]):
            assert parse_args(["sweep", *argv]).ebn0 == (-5.0, 0.0)

    def test_unknown_key_exit_2(self, capsys, tmp_path, monkeypatch):
        # bathtub takes --ebn0-point, not the sweep's --ebn0; `realisations` is a typo.
        monkeypatch.setattr(simulate, "per_position_error_profile", None)
        ini = write_ini(tmp_path / "f.ini", ebn0="0", realisations="1")
        with pytest.raises(SystemExit) as exc:
            main(["bathtub", "--config", ini, "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--realisations=1" in err and "--ebn0=0" in err
        assert not (tmp_path / "bathtub.csv").exists()

    @pytest.mark.parametrize(
        "ini, flags",
        [
            ({"realizations": "two"}, []),
            ({}, ["--ebn0", "0,x"]),
            ({}, ["--ebn0", ""]),
            ({}, ["--block-lens", "64,"]),
        ],
    )
    def test_malformed_value_exit_2(self, capsys, tmp_path, monkeypatch, ini, flags):
        monkeypatch.setattr(simulate, "run_experiment", None)  # never reached
        cfg = ["--config", write_ini(tmp_path / "f.ini", **ini)] if ini else []
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *cfg, *flags, "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err


class TestOutputPath:
    @pytest.mark.parametrize(
        "argv, module, name",
        [
            (["sweep", "--output", "sub/r.csv"], simulate, "run_experiment"),
            (["bathtub", "--output", "sub/b.csv"], simulate, "per_position_error_profile"),
            (["optimize-block", "--emit-curve", "sub/c.csv"], blockopt, "optimal_block_length"),
        ],
    )
    def test_parent_created_before_work(
        self, capsys, tmp_path, monkeypatch, argv, module, name
    ):
        seen = []

        def work(*args, **kwargs):
            seen.append((tmp_path / "sub").is_dir())
            raise simulate.ConfigurationError("stop")

        monkeypatch.setattr(module, name, work)
        code, _, err = run_cli(capsys, *argv, "--output-dir", str(tmp_path))
        assert code == 2 and "stop" in err
        assert seen == [True]


    def test_shorter_rewrite_leaves_exactly_the_new_bytes(self, capsys, tmp_path):
        # A rerun over an existing CSV and sidecar, here with fewer rows and
        # through a symlink, leaves the bytes of a first run and no tail of
        # the longer files before.
        small = ["sweep", "--antennas", "4", "--taps", "4", "--coherence", "256",
                 "--realizations", "1", "--block-lens", "16"]
        fresh = tmp_path / "fresh"
        assert run_cli(capsys, *small, "--ebn0", "0", "--output-dir", str(fresh))[0] == 0
        old = tmp_path / "old"
        assert run_cli(capsys, *small, "--ebn0", "0,5,10", "--output-dir", str(old))[0] == 0
        (tmp_path / "link").mkdir()
        for name in ("report.csv", "report.csv.json"):
            (tmp_path / "link" / name).symlink_to(old / name)
        assert (old / "report.csv").stat().st_size > (fresh / "report.csv").stat().st_size
        link = tmp_path / "link"
        assert run_cli(capsys, *small, "--ebn0", "0", "--output-dir", str(link))[0] == 0
        for name in ("report.csv", "report.csv.json"):
            assert (link / name).is_symlink()
            assert (old / name).read_bytes() == (fresh / name).read_bytes()

    def test_interrupted_rewrite_leaves_no_old_tail(self, tmp_path):
        # A write that stops on an error leaves the rows written so far and
        # none of the longer file before, so the CSV does not look whole.
        out = tmp_path / "report.csv"
        out.write_text("h\n" + "".join(f"old{i}\n" for i in range(5)))

        def lines():
            yield "new0"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            cli._write_report(out, "h", lines(), {})
        assert out.read_text() == "h\nnew0\n"

    def test_rewrite_on_a_full_disk_leaves_no_old_tail(self, monkeypatch, tmp_path):
        # When the disk fills, the buffered text cannot be written either:
        # the file is cut behind the bytes that reached it.
        path = tmp_path / "report.csv"
        path.write_bytes(b"x" * 100)

        class FullDisk(io.FileIO):
            room = 10

            def write(self, b):
                if self.room == 0:
                    raise OSError(errno.ENOSPC, "No space left on device")
                n = min(len(b), self.room)
                self.room -= n
                return super().write(bytes(b[:n]))

        monkeypatch.setattr(
            cli, "open", lambda fd, mode: io.TextIOWrapper(io.BufferedWriter(FullDisk(fd, "w"))),
            raising=False,
        )
        with pytest.raises(OSError, match="No space"):
            with cli._rewrite(path) as f:
                f.write("new text of twenty-six b\n")
        assert path.read_bytes() == b"new text o"


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

    @staticmethod
    def config_subcommands():
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for name, p in sub.choices.items():
            if any("--config" in a.option_strings for a in p._actions):
                yield name, p

    def test_every_value_option_reads_from_file(self, tmp_path):
        # `key = v` in a file and `--key v` on the command line parse alike, for
        # every option of every subcommand that takes --config.
        ini = tmp_path / "f.ini"
        checked = 0
        for name, p in self.config_subcommands():
            for action in p._actions:
                if action.nargs == 0 or action.dest == "config":
                    continue
                flag = action.option_strings[-1]
                for value in [*(action.choices or ()), "2,3", "3"]:
                    try:
                        expected = vars(parse_args([name, flag, value]))
                    except SystemExit:
                        continue
                    break
                else:
                    pytest.fail(f"no sample value for {name} {flag}")
                write_ini(ini, **{flag[2:].replace("-", "_"): value})
                got = vars(parse_args([name, "--config", str(ini)]))
                assert {**got, "config": None} == {**expected, "config": None}, flag
                checked += 1
        assert checked >= 20

    def test_switch_in_file_exit_2(self, capsys, tmp_path):
        for name, p in self.config_subcommands():
            for action in p._actions:
                if action.nargs != 0 or action.dest == "help":
                    continue
                ini = write_ini(tmp_path / "f.ini", **{action.dest: "true"})
                with pytest.raises(SystemExit) as exc:
                    parse_args([name, "--config", ini])
                assert exc.value.code == 2
                assert action.option_strings[0] in capsys.readouterr().err
