import pytest

from regselect.experiments.cli import (
    COMMANDS,
    build_parser,
    config_from_args,
    main,
    parse_grid,
    read_config_file,
)
from regselect.variational import ConvergenceError


class TestParseGrid:
    def test_parses_triple(self):
        assert parse_grid("1e-4:100:500") == (1e-4, 100.0, 500)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_grid("1:2")
        with pytest.raises(ValueError):
            parse_grid("1:2:3:4")

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError):
            parse_grid("a:b:c")


class TestConfigFile:
    def test_parses_values_comments_and_hyphens(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\nmodel=spectral\nn-mc=75  # inline\ntau=0.02\n\n"
                       "grid=1e-3:1:40\n")
        values = read_config_file(cfg)
        assert values == {"model": "spectral", "n_mc": 75, "tau": 0.02,
                          "grid": (1e-3, 1.0, 40)}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        with pytest.raises(ValueError, match="unknown key"):
            read_config_file(cfg)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(ValueError, match="key=value"):
            read_config_file(cfg)

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tau=0.5\nseed=3\n")
        args = build_parser().parse_args(
            ["risk-curve", "--config", str(cfg_file), "--tau", "0.2"])
        cfg = config_from_args(args)
        assert cfg.tau == 0.2  # flag wins
        assert cfg.seed == 3   # file survives where no flag given

    def test_defaults_without_config(self):
        args = build_parser().parse_args(["risk-curve"])
        cfg = config_from_args(args)
        assert cfg.model == "spectral"
        assert cfg.grid == (1e-4, 100.0, 500)


class TestMain:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_config_returns_error_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        assert main(["risk-curve", "--config", str(cfg)]) == 2

    def test_missing_config_file_returns_error_code(self, tmp_path):
        assert main(["risk-curve", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_solver_failure_returns_error_code(self, tmp_path, monkeypatch, capsys):
        def diverging_driver(cfg):
            raise ConvergenceError("lasso did not converge in 3 iterations")

        monkeypatch.setitem(COMMANDS, "risk-curve", (diverging_driver, ("risk_curve.csv",)))
        assert main(["risk-curve", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: lasso did not converge in 3 iterations\n"
        assert captured.out == ""

    def test_bound_check_writes_files(self, tmp_path, capsys):
        rc = main(["bound-check", "--model", "spectral", "--tau", "0.01",
                   "--grid", "1e-3:1:20", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "bound_curve.csv").exists()
        assert (tmp_path / "bound_summary.csv").exists()
        assert "bound_summary.csv" in capsys.readouterr().out

    def test_risk_curve_runs_deterministically(self, tmp_path):
        flags = ["risk-curve", "--d", "15", "--n", "5", "--n-mc", "20",
                 "--trials", "2", "--grid", "1e-3:1:25", "--seed", "11"]
        assert main(flags + ["--out", str(tmp_path / "a")]) == 0
        assert main(flags + ["--out", str(tmp_path / "b")]) == 0
        for name in ("risk_curve.csv", "risk_curve_trials.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_generate_subcommand(self, tmp_path):
        rc = main(["generate", "--model", "denoise", "--d", "50", "--sparsity", "3",
                   "--n", "4", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "dataset.bin").exists()
