import json

import pytest

from apmoments.cli import main
from apmoments.sieve import factorize, primes_upto_monolithic


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestDispatch:
    def test_sum_example(self, capsys):
        code, out = run_cli(
            ["sum", "--mod", "4", "--res", "1", "--x", "30", "--fn", "const:1", "--u", "1"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["exact_sum"] == pytest.approx(0.370229, abs=1e-6)
        assert report["config"]["subcommand"] == "sum"
        assert report["version"]

    def test_classify_example(self, capsys):
        code, out = run_cli(["classify", "--fn", "invloglog"], capsys)
        assert code == 0
        assert json.loads(out)["case"] == "Case3"

    def test_moments_example(self, capsys):
        code, out = run_cli(
            ["moments", "--mod", "4", "--res", "1", "--n", "30", "--fn", "omega"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["mean"] == pytest.approx(1.0)
        assert report["count"] == 8
        assert {"restricted_sum", "density_sum"} == set(report["predictions"])
        assert len(report["coverage"]) == 3

    def test_sieve_lines(self, capsys):
        code, out = run_cli(["sieve", "--limit", "30", "--mod", "4", "--res", "1"], capsys)
        assert code == 0
        assert out.splitlines() == ["5", "13", "17", "29"]

    def test_model_exact(self, capsys):
        code, out = run_cli(
            ["model", "exact", "--mod", "4", "--res", "1", "--n", "100",
             "--fn", "const:1", "--umax", "3", "--mode", "density"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "density"
        assert len(report["kappa"]) == 3

    def test_asymptotic_reads_only_the_modulus(self, capsys):
        # no --res: the default residue 0 is not coprime to 4, but unused here
        code, out = run_cli(
            ["asymptotic", "--mod", "4", "--x", "1e4", "--fn", "invloglog"], capsys
        )
        assert code == 0
        assert json.loads(out)["k"] == 4

    def test_probe(self, capsys):
        code, out = run_cli(
            ["probe", "--series", "inv_p_squared", "--mod", "4", "--res", "1",
             "--fn", "const:1", "--checkpoints", "1e3,1e4,1e5"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "converging"
        assert len(report["values"]) == 3

    def test_ektest(self, capsys):
        code, out = run_cli(
            ["ektest", "--mod", "4", "--res", "1", "--n", "1e4", "--fn", "omega"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert 0 < report["ks"] < 1
        assert len(report["grid"]) == 21


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sum", "--x", "10", "--fn", "const:1", "--config"],
            ["sum", "--mod", "4", "--res", "2", "--x", "100", "--fn", "const:1"],
            ["sum", "--x", "100", "--fn", "zeta"],
            ["sum", "--x", "100", "--fn", "invloglog", "--p0", "7"],
            ["sum", "--x", "100", "--fn", "const:1", "--u", "0"],
            ["moments", "--n", "100", "--fn", "omega", "--umax", "50"],
            ["asymptotic", "--mod", "0", "--x", "1e4", "--fn", "invloglog"],
            ["asymptotic", "--mod", "-3", "--x", "1e4", "--fn", "invloglog"],
            ["probe", "--fn", "invloglog", "--checkpoints", "1e3,abc"],
            ["probe", "--fn", "invloglog", "--checkpoints", "1e4,1e3"],
            ["probe", "--fn", "invloglog", "--checkpoints", "0,10"],
            ["probe", "--fn", "invloglog", "--integral", "--checkpoints", "5,100"],
            ["model", "lindeberg", "--n", "100", "--fn", "const:1", "--epsilon", "-1"],
            ["model", "sample", "--n", "100", "--fn", "const:1", "--trials", "0"],
            ["model", "exact", "--n", "1", "--fn", "const:1"],
            ["model", "lindeberg", "--n", "1", "--fn", "const:1"],
            ["model", "sample", "--n", "1", "--fn", "const:1", "--trials", "10"],
            ["sieve", "--limit", "1"],
            ["model", "sample", "--n", "100", "--fn", "const:1", "--trials", "inf"],
            ["sum", "--x", "100", "--fn", "const:nan"],
            ["sum", "--x", "100", "--fn", "scaled:inf:invlog"],
            ["sum", "--x", "100", "--fn", "tab:5=nan,default=1"],
            ["asymptotic", "--fn", "const:1", "--x", "1e6", "--p0", "1"],
            ["classify", "--fn", "omega1"],
        ],
        ids=["config_without_path", "non_coprime_class", "unparsable_fn",
             "p0_below_kind_minimum", "sum_order_zero", "umax_above_cap",
             "modulus_zero", "modulus_negative", "checkpoint_not_a_number",
             "checkpoints_not_increasing", "checkpoint_below_two",
             "integral_checkpoint_below_start_prime", "epsilon_negative", "trials_zero",
             "model_exact_limit_one", "model_lindeberg_limit_one", "model_sample_limit_one",
             "sieve_limit_one", "trials_infinite", "const_nan", "scaled_inf",
             "tab_nan", "p0_below_two", "omega1_without_class"],
    )
    def test_bad_input_is_one_line_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--n", "abc", "--fn", "omega"],
            ["moments", "--n", "100", "--fn", "omega", "--mod", "abc"],
            ["sum", "--x", "abc", "--fn", "const:1"],
            ["sieve", "--limit", "abc"],
            ["model", "sample", "--n", "100", "--fn", "const:1", "--trials", "abc"],
        ],
        ids=["n", "mod", "x", "limit", "trials"],
    )
    def test_malformed_number_names_a_readable_type(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid integer value: 'abc'" in err
        assert "<lambda>" not in err and "invalid _" not in err

    def test_model_exact_accepts_umax_one(self, capsys):
        code, out = run_cli(["model", "exact", "--n", "100", "--fn", "const:1", "--umax", "1"],
                            capsys)
        assert code == 0
        assert len(json.loads(out)["kappa"]) == 1

    def test_missing_table_entry_is_one_unquoted_line(self, capsys):
        code = main(["moments", "--n", "100", "--fn", "tab:5=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no table entry") and err.count("\n") == 1

    def test_computation_error_is_one(self, capsys):
        code = main(["moments", "--mod", "7", "--res", "5", "--n", "4", "--fn", "omega"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_closed_form_signal_is_error(self, capsys):
        code = main(["asymptotic", "--mod", "1", "--x", "1e4", "--fn", "invlog",
                     "--method", "closed"])
        assert code == 1
        assert "integral_asymptotic" in capsys.readouterr().err


class TestExtensionRule:
    """A built-in brings its prime-power rule; an explicit --ext replaces any."""

    @staticmethod
    def _mean(capsys, *argv):
        code, out = run_cli(["moments", "--n", "1000", *argv], capsys)
        assert code == 0
        report = json.loads(out)
        return report["mean"], report["config"]["ext"]

    def test_half_omega_complete(self, capsys):
        assert self._mean(capsys, "--fn", "half_omega", "--ext", "complete") == (
            self._mean(capsys, "--fn", "scaled:0.5:one", "--ext", "complete"))
        assert self._mean(capsys, "--fn", "half_omega")[1] == "strong"

    def test_omega1_complete(self, capsys):
        cls = ("--mod", "4", "--res", "1")
        members = range(1, 1001, 4)
        want = sum(a for m in members for p, a in factorize(m) if p % 4 == 1) / len(members)
        mean, ext = self._mean(capsys, "--fn", "omega1", "--ext", "complete", *cls)
        assert mean == pytest.approx(want, rel=1e-12) and ext == "complete"

    def test_bigomega_strong_is_omega(self, capsys):
        assert self._mean(capsys, "--fn", "bigomega", "--ext", "strong") == (
            self._mean(capsys, "--fn", "omega"))
        assert self._mean(capsys, "--fn", "bigomega")[1] == "complete"

    def test_compare_records_each_rule(self, capsys):
        code, out = run_cli(["compare", "--n", "1000", "--fn-star", "omega", "--fn", "bigomega"],
                            capsys)
        assert code == 0
        report = json.loads(out)
        assert (report["f_star"]["ext"], report["f"]["ext"]) == ("strong", "complete")
        assert report["config"]["ext"] == "complete"


class TestZeroFunction:
    @pytest.mark.parametrize("spec", ["const:0", "scaled:0:invlog", "scaled:0:sqrtloglog"])
    def test_zero_has_no_decay_case(self, spec, capsys):
        assert main(["classify", "--fn", spec]) == 1
        assert capsys.readouterr().err == "error: zero function has no catalogued decay case\n"


class TestEmission:
    def test_json_round_trip(self, capsys):
        _, out = run_cli(
            ["sum", "--mod", "3", "--res", "2", "--x", "100", "--fn", "const:0.5"],
            capsys,
        )
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

    def test_csv_schema(self, capsys):
        _, out = run_cli(
            ["sum", "--mod", "3", "--res", "2", "--x", "100", "--fn", "const:0.5",
             "--format", "csv"],
            capsys,
        )
        lines = out.splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1].startswith("# version:")
        assert lines[2] == "x,k,l,u,exact_sum,main_term,err1,err2,case,verdict"
        assert len(lines) == 4

    def test_csv_unsupported_subcommand(self, capsys):
        code = main(["moments", "--mod", "4", "--res", "1", "--n", "30",
                     "--fn", "omega", "--format", "csv"])
        assert code == 1

    def test_atomic_write_and_byte_identity(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        argv = ["model", "sample", "--mod", "4", "--res", "1", "--n", "1e4",
                "--fn", "const:1", "--trials", "1000", "--seed", "3",
                "--out", str(out_file)]
        assert main(argv) == 0
        first = out_file.read_bytes()
        assert main(argv) == 0
        assert out_file.read_bytes() == first
        # no temp droppings
        assert list(tmp_path.iterdir()) == [out_file]

    def test_no_partial_file_on_error(self, tmp_path):
        out_file = tmp_path / "never.json"
        code = main(["moments", "--mod", "7", "--res", "5", "--n", "4",
                     "--fn", "omega", "--out", str(out_file)])
        assert code == 1
        assert not out_file.exists()

    def test_no_partial_spill_on_error(self, tmp_path, capsys):
        spill = tmp_path / "values.f64"
        code = main(["moments", "--n", "100", "--fn", "tab:5=1", "--spill", str(spill)])
        assert code == 1
        assert list(tmp_path.iterdir()) == []

    def test_spill_written_atomically(self, tmp_path, capsys):
        spill = tmp_path / "values.f64"
        argv = ["model", "sample", "--n", "1e3", "--fn", "const:1", "--trials", "100",
                "--spill", str(spill)]
        assert main(argv) == 0
        assert spill.stat().st_size == 100 * 8
        assert list(tmp_path.iterdir()) == [spill]

    def test_sieve_file_matches_monolithic_sieve(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("apmoments.sieve.PRIME_CHUNK", 1000)  # about ten blocks
        out_file = tmp_path / "primes.txt"
        argv = ["sieve", "--limit", "1e5", "--mod", "4", "--res", "3", "--out", str(out_file)]
        assert main(argv) == 0
        primes = primes_upto_monolithic(10**5)
        want = "".join(f"{p}\n" for p in primes[primes % 4 == 3].tolist())
        assert out_file.read_bytes() == want.encode()
        assert list(tmp_path.iterdir()) == [out_file]

    def test_fifteen_significant_digits(self, capsys):
        _, out = run_cli(
            ["sum", "--mod", "1", "--res", "0", "--x", "1e4", "--fn", "const:1"],
            capsys,
        )
        value = json.loads(out)["exact_sum"]
        assert value == pytest.approx(float(f"{value:.15g}"), abs=0)


class TestConfigFile:
    def test_file_values_used(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nmod=4\nres=1\nx=30\nfn=const:1\n")
        code, out = run_cli(["sum", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["exact_sum"] == pytest.approx(0.370229, abs=1e-6)

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mod=4\nres=1\nx=30\nfn=const:1\n")
        code, out = run_cli(["sum", "--config", str(cfg), "--x", "10"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["x"] == 10
        assert report["term_count"] == 1  # only p = 5

    def test_missing_config_file(self, capsys):
        code = main(["sum", "--config", "/nonexistent/path.cfg", "--x", "10",
                     "--fn", "const:1"])
        assert code == 2
