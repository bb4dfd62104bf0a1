import argparse
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from apmoments import counting, prime_sums
from apmoments.cli import _integer, build_parser, main
from apmoments.sieve import Progression, factorize, primes_upto_monolithic
from oracles import sieve_primes


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _subparsers(parser):
    """A parser's subcommands by name ({} for a leaf)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


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
            ["asymptotic", "--fn", "invloglog", "--x", "11"],
            ["moments", "--n", "1", "--fn", "omega"],
            ["compare", "--fn-star", "omega", "--fn", "bigomega", "--n", "1"],
            ["sum", "--x", "1e40", "--fn", "const:1"],
            ["sieve", "--limit", "1e40"],
            ["model", "exact", "--n", "1e40", "--fn", "const:1"],
            ["probe", "--fn", "invloglog", "--checkpoints", "1e40"],
            ["ektest", "--fn", "omega", "--n", "1"],
            ["ektest", "--fn", "omega", "--mod", "4", "--res", "1", "--n", "1e20"],
            ["classify", "--fn", "invloglog", "--u", "0"],
            ["asymptotic", "--fn", "invloglog", "--x", "1e6", "--u", "-1"],
            ["probe", "--fn", "invloglog", "--u", "0"],
            ["model", "sample", "--n", "100", "--fn", "const:1", "--trials", "10", "--seed", "-1"],
            ["model", "sample", "--n", "100", "--fn", "const:1", "--trials", "2.9"],
            ["moments", "--n", "1e4.5", "--fn", "omega"],
            ["moments", "--n", "100.5", "--fn", "omega"],
            ["sieve", "--limit", "12.9"],
            ["probe", "--fn", "invloglog", "--checkpoints", "1000.7,1e4,1e5"],
            ["model", "compare", "--n", "100", "--fn-star", "omega", "--fn", "bigomega"],
            ["compare", "--n", "100", "--fn-star", "omega", "--fn", "bigomega",
             "--format", "csv"],
            ["model", "exact", "--n", "100", "--fn", "const:1", "--format", "csv"],
            ["model", "sample", "--n", "100", "--fn", "const:1", "--trials", "10",
             "--format", "csv"],
            ["model", "lindeberg", "--n", "100", "--fn", "const:1", "--format", "csv"],
        ],
        ids=["config_without_path", "non_coprime_class", "unparsable_fn",
             "p0_below_kind_minimum", "sum_order_zero", "umax_above_cap",
             "modulus_zero", "modulus_negative", "checkpoint_not_a_number",
             "checkpoints_not_increasing", "checkpoint_below_two",
             "integral_checkpoint_below_start_prime", "epsilon_negative", "trials_zero",
             "model_exact_limit_one", "model_lindeberg_limit_one", "model_sample_limit_one",
             "sieve_limit_one", "trials_infinite", "const_nan", "scaled_inf",
             "tab_nan", "p0_below_two", "omega1_without_class",
             "asymptotic_x_at_start_prime", "moments_limit_one", "compare_limit_one",
             "sum_above_ceiling", "sieve_above_ceiling", "model_exact_above_ceiling",
             "checkpoint_above_ceiling", "ektest_limit_one", "ektest_above_ceiling",
             "classify_order_zero", "asymptotic_order_negative", "probe_order_zero",
             "seed_negative", "trials_fractional", "n_malformed_exponent",
             "n_fractional", "sieve_limit_fractional", "checkpoint_fractional",
             "model_compare_removed", "compare_format", "model_exact_format",
             "model_sample_format", "model_lindeberg_format"],
    )
    def test_bad_input_is_one_line_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_out_of_memory_is_one_line(self, monkeypatch, capsys):
        # a stand-in for np.zeros(trials) failing on a huge --trials
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr("apmoments.model.sample", refuse)
        code = main(["model", "sample", "--n", "1e4", "--fn", "const:1", "--trials", "1e13"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--out", "--spill"])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_output_path_error_names_the_given_path(self, flag, where, tmp_path, capsys):
        target = tmp_path / "missing" / "p.txt" if where == "missing_dir" else tmp_path / "dir"
        if where == "directory":
            target.mkdir()
        argv = (["sieve", "--limit", "100"] if flag == "--out"
                else ["moments", "--fn", "omega", "--n", "100"])
        assert main([*argv, flag, str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(target) in err and ".apmoments-" not in err
        assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".apmoments-")]

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

    def test_sizes_take_whole_exponent_forms(self, capsys):
        code, out = run_cli(["sieve", "--limit", "2.5e1"], capsys)
        assert code == 0 and out.split() == ["2", "3", "5", "7", "11", "13", "17", "19", "23"]
        code, out = run_cli(["model", "sample", "--n", "1e2", "--fn", "const:1",
                             "--trials", "2.5e1"], capsys)
        assert code == 0 and json.loads(out)["trials"] == 25

    @pytest.mark.parametrize(
        "text,value",
        [("1e6", 10**6), ("2.5e3", 2500), ("100e-2", 1), ("5.", 5), ("1e40", 10**40),
         ("12.9", None), ("150e-2", None), ("12345678901234567.5", None),
         ("12.9999999999999999999", None), ("1e-999999999", None), ("1e400", None), ("", None),
         ("1_000", 1000), (" 7 ", 7), (".5e1", 5), ("0e-400", 0), ("1e1_0", 10**10),
         ("0x10", None), ("Infinity", None)],
    )
    def test_size_digits_are_read_exactly(self, text, value):
        # a fraction past float precision, or 10^-1e9, is still not whole
        if value is None:
            with pytest.raises(argparse.ArgumentTypeError):
                _integer(text)
        else:
            assert _integer(text) == value

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

    @pytest.mark.parametrize("fn,norm", [("sqrtloglog", "sigma"), ("omega", "sqrt_mean")],
                             ids=["real", "lattice"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "short", "long", "ragged"])
    def test_bad_spill_file_is_one_line_naming_it(self, bad, fn, norm, tmp_path, capsys):
        # 1..1000 has 1000 members, so a good spill file holds 8000 bytes; the
        # sweep writes the file and its sidecar, then the file is spoilt
        spill = tmp_path / "values.f64"
        assert main(["moments", "--fn", fn, "--n", "1000", "--spill", str(spill)]) == 0
        capsys.readouterr()
        values = np.ones(1000, dtype="<f8")
        if bad in ("nan", "inf", "-inf"):
            values[700] = float(bad)
        data = values.tobytes()
        data = {"short": data[:-8], "long": data + data[:8], "ragged": data[:-3]}.get(bad, data)
        spill.write_bytes(data)
        code = main(["ektest", "--fn", fn, "--norm", norm, "--n", "1000", "--spill", str(spill)])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: spill file") and err.count("\n") == 1
        assert str(spill) in err

    def test_spill_off_the_lattice_is_one_line_naming_it(self, tmp_path, capsys):
        # sqrtloglog's values read as omega's: they were once rounded onto
        # omega's lattice and reported (ks 0.3601 against the sweep's 0.2446)
        spill = tmp_path / "values.f64"
        cls = ["--mod", "4", "--res", "1", "--n", "1e5", "--spill", str(spill)]
        assert main(["moments", "--fn", "sqrtloglog", *cls]) == 0
        capsys.readouterr()
        assert main(["ektest", "--fn", "omega", *cls]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: spill file") and err.count("\n") == 1
        assert str(spill) in err

    @pytest.mark.parametrize("write, held", [
        (["moments", "--fn", "bigomega", "--mod", "4", "--res", "1"], "ext"),
        (["moments", "--fn", "omega", "--mod", "4", "--res", "3"], "r"),
        (["model", "sample", "--fn", "omega", "--mod", "4", "--res", "1", "--trials", "25000"],
         "dataset"),
    ], ids=["bigomega_as_omega", "another_class", "model_sample"])
    def test_spill_of_another_dataset_is_one_line_naming_it(self, write, held, tmp_path, capsys):
        # a bigomega spill read as omega's was once reported (ks 0.2014
        # against the sweep's 0.2446): each file's sidecar names its dataset
        spill = tmp_path / "values.f64"
        assert main([*write, "--n", "1e5", "--spill", str(spill)]) == 0
        capsys.readouterr()
        read = ["ektest", "--fn", "omega", "--mod", "4", "--res", "1", "--n", "1e5"]
        assert main([*read, "--spill", str(spill)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: spill file {spill} holds {held} ") and err.count("\n") == 1

    def test_spill_without_its_sidecar_is_one_line_naming_it(self, tmp_path, capsys):
        spill = tmp_path / "values.f64"
        cls = ["--mod", "4", "--res", "1", "--n", "1e4", "--spill", str(spill)]
        assert main(["moments", "--fn", "omega", *cls]) == 0
        assert main(["ektest", "--fn", "omega", *cls]) == 0
        (tmp_path / "values.f64.json").unlink()
        capsys.readouterr()
        assert main(["ektest", "--fn", "omega", *cls]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: spill file {spill} has no sidecar")

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


class TestOneFunctionOneSpec:
    """A spec is c * g, so each way of writing one f runs as that f."""

    def test_negative_factor_of_a_negative_constant_is_omega(self, capsys):
        argv = ["ektest", "--norm", "sqrt_mean", "--mod", "4", "--res", "1", "--n", "1e4"]
        reports = []
        for spec in ("scaled:-1:const:-1", "omega"):
            code, out = run_cli([*argv, "--fn", spec], capsys)
            assert code == 0
            report = json.loads(out)
            assert report.pop("config")["fn"] == spec
            reports.append(report)
        assert reports[0] == reports[1]

    def test_compare_predicts_one_function_once(self, monkeypatch, capsys):
        # omega and const:1 share f on the primes: one prediction per reading
        calls, prime_power_sum = [], prime_sums.prime_power_sum

        def spy(*args):
            calls.append(args)
            return prime_power_sum(*args)

        monkeypatch.setattr(prime_sums, "prime_power_sum", spy)
        code, out = run_cli(["compare", "--n", "1000", "--fn-star", "omega", "--fn", "const:1",
                             "--ext", "complete"], capsys)
        assert code == 0 and [args[-1] for args in calls] == ["restricted", "density"]
        report = json.loads(out)
        assert report["predictions_f"] == report["predictions_f_star"]
        assert set(report["predictions_f"]) == {"restricted_sum", "density_sum"}


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
        # --format is an unknown flag where no CSV schema exists, refused
        # at parse time before any work
        for argv in (["moments", "--mod", "4", "--res", "1", "--n", "30", "--fn", "omega"],
                     ["sieve", "--limit", "30"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--format", "csv"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1

    def test_format_offered_only_with_a_csv_schema(self):
        offered = set()
        for name, p in _subparsers(build_parser()).items():
            for sub_name, sub in _subparsers(p).items() or [(None, p)]:
                if "--format" in sub._option_string_actions:
                    offered.add(name if sub_name is None else f"{name} {sub_name}")
        assert offered == {"sum", "asymptotic", "classify", "probe", "ektest"}

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
        assert sorted(tmp_path.iterdir()) == [spill, tmp_path / "values.f64.json"]

    @pytest.mark.parametrize("argv", [
        ["moments", "--fn", "sqrtloglog", "--n", "1e3"],
        ["model", "sample", "--n", "1e3", "--fn", "const:1", "--trials", "100"],
    ], ids=["sweep", "sample"])
    def test_spill_rerun_gives_identical_bytes(self, argv, tmp_path, capsys):
        spill, sidecar = tmp_path / "values.f64", tmp_path / "values.f64.json"
        assert main([*argv, "--spill", str(spill)]) == 0
        first = spill.read_bytes(), sidecar.read_bytes()
        assert main([*argv, "--spill", str(spill)]) == 0
        assert (spill.read_bytes(), sidecar.read_bytes()) == first
        assert sorted(tmp_path.iterdir()) == [spill, sidecar]

    def test_failed_sweep_keeps_the_previous_spill(self, tmp_path, capsys):
        spill, sidecar = tmp_path / "values.f64", tmp_path / "values.f64.json"
        assert main(["moments", "--fn", "sqrtloglog", "--n", "1e3", "--spill", str(spill)]) == 0
        before = spill.read_bytes(), sidecar.read_bytes()
        assert main(["moments", "--n", "100", "--fn", "tab:5=1", "--spill", str(spill)]) == 1
        assert (spill.read_bytes(), sidecar.read_bytes()) == before
        assert sorted(tmp_path.iterdir()) == [spill, sidecar]

    def test_sieve_file_matches_monolithic_sieve(self, tmp_path, sieve_geometry, capsys):
        sieve_geometry(chunk=1000)  # about ten blocks
        out_file = tmp_path / "primes.txt"
        argv = ["sieve", "--limit", "1e5", "--mod", "4", "--res", "3", "--out", str(out_file)]
        assert main(argv) == 0
        primes = primes_upto_monolithic(10**5)
        want = "".join(f"{p}\n" for p in primes[primes % 4 == 3].tolist())
        assert out_file.read_bytes() == want.encode()
        assert list(tmp_path.iterdir()) == [out_file]

    def test_sieve_text_is_made_in_small_slices(self, tmp_path):
        # formatting a cached chunk of 2^18 primes whole peaked at about 28 MB
        # of Python ints and strs; blocks of 2^16 primes peak near 8 MB
        primes = sieve_primes(4 * 10**6)  # the cache is warm before tracing
        out_file = tmp_path / "primes.txt"
        tracemalloc.start()
        try:
            assert main(["sieve", "--limit", "4e6", "--out", str(out_file)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20, peak
        assert out_file.read_bytes() == "".join(f"{p}\n" for p in primes.tolist()).encode()

    def test_fifteen_significant_digits(self, capsys):
        _, out = run_cli(
            ["sum", "--mod", "1", "--res", "0", "--x", "1e4", "--fn", "const:1"],
            capsys,
        )
        value = json.loads(out)["exact_sum"]
        assert value == pytest.approx(float(f"{value:.15g}"), abs=0)


class TestNonFiniteReports:
    """A non-finite value is not JSON: the run exits 1 with one line naming
    the field, writes nothing and prints no warning."""

    @pytest.mark.parametrize("argv, field, counted", [
        (["sum", "--fn", "const:1e300", "--u", "2", "--x", "1e5"], "exact_sum", False),
        (["sum", "--fn", "const:1e300", "--u", "2", "--x", "3e6"], "exact_sum", True),
        (["sum", "--fn", "const:-1e300", "--u", "3", "--x", "3e6", "--format", "csv"],
         "exact_sum", True),
        (["model", "exact", "--fn", "const:1e200", "--n", "1e4"], "kappa[1]", False),
    ], ids=["sieve_route", "counting_route", "counting_route_csv", "model_exact"])
    def test_refused_with_one_line(self, argv, field, counted, tmp_path, monkeypatch, capsys):
        tables, build = [], counting.class_tables

        def spy(*args):
            tables.append(args)
            return build(*args)

        monkeypatch.setattr(counting, "class_tables", spy)
        out_file = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--out", str(out_file)])
        assert code == 1 and bool(tables) is counted
        err = capsys.readouterr().err
        assert err.startswith(f"error: report field {field} ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestSumPastTheSieveCeiling:
    def test_counting_route_runs_past_the_sieve_ceiling(self, monkeypatch, capsys):
        # a stand-in ceiling of 10^6 for 2^34; the counted route takes x to 10^12
        monkeypatch.setattr("apmoments.cli.SIEVE_CEILING", 10**6)
        code, out = run_cli(["sum", "--fn", "const:1", "--x", "3e6"], capsys)
        assert code == 0 and json.loads(out)["term_count"] == 216_816  # pi(3 10^6)
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--fn", "const:1", "--mod", "3", "--res", "1", "--x", "3e6"])
        assert exc.value.code == 2  # outside the cost rule: the sieve, and its ceiling

    @pytest.mark.parametrize("argv", [
        ["sum", "--fn", "const:1", "--x", "2e12"],
        ["sum", "--fn", "invloglog", "--x", "2e10"],
        ["sum", "--fn", "const:1", "--mod", "60", "--res", "1", "--x", "2e10"],
    ], ids=["past_the_counting_ceiling", "not_constant", "outside_the_rule"])
    def test_other_sums_past_two_to_the_34_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --x:") and err.count("\n") == 1


class TestModelExactPastTheSieveCeiling:
    """model exact counts the primes past y = n // (n // 10^6) for f constant
    there; past the sieve ceiling only that route runs, up to the counting
    ceiling.  A stand-in sieve ceiling of 10^7 keeps the tables small."""

    def test_counted_route_runs_past_the_sieve_ceiling(self, monkeypatch, capsys):
        monkeypatch.setattr("apmoments.cli.SIEVE_CEILING", 10**7)
        argv = ["model", "exact", "--fn", "const:1", "--mod", "4", "--res", "1", "--n", "2e7"]
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["term_count"] == sieve_primes(2 * 10**7, Progression(4, 1)).size

    @pytest.mark.parametrize("argv, counting_ceiling", [
        (["--fn", "sqrtloglog", "--n", "2e7"], None),
        (["--fn", "const:1", "--p0", "1000003", "--n", "2e7"], None),
        (["--fn", "const:1", "--mod", "7", "--res", "1", "--n", "2e7"], None),
        (["--fn", "const:1", "--n", "2e7"], 10**7),
    ], ids=["not_constant", "p0_past_y", "outside_the_rule", "past_the_counting_ceiling"])
    def test_every_other_case_is_a_usage_error(self, argv, counting_ceiling, monkeypatch, capsys):
        monkeypatch.setattr("apmoments.cli.SIEVE_CEILING", 10**7)
        if counting_ceiling is not None:
            monkeypatch.setattr("apmoments.counting.COUNTING_CEILING", counting_ceiling)
        with pytest.raises(SystemExit) as exc:
            main(["model", "exact", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        bound = "counting ceiling 10000000" if counting_ceiling else "sieve limit"
        assert err.startswith("error: argument --n: ") and bound in err and err.count("\n") == 1


class TestModelLindebergPastTheSieveCeiling:
    """model lindeberg is gated as model exact is: past the sieve ceiling (a
    stand-in of 10^7) only the counted route runs."""

    def test_counted_route_runs_past_the_sieve_ceiling(self, monkeypatch, capsys):
        monkeypatch.setattr("apmoments.cli.SIEVE_CEILING", 10**7)
        argv = ["model", "lindeberg", "--fn", "const:1", "--mod", "4", "--res", "1",
                "--n", "2e7", "--epsilon", "0.5"]
        code, out = run_cli(argv, capsys)
        assert code == 0
        want = math.fsum(1.0 / sieve_primes(2 * 10**7, Progression(4, 1)))
        report = json.loads(out)
        assert report["variance"] == pytest.approx(want, rel=1e-14) and report["ratio"] == 1.0

    @pytest.mark.parametrize("argv", [
        ["--fn", "sqrtloglog", "--n", "2e7"],
        ["--fn", "const:1", "--mod", "7", "--res", "1", "--n", "2e7"],
    ], ids=["not_constant", "outside_the_rule"])
    def test_every_other_case_is_a_usage_error(self, argv, monkeypatch, capsys):
        monkeypatch.setattr("apmoments.cli.SIEVE_CEILING", 10**7)
        with pytest.raises(SystemExit) as exc:
            main(["model", "lindeberg", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --n: sieve limit") and err.count("\n") == 1


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

    def test_equals_form_reads_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("mod=4\nres=1\n")
        argv = ["moments", "--fn", "omega", "--n", "1e4"]
        _, spaced = run_cli([*argv, "--config", str(cfg)], capsys)
        _, joined = run_cli([*argv, f"--config={cfg}"], capsys)
        assert json.loads(joined) == json.loads(spaced)
        assert json.loads(joined)["k"] == 4 and json.loads(joined)["count"] == 2500

    def test_last_of_two_config_files_is_read(self, tmp_path, capsys):
        first, last = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("mod=3\nres=2\n")
        last.write_text("mod=4\nres=1\n")
        _, out = run_cli(["moments", "--fn", "omega", "--n", "1e4",
                          "--config", str(first), f"--config={last}"], capsys)
        report = json.loads(out)
        assert report["config"]["config"] == str(last)
        assert report["k"] == 4 and report["count"] == 2500

    @pytest.mark.parametrize("flags, prefix", [
        (["--conf", "{cfg}"], "--conf"),
        (["--config", "{cfg}", "--mo", "3", "--res", "2"], "--mo"),
    ], ids=["config_prefix", "mod_prefix"])
    def test_abbreviated_flag_is_usage_error(self, flags, prefix, tmp_path, capsys):
        # a prefix is no flag: neither --conf for --config nor --mo for --mod
        cfg = tmp_path / "m.cfg"
        cfg.write_text("mod=4\nres=1\n")
        argv = ["moments", "--fn", "omega", "--n", "1e4", *(f.format(cfg=cfg) for f in flags)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"unrecognized arguments: {prefix} " in err

    def test_missing_config_file(self, capsys):
        code = main(["sum", "--config", "/nonexistent/path.cfg", "--x", "10",
                     "--fn", "const:1"])
        assert code == 2


def _readme_cli_lines():
    """The `apmoments ...` lines of README's CLI block, each optional
    `[--flag value]` taken both without and with it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = []
    for line in block.splitlines():
        if line.startswith("apmoments "):
            bare = re.sub(r"\s*\[[^\]]*\]", "", line)
            full = re.sub(r"\[([^\]]*)\]", r"\1", line)
            lines += [bare] if bare == full else [bare, full]
    return lines


class TestReadme:
    @pytest.mark.parametrize("line", _readme_cli_lines())
    def test_cli_example_parses(self, line):
        build_parser().parse_args(line.split()[1:])

    def test_every_subcommand_has_an_example(self):
        shown = {line.split()[1] for line in _readme_cli_lines()}
        assert shown == set(_subparsers(build_parser()))
