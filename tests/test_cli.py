import csv
import json
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import traced_peak

from symclone import cli, cloner, verify
from symclone.cli import main
from symclone.cloner import CloneOutput
from symclone.serialize import sym_operator_to_dict, write_sym_operator
from symclone.symspace import SymOperator, basis_projector, reduce_one, sym_operator


def write_pure_input(path):
    write_sym_operator(path, basis_projector((1, 0)))


def nan_channel_output(monkeypatch, name):
    """What CloneOutput's reduction reads, its source and its table, or its
    dense view, with the first entry of each draw's diagonal NaN."""
    exact = getattr(CloneOutput, name)

    def nan_source(self):
        source, table = exact(self)
        entries = source.entries.copy()
        entries[..., 0, 0] = np.nan
        return SymOperator(source.basis, entries), table

    def nan_entries(self):
        entries = exact.func(self).copy()
        entries[..., 0, 0] = np.nan
        return entries

    poisoned = nan_source if name == "_source_and_table" else property(nan_entries)
    monkeypatch.setattr(CloneOutput, name, poisoned)


def assert_every_case_reads_nan(suite, tmp_path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    out = tmp_path / "report.json"
    assert main(["verify", suite, "--quick", "--out", str(out)]) == 1
    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["overall"] == "fail"
    assert not any(case["passed"] for case in report["cases"])
    assert all(case["residual"] == "nan" for case in report["cases"])


class TestCoeffs:
    def test_one_to_two_qubits(self, tmp_path, capsys):
        out = tmp_path / "amps.csv"
        assert main(["coeffs", "--d", "2", "--m", "1", "--l", "2", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        squares = {
            Fraction(int(r["alpha_squared_numerator"]), int(r["alpha_squared_denominator"]))
            for r in rows
        }
        assert squares == {Fraction(2, 3), Fraction(1, 3)}

    def test_no_growth_means_unit_amplitudes(self, tmp_path):
        out = tmp_path / "amps.csv"
        assert main(["coeffs", "--d", "2", "--m", "3", "--l", "3", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # one added composition per input
        assert all(r["alpha_squared_numerator"] == "1" for r in rows)
        assert all(r["alpha_squared_denominator"] == "1" for r in rows)

    def test_qutrit_row_sums(self, tmp_path):
        out = tmp_path / "amps.csv"
        assert main(["coeffs", "--d", "3", "--m", "1", "--l", "2", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        totals = {}
        for r in rows:
            sq = Fraction(
                int(r["alpha_squared_numerator"]), int(r["alpha_squared_denominator"])
            )
            totals[r["j_composition"]] = totals.get(r["j_composition"], Fraction(0)) + sq
        assert all(total == 1 for total in totals.values())

    def test_invalid_parameters_emit_error_json(self, tmp_path, capsys):
        out = tmp_path / "amps.csv"
        code = main(["coeffs", "--d", "2", "--m", "3", "--l", "2", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2
        assert "l >= m" in err["error"]

    def test_vast_table_refused_before_exact_arithmetic(self, tmp_path, capsys):
        # dim(100000, 100000) has about 60,000 digits: taking it exactly costs
        # 0.29 s, and formatting it overruns Python's int-to-str limit
        out = tmp_path / "x.csv"
        argv = ["coeffs", "--d", "100000", "--m", "100000", "--l", "100000", "--out", str(out)]
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and seconds < 1.0 and len(lines) == 1
        err = json.loads(lines[0])
        assert err["code"] == 2 and "amplitude table" in err["error"]
        assert not out.exists()


class TestClone:
    def test_pure_one_to_two(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        write_pure_input(src)
        code = main(
            ["clone", str(src), "--l", "2", "--out", str(dst), "--reduced", "--oracle"]
        )
        assert code == 0
        doc = json.loads(dst.read_text())
        assert doc["d"] == 2 and doc["m"] == 2
        diag = [doc["entries"][0], doc["entries"][4], doc["entries"][8]]
        np.testing.assert_allclose(
            [p[0] for p in diag], [2 / 3, 1 / 3, 0.0], atol=1e-15
        )
        reduced = np.array(doc["reduced"])
        np.testing.assert_allclose(
            reduced[:, 0], [5 / 6, 0.0, 0.0, 1 / 6], atol=1e-12
        )
        assert doc["oracle_residual"] <= 1e-10

    def test_no_growth_copies_entries(self, tmp_path):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        write_pure_input(src)
        assert main(["clone", str(src), "--l", "1", "--out", str(dst)]) == 0
        assert json.loads(src.read_text())["entries"] == json.loads(dst.read_text())["entries"]

    @pytest.mark.parametrize(
        "payload",
        [b"{broken", b"\xff\xfe{}", b"[" * 100000, b'{"d": ' + b"1" * 5000 + b"}"],
        ids=["broken", "not-utf-8", "deep", "long-integer"],
    )
    def test_malformed_document(self, payload, tmp_path, capsys):
        src, dst = tmp_path / "in.json", tmp_path / "o.json"
        src.write_bytes(payload)
        code = main(["clone", str(src), "--l", "2", "--out", str(dst)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["code"] == 2
        assert not dst.exists()

    def test_basis_tag_mismatch(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        doc = sym_operator_to_dict(basis_projector((1, 0)))
        doc["basis"] = "other"
        src.write_text(json.dumps(doc))
        assert main(["clone", str(src), "--l", "2", "--out", str(tmp_path / "o.json")]) == 2

    def test_shrinking_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        write_sym_operator(src, basis_projector((1, 1)))
        assert main(["clone", str(src), "--l", "1", "--out", str(tmp_path / "o.json")]) == 2

    def test_validation_failure_and_override(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        write_sym_operator(src, sym_operator(2, 1, np.diag([0.2, 0.2])))
        assert main(["clone", str(src), "--l", "2", "--out", str(dst)]) == 2
        assert json.loads(capsys.readouterr().err)["code"] == 2
        assert main(["clone", str(src), "--l", "2", "--out", str(dst), "--no-validate"]) == 0

    def test_non_finite_input_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        doc = sym_operator_to_dict(basis_projector((1, 0)))
        doc["entries"][1] = [float("nan"), 0.0]
        src.write_text(json.dumps(doc))  # Python writes the NaN literal
        for extra in ([], ["--no-validate"]):
            assert main(["clone", str(src), "--l", "2", "--out", str(dst)] + extra) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["code"] == 2 and "finite" in err["error"]
        assert not dst.exists()

    def test_oversized_request_rejected_before_enumeration(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        write_sym_operator(src, basis_projector((1, 0, 0)))
        assert main(["clone", str(src), "--l", "2000", "--out", str(dst)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and "guard" in err["error"]
        assert not dst.exists()

    def test_output_beyond_the_dense_guard_rejected_before_writing(self, tmp_path, capsys):
        # 11476**2 entries: the JSON writer would build one list per entry
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        write_sym_operator(src, basis_projector((1, 0, 0)))
        assert main(["clone", str(src), "--l", "150", "--reduced", "--out", str(dst)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and "guard" in err["error"]
        assert not dst.exists()

    def test_oracle_beyond_its_guard_gives_a_short_error(self, tmp_path, capsys):
        # the error may not spell out d**l, which grows with l
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        write_sym_operator(src, basis_projector((1, 0)))
        assert main(["clone", str(src), "--l", "1500", "--oracle", "--out", str(dst)]) == 2
        err = capsys.readouterr().err.strip()
        assert json.loads(err)["code"] == 2 and len(err.encode()) < 200
        assert not dst.exists()

    def test_wide_qudit(self, tmp_path):
        # composition_rank once built C(n, k) up to n = d + m - 2 as int64
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        write_sym_operator(src, basis_projector((1,) + (0,) * 67))
        assert main(["clone", str(src), "--l", "1", "--out", str(dst)]) == 0
        assert json.loads(dst.read_text())["d"] == 68

    @pytest.mark.parametrize(
        "d, m", [(300000, 1), (2, 30000000), (2, 2 * 10**9), (100000, 100000)]
    )
    def test_impossible_size_rejected_before_enumeration(self, d, m, tmp_path, capsys):
        # dim(d, m) >= max(d, m + 1), so no empty entry list fits; the reader
        # says so before it enumerates the basis or takes a large binomial
        # (C(199999, 99999) alone takes seconds)
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"d": d, "m": m, "basis": "lex_decreasing", "entries": []}))
        argv = ["clone", str(src), "--l", str(m + 1), "--out", str(tmp_path / "o.json")]
        start = time.perf_counter()
        code, peak = traced_peak(lambda: main(argv))
        seconds = time.perf_counter() - start
        assert code == 2 and seconds < 1.0 and peak < 1 << 20
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and "entry pairs" in err["error"]

    @pytest.mark.parametrize("d, l", [(300000, 1), (1000, 2)])
    def test_wide_table_rejected_before_enumeration(self, d, l, tmp_path, capsys):
        # the table has at most 500500 entries, but its product and the
        # plan's ranks run over all d levels of each: (300, 0, 2) alone took
        # 1.2 s and 447 MiB, and (300000, 0, 1) ran past 120 s
        src = tmp_path / "in.json"
        doc = {"d": d, "m": 0, "basis": "lex_decreasing", "entries": [[1, 0]]}
        src.write_text(json.dumps(doc))
        argv = ["clone", str(src), "--l", str(l), "--out", str(tmp_path / "o.json")]
        start = time.perf_counter()
        code, peak = traced_peak(lambda: main(argv))
        seconds = time.perf_counter() - start
        # beyond the input's own (1, d) basis row, which the reader enumerates
        assert code == 2 and seconds < 1.0 and peak < (1 << 20) + 8 * d
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and "amplitude table" in err["error"]

    def test_absurd_level_count_rejected_before_enumeration(self, tmp_path, capsys):
        # the reader enumerates the input's basis; a (1, 10**12) basis row
        # would take 7.28 TiB, so the basis guard refuses it first
        src = tmp_path / "in.json"
        doc = {"d": 10**12, "m": 0, "basis": "lex_decreasing", "entries": [[1, 0]]}
        src.write_text(json.dumps(doc))
        argv = ["clone", str(src), "--l", "0", "--out", str(tmp_path / "o.json")]
        start = time.perf_counter()
        code, peak = traced_peak(lambda: main(argv))
        seconds = time.perf_counter() - start
        assert code == 2 and seconds < 1.0 and peak < 1 << 20
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and "entries times levels" in err["error"]
        assert not (tmp_path / "o.json").exists()

    def test_reduces_the_output_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(op):
            calls.append(op)
            return reduce_one(op)

        monkeypatch.setattr(cli, "reduce_one", counting)
        src = tmp_path / "in.json"
        write_pure_input(src)
        argv = ["clone", str(src), "--l", "3", "--reduced", "--oracle"]
        assert main(argv + ["--out", str(tmp_path / "o.json")]) == 0
        assert len(calls) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(
            ["clone", str(tmp_path / "nope.json"), "--l", "2", "--out", str(tmp_path / "o.json")]
        )
        assert code == 2


class TestTables:
    def test_grid(self, tmp_path):
        out = tmp_path / "tables.csv"
        assert main(["tables", "--d", "2:3", "--n", "1:2", "--m", "1:4", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = {(r["d"], r["n"], r["m"]): r for r in csv.DictReader(fh)}
        assert all(int(n) <= int(m) for _, n, m in rows)
        assert rows[("2", "1", "2")]["fidelity"] == "5/6"
        assert rows[("3", "1", "2")]["shrink"] == "5/8"
        assert rows[("2", "2", "2")]["fidelity"] == "1/1"

    def test_empty_grid_fails(self, tmp_path, capsys):
        out = tmp_path / "tables.csv"
        code = main(["tables", "--d", "2", "--n", "3:4", "--m", "1:2", "--out", str(out)])
        assert code == 2
        assert "empty" in json.loads(capsys.readouterr().err)["error"]

    def test_oversized_grid_rejected_before_building(self, tmp_path, capsys):
        out = tmp_path / "tables.csv"
        assert main(["tables", "--m", "1:100000000", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2 and "guard" in err["error"]
        assert not out.exists()

    @pytest.mark.parametrize("ranges", [
        ["--d", "2:100000000000000000000000"],
        [f"--{name}" if i % 2 == 0 else "1:" + "9" * 4000 for name in "dnm" for i in range(2)],
    ])
    def test_vast_range_rejected_before_counting_its_points(self, ranges, tmp_path, capsys):
        # a range past sys.maxsize has no len(), and the product of three
        # 4000-digit lengths has more digits than Python formats
        out = tmp_path / "t.csv"
        assert main(["tables", *ranges, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["code"] == 2
        assert not out.exists()

    def test_bad_range_syntax(self, tmp_path, capsys):
        code = main(["tables", "--d", "2", "--n", "x", "--m", "2", "--out", str(tmp_path / "t.csv")])
        assert code == 2


class TestVerify:
    def test_concat_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "concat", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["overall"] == "pass"
        assert all(case["residual"] <= 1e-12 for case in report["cases"])
        stdout = capsys.readouterr().out
        assert "overall=pass" in stdout

    def test_negative_control_fails(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "scaling", "--quick", "--eta-factor", "1.01", "--out", str(out)]
        )
        assert code == 1
        assert json.loads(out.read_text())["overall"] == "fail"

    @pytest.mark.parametrize("suite", ["scaling", "oracle", "concat"])
    def test_nan_injecting_channel_fails_every_case(self, suite, tmp_path, capsys, monkeypatch):
        # concat reaches the channel inside cloner.concatenate and uqcm_pure_output;
        # the scaling and oracle suites clone each case's draws as one stack,
        # so every draw of the stack is poisoned
        exact = cloner.clone_channel

        def nan_channel(op, l):
            out = exact(op, l)
            entries = out.entries.copy()
            entries[..., 0, 0] = np.nan
            return SymOperator(out.basis, entries)

        monkeypatch.setattr(cloner, "clone_channel", nan_channel)
        monkeypatch.setattr(verify, "clone_channel", nan_channel)
        assert_every_case_reads_nan(suite, tmp_path)

    @pytest.mark.parametrize("part", ["_source_and_table", "entries"])
    def test_nan_in_either_oracle_check_fails_every_case(self, part, tmp_path, monkeypatch):
        # each case folds a reduction and a dense check; a NaN in either fails it
        nan_channel_output(monkeypatch, part)
        assert_every_case_reads_nan("oracle", tmp_path)

    @pytest.mark.parametrize("flag", ["--tol", "--eta-factor"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
    def test_non_finite_float_options_rejected(self, flag, value, capsys):
        assert main(["verify", "scaling", "--quick", f"{flag}={value}"]) == 2
        assert "expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "x", "1.5"])
    def test_bad_seed_rejected(self, value, capsys):
        # numpy's default_rng refuses a negative seed with a traceback
        assert main(["verify", "scaling", "--quick", f"--seed={value}"]) == 2
        assert "expected a nonnegative integer" in capsys.readouterr().err

    def test_deterministic_given_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "oracle", "--quick", "--seed", "9", "--out", str(a)]) == 0
        assert main(["verify", "oracle", "--quick", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_puts_suite_in_params(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "all", "--quick", "--seed", "42", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        suites = {case["params"]["suite"] for case in report["cases"]}
        assert suites == {"scaling", "isometry", "concat", "oracle", "covariance"}
        assert all("residual" in case for case in report["cases"])

    def test_tolerance_override_can_force_failure(self, tmp_path, capsys):
        code = main(["verify", "concat", "--quick", "--tol", "1e-30"])
        assert code == 1

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "nonsense"]) == 2

    def test_usage_error_without_subcommand(self, capsys):
        assert main([]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
