import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from paper_formulas import alpha_d_sq

from symclone.cli import main
from symclone.cloner import clone_amplitudes
from symclone.oracle import ginibre_sym_operator
from symclone.serialize import (
    BASIS_TAG,
    FormatError,
    fmt_float,
    fmt_fraction,
    read_sym_operator,
    sym_operator_from_dict,
    sym_operator_to_dict,
    write_amplitudes_csv,
    write_sym_operator,
    write_tables_csv,
)
from symclone.symspace import enumerate_basis, reduce_one, sym_operator


def random_operator(d=2, m=2, seed=0):
    return ginibre_sym_operator(d, m, np.random.default_rng(seed))


class TestOperatorDocument:
    def test_round_trip_in_memory(self):
        op = random_operator()
        back = sym_operator_from_dict(sym_operator_to_dict(op))
        assert np.array_equal(back.entries, op.entries)

    def test_round_trip_through_file(self, tmp_path):
        op = random_operator(d=3, m=1, seed=4)
        path = tmp_path / "op.json"
        write_sym_operator(path, op)
        back = read_sym_operator(path)
        assert np.array_equal(back.entries, op.entries)
        doc = json.loads(path.read_text())
        assert doc["basis"] == BASIS_TAG
        assert len(doc["entries"]) == 9

    def test_extra_keys_are_ignored_by_reader(self, tmp_path):
        op = random_operator()
        path = tmp_path / "op.json"
        write_sym_operator(path, op, extra={"reduced": [[1.0, 0.0]]})
        back = read_sym_operator(path)
        assert np.array_equal(back.entries, op.entries)

    def test_rejects_wrong_basis_tag(self):
        doc = sym_operator_to_dict(random_operator())
        doc["basis"] = "lex_increasing"
        with pytest.raises(FormatError):
            sym_operator_from_dict(doc)

    def test_rejects_wrong_entry_count(self):
        doc = sym_operator_to_dict(random_operator())
        doc["entries"] = doc["entries"][:-1]
        with pytest.raises(FormatError):
            sym_operator_from_dict(doc)

    def test_rejects_missing_key(self):
        doc = sym_operator_to_dict(random_operator())
        del doc["m"]
        with pytest.raises(FormatError):
            sym_operator_from_dict(doc)

    def test_rejects_bad_scalars(self):
        doc = sym_operator_to_dict(random_operator())
        for bad_d in (1, "2", True):
            broken = dict(doc, d=bad_d)
            with pytest.raises(FormatError):
                sym_operator_from_dict(broken)
        with pytest.raises(FormatError):
            sym_operator_from_dict(dict(doc, m=-1))

    def test_rejects_malformed_pairs(self):
        doc = sym_operator_to_dict(random_operator())
        doc["entries"][0] = [1.0]
        with pytest.raises(FormatError):
            sym_operator_from_dict(doc)
        doc["entries"][0] = [1.0, "zero"]
        with pytest.raises(FormatError):
            sym_operator_from_dict(doc)

    def test_rejects_non_finite_pairs(self):
        doc = sym_operator_to_dict(random_operator())
        for bad in (float("nan"), float("inf"), -float("inf"), 10**400):
            doc["entries"][1] = [0.0, bad]
            with pytest.raises(FormatError, match="entry 1"):
                sym_operator_from_dict(doc)

    def test_writer_refuses_non_finite_values(self, tmp_path):
        path = tmp_path / "op.json"
        op = sym_operator(2, 1, np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(FormatError):
            write_sym_operator(path, op)
        with pytest.raises(FormatError):
            write_sym_operator(path, random_operator(), extra={"oracle_residual": float("inf")})
        assert not path.exists()

    # (2, 69) is a 70 x 70 operator
    @pytest.mark.parametrize("d, m", [(2, 0), (2, 1), (3, 2), (2, 69)])
    @pytest.mark.parametrize("extras", [(), ("reduced",), ("reduced", "oracle_residual")])
    def test_writer_has_the_bytes_of_the_indenting_encoder(self, d, m, extras, tmp_path):
        # an indent turns json's C encoder off, so the writer sends each list
        # of [re, im] float pairs through it without spaces and lays the text
        # out by string replaces: both encoders write float.__repr__
        e = np.array(random_operator(d, m, seed=d + m).entries)
        e[0, -1] = complex(-0.0, 1e-300)
        op = sym_operator(d, m, e)
        extra = {
            "reduced": sym_operator_to_dict(reduce_one(op))["entries"] if m else [[-0.0, 0.5]],
            "oracle_residual": 2.5e-17,
        }
        extra = {key: extra[key] for key in extras}
        path = tmp_path / "op.json"
        write_sym_operator(path, op, extra=extra or None)
        doc = {**sym_operator_to_dict(op), **extra}
        want = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("where, value", [
        ("entries", float("nan")), ("entries", float("-inf")),
        ("reduced", float("inf")), ("oracle_residual", float("nan")),
    ])
    def test_writer_names_the_non_finite_value(self, where, value, tmp_path):
        path = tmp_path / "op.json"
        e = np.array(random_operator().entries)
        if where == "entries":
            e[1, 2] = complex(0.5, value)
        op, extra = sym_operator(2, 2, e), {"reduced": [[1.0, 0.0]] * 4, "oracle_residual": 0.0}
        if where == "reduced":
            extra["reduced"] = [[1.0, 0.0], [value, 0.0]]
        elif where == "oracle_residual":
            extra["oracle_residual"] = value
        message = f"cannot write {path}: Out of range float values are not JSON compliant: {value!r}"
        with pytest.raises(FormatError) as refused:
            write_sym_operator(path, op, extra=extra)
        assert str(refused.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("batch", [0, 1, 2])
    def test_writers_refuse_a_stack(self, batch, tmp_path):
        stack = ginibre_sym_operator(2, 2, np.random.default_rng(batch), count=batch)
        path = tmp_path / "op.json"
        with pytest.raises(FormatError, match="one operator"):
            sym_operator_to_dict(stack)
        with pytest.raises(FormatError, match="one operator"):
            write_sym_operator(path, stack)
        assert not path.exists()

    @pytest.mark.parametrize("batch", [0, 1, 3])
    def test_reduction_pairs_refuse_a_stack(self, batch):
        # the CLI's --reduced pairs are the reduction's document entries
        stack = ginibre_sym_operator(2, 2, np.random.default_rng(batch), count=batch)
        with pytest.raises(FormatError, match="one operator"):
            sym_operator_to_dict(reduce_one(stack))
        assert len(sym_operator_to_dict(reduce_one(random_operator()))["entries"]) == 4

    def test_rejects_non_object_document(self):
        with pytest.raises(FormatError):
            sym_operator_from_dict([1, 2, 3])

    def test_rejects_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            read_sym_operator(path)


class TestCsv:
    def test_amplitude_rows(self, tmp_path):
        path = tmp_path / "amps.csv"
        write_amplitudes_csv(path, clone_amplitudes(2, 1, 2))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        squares = [
            Fraction(int(r["alpha_squared_numerator"]), int(r["alpha_squared_denominator"]))
            for r in rows
        ]
        assert squares == [Fraction(2, 3), Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)]
        for row, sq in zip(rows, squares):
            assert float(row["alpha_float"]) == math.sqrt(sq)

    # at (2, 20, 150) the reduced numerators pass 2**63
    @pytest.mark.parametrize(
        "d, m, l", [(2, 1, 2), (3, 1, 2), (2, 20, 60), (2, 20, 150), (4, 3, 9), (5, 2, 6)]
    )
    def test_amplitude_csv_matches_alpha_d_sq(self, d, m, l, tmp_path):
        path = tmp_path / "amps.csv"
        write_amplitudes_csv(path, clone_amplitudes(d, m, l))
        lines = [
            "j_composition,k_composition,alpha_squared_numerator,"
            "alpha_squared_denominator,alpha_float"
        ]
        numerators = []
        for j in enumerate_basis(d, m).counts.tolist():
            for k in enumerate_basis(d, l - m).counts.tolist():
                sq = alpha_d_sq(j, k, m, l)
                numerators.append(sq.numerator)
                j_text, k_text = (" ".join(map(str, c)) for c in (j, k))
                lines.append(
                    f"{j_text},{k_text},{sq.numerator},{sq.denominator},"
                    f"{format(math.sqrt(sq), '.17g')}"
                )
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()
        if (d, m, l) == (2, 20, 150):
            assert max(numerators) >= 2**63

    def test_tables_rows(self, tmp_path):
        path = tmp_path / "tables.csv"
        write_tables_csv(path, [(2, 1, 2), (3, 1, 2), (2, 2, 2)])
        with open(path, newline="") as fh:
            rows = {(r["d"], r["n"], r["m"]): r for r in csv.DictReader(fh)}
        assert rows[("2", "1", "2")]["fidelity"] == "5/6"
        assert rows[("2", "1", "2")]["shrink"] == "2/3"
        assert rows[("3", "1", "2")]["fidelity"] == "3/4"
        assert rows[("3", "1", "2")]["shrink"] == "5/8"
        assert rows[("2", "2", "2")]["fidelity"] == "1/1"
        assert rows[("2", "2", "2")]["shrink"] == "1/1"


class TestFormatting:
    def test_float_has_full_precision(self):
        assert fmt_float(2 / 3) == format(2 / 3, ".17g")
        assert float(fmt_float(1 / 3)) == 1 / 3

    def test_fraction(self):
        assert fmt_fraction(Fraction(5, 6)) == "5/6"

    def test_json_floats_round_trip(self, tmp_path):
        op = sym_operator(2, 1, np.array([[1 / 3, 0.1 + 0.2j], [0.1 - 0.2j, 2 / 3]]))
        path = tmp_path / "op.json"
        write_sym_operator(path, op)
        back = read_sym_operator(path)
        assert np.array_equal(back.entries, op.entries)


WRITERS = {
    "operator": lambda path: write_sym_operator(path, random_operator(), extra={"note": 1.5}),
    "amplitudes": lambda path: write_amplitudes_csv(path, clone_amplitudes(3, 2, 4)),
    "tables": lambda path: write_tables_csv(path, [(2, 1, 2), (3, 1, 2)]),
    "report": lambda path: main(["verify", "concat", "--quick", "--out", str(path)]),
}


class TestRewrite:
    """Writing over a longer existing file gives the bytes of a fresh write."""

    @pytest.mark.parametrize("writer", WRITERS)
    def test_rewrite_gives_the_bytes_of_a_fresh_write(self, writer, tmp_path, capsys):
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        WRITERS[writer](fresh)
        old.write_bytes(b"x" * (fresh.stat().st_size + 4096))
        old.chmod(0o640)
        for _ in range(2):
            WRITERS[writer](old)
            assert old.read_bytes() == fresh.read_bytes()
        assert old.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "old"]
