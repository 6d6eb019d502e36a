"""One operator per JSON document, {"d", "m", "basis": "lex_decreasing",
"entries": row-major [re, im] pairs}, unknown keys ignored; CSV tables with
17-digit floats and "p/q" rationals."""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np

from .closed_forms import fidelity, shrink
from .cloner import CloneAmplitudes
from .symspace import SymOperator, dim, enumerate_basis

BASIS_TAG = "lex_decreasing"


class FormatError(ValueError):
    """A document does not match the expected schema."""


def fmt_float(x) -> str:
    return format(float(x), ".17g")


def fmt_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def fmt_composition(counts) -> str:
    return " ".join(str(n) for n in counts)


def sym_operator_to_dict(op: SymOperator) -> dict:
    """op's document.  Raises FormatError for a stack."""
    if op.entries.ndim != 2:
        raise FormatError(f"a document holds one operator, got a stack of {len(op.entries)}")
    return {
        "d": op.d,
        "m": op.m,
        "basis": BASIS_TAG,
        # a complex128 entry is its real and imaginary doubles side by side
        "entries": np.ascontiguousarray(op.entries).view(np.float64).reshape(-1, 2).tolist(),
    }


def sym_operator_from_dict(doc) -> SymOperator:
    """The document's operator.  Raises FormatError for a missing key or a
    bad d, m, tag or entry count, before the basis is enumerated, and for an
    entry that is not a finite pair; enumerate_basis's refusals too."""
    if not isinstance(doc, dict):
        raise FormatError("operator document must be a JSON object")
    for key in ("d", "m", "basis", "entries"):
        if key not in doc:
            raise FormatError(f"missing key {key!r}")
    d, m = doc["d"], doc["m"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise FormatError(f"d must be an integer >= 2, got {d!r}")
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise FormatError(f"m must be an integer >= 0, got {m!r}")
    if doc["basis"] != BASIS_TAG:
        raise FormatError(
            f"unsupported basis tag {doc['basis']!r}; expected {BASIS_TAG!r}"
        )
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise FormatError(f"entries must be a list of pairs, got {type(entries).__name__}")
    # dim(d, m) >= max(d, m + 1) for m >= 1: a shorter list is refused before
    # any binomial, and the message prints no size, which may pass str's limit
    count = len(entries)
    if count < (max(d, m + 1) ** 2 if m else 1):
        raise FormatError(f"too few entry pairs for the document's d and m, got {count}")
    n = dim(d, m)
    if count != n * n:
        raise FormatError(f"expected {n * n} entry pairs for (d={d}, m={m}), got {count}")
    flat = np.empty(n * n, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise FormatError(f"entry {i} is not a [re, im] number pair")
        try:
            flat[i] = complex(pair[0], pair[1])
        except OverflowError:  # an integer beyond the float range
            flat[i] = math.inf
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise FormatError(f"entry {bad[0]} is not a finite number pair")
    return SymOperator(enumerate_basis(d, m), flat.reshape(n, n))


def read_sym_operator(path) -> SymOperator:
    """The file's operator.  Raises FormatError for text that is not UTF-8
    JSON or nests too deep, and sym_operator_from_dict's refusals."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # bad UTF-8, bad JSON and an over-long integer are ValueErrors
        except (ValueError, RecursionError) as e:
            raise FormatError(f"invalid JSON in {path}: {e}") from e
    return sym_operator_from_dict(doc)


def write_sym_operator(path, op: SymOperator, extra: dict | None = None) -> None:
    """Write op's document with extra's keys.  Raises FormatError, before
    the file is opened, for a stack or a non-finite value."""
    write_document(path, {**sym_operator_to_dict(op), **(extra or {})})


def write_document(path, doc: dict) -> None:
    """Write json.dumps(doc, indent=2, sort_keys=True) and a newline.  Raises
    FormatError, before the file is opened, for a non-finite value."""
    try:
        text = _document_text(doc)
    except ValueError as e:
        raise FormatError(f"cannot write {path}: {e}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _document_text(doc: dict) -> str:
    """json.dumps(doc, indent=2, sort_keys=True, allow_nan=False), byte for
    byte, for a document with string keys."""
    # an indent turns json's C encoder off: float-pair lists skip the indent
    items = []
    for key in sorted(doc):
        value = doc[key]
        if type(value) is list and value and all(
            type(pair) is list and len(pair) == 2 and type(pair[0]) is type(pair[1]) is float
            for pair in value
        ):
            text = _pairs_text(value)
        else:
            text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
            # its lines sit one level in; a JSON string holds no raw newline
            text = text.replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def _pairs_text(pairs: list) -> str:
    """A non-empty list of [re, im] float pairs as json.dumps(indent=2)
    writes it one level into a document."""
    try:
        flat = json.dumps(pairs, separators=(",", ":"), allow_nan=False)
    except ValueError:
        # the C encoder's message leaves out the value; the indenting one names it
        json.dumps(pairs, indent=2, allow_nan=False)
        raise
    # a float's text holds no comma or bracket: every comma starts a line
    body = flat[2:-2].replace(",", ",\n      ").replace("],\n      [", "\n    ],\n    [\n      ")
    return "[\n    [\n      " + body + "\n    ]\n  ]"


def write_amplitudes_csv(path, amps: CloneAmplitudes) -> None:
    """The table as CSV, a row per (input, added) pair, alpha^2 exact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "j_composition",
                "k_composition",
                "alpha_squared_numerator",
                "alpha_squared_denominator",
                "alpha_float",
            ]
        )
        inputs, added = (
            [fmt_composition(c) for c in enumerate_basis(amps.d, weight).counts.tolist()]
            for weight in (amps.m, amps.l - amps.m)
        )
        # alpha^2 = n / q, reduced as Fraction reduces it; int / int is
        # correctly rounded, so the float has the bits of float(Fraction).
        # int() keeps every step on Python ints, whatever the table's dtype
        q = amps.total
        for j, row in zip(inputs, amps.occupancy):
            for k, occupancy in zip(added, row):
                n = int(occupancy)
                g = math.gcd(n, q)
                writer.writerow([j, k, n // g, q // g, fmt_float(math.sqrt(n / q))])


def write_tables_csv(path, triples) -> None:
    """fidelity and shrink of each (d, n, m) triple as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["d", "n", "m", "fidelity", "fidelity_float", "shrink", "shrink_float"]
        )
        for d, n, m in triples:
            f = fidelity(d, n, m)
            eta = shrink(d, n, m)
            writer.writerow(
                [d, n, m, fmt_fraction(f), fmt_float(f), fmt_fraction(eta), fmt_float(eta)]
            )
