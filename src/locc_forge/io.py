"""JSON formats for measurements and protocol trees.

Measurements::

    {
      "parties":  [{"name": "A", "dim": 2}, ...],
      "outcomes": [{"label": "0x0",
                    "factors": [<matrix>, ...one per party],
                    "weight": 1.0}, ...]
    }

Protocol trees::

    {
      "measurement_ref": "path-or-inline-object",
      "root": {"party": null | "<party name>",
               "coeffs": [...],
               "leaf": {"outcome": "<label>", "scale": 1.0} | null,
               "children": [...]}
    }

Complex matrices are encoded row-major as arrays of [re, im] pairs.  JSON
floats are emitted with ``repr`` precision, so serialize/parse round-trips
are exact.  The formats are deliberately plain so fixture files can be
audited by eye against their defining operators.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from .engine import ProtocolNode
from .errors import MeasurementFormatError
from .measurement import Party, SeparableMeasurement


def complex_matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat, dtype=complex)]


def complex_matrix_from_json(data: Any, where: str) -> np.ndarray:
    try:
        arr = np.ascontiguousarray(data, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise MeasurementFormatError(f"not a numeric matrix ({exc})", where)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise MeasurementFormatError("expected a matrix of [re, im] pairs", where)
    return arr.view(complex)[..., 0]


def _is_finite_number(x: Any) -> bool:
    """True for a JSON number that converts to a finite float."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:       # an integer beyond the float range
        return False


def measurement_to_dict(m: SeparableMeasurement) -> dict:
    return {
        "parties": [{"name": p.name, "dim": p.dim} for p in m.parties],
        "outcomes": [
            {
                "label": o.label,
                "factors": [complex_matrix_to_json(f) for f in o.factors],
                "weight": float(w),
            }
            for o, w in zip(m.outcomes, m.weights)
        ],
    }


def measurement_from_dict(data: Any) -> SeparableMeasurement:
    """Decode a measurement document, refusing only what does not decode;
    :class:`SeparableMeasurement` refuses every decoded value, in its own
    order, and infers weights absent from every outcome."""
    if not isinstance(data, dict):
        raise MeasurementFormatError("top level must be an object", "$")
    try:
        raw_parties = data["parties"]
        raw_outcomes = data["outcomes"]
    except KeyError as exc:
        raise MeasurementFormatError(f"missing field {exc}", "$")
    for field, value in (("parties", raw_parties), ("outcomes", raw_outcomes)):
        if not isinstance(value, list):
            raise MeasurementFormatError("must be a list", field)

    parties = []
    for i, p in enumerate(raw_parties):
        where = f"parties[{i}]"
        if not isinstance(p, dict) or "name" not in p or "dim" not in p:
            raise MeasurementFormatError("needs 'name' and 'dim'", where)
        if isinstance(p["dim"], bool) or not isinstance(p["dim"], int) or p["dim"] < 1:
            raise MeasurementFormatError("dim must be a positive integer", where)
        parties.append(Party(str(p["name"]), p["dim"]))

    outcomes = []
    weights = []
    for j, o in enumerate(raw_outcomes):
        where = f"outcomes[{j}]"
        if not isinstance(o, dict) or not isinstance(o.get("factors"), list):
            raise MeasurementFormatError("needs a 'factors' list", where)
        outcomes.append((str(o.get("label", str(j + 1))), tuple(
            complex_matrix_from_json(f, f"{where}.factors[{k}]")
            for k, f in enumerate(o["factors"]))))
        w = o.get("weight")     # NaN, inf and negatives are the constructor's to refuse
        if w is not None and not (isinstance(w, float) or _is_finite_number(w)):
            raise MeasurementFormatError("weight must be a float", f"{where}.weight")
        weights.append(w)

    if all(w is None for w in weights):
        weights = None
    elif None in weights:
        raise MeasurementFormatError(
            "either all outcomes carry a weight or none do", "outcomes")
    return SeparableMeasurement(parties, outcomes, weights)


def tree_to_dict(tree: ProtocolNode, m: SeparableMeasurement,
                 measurement_ref: Any = None) -> dict:
    labels = m.labels()

    def encode(node: ProtocolNode) -> dict:
        record: dict[str, Any] = {
            "party": None if node.acting_party is None
            else m.parties[node.acting_party].name,
            "coeffs": [float(c) for c in node.coeffs],
        }
        if node.leaf_outcome is not None:
            j, scale = node.leaf_outcome
            record["leaf"] = {"outcome": labels[j], "scale": float(scale)}
        record["children"] = [encode(c) for c in node.children]
        return record

    doc = {"root": encode(tree)}
    if measurement_ref is not None:
        doc["measurement_ref"] = measurement_ref
    return doc


def tree_from_dict(data: Any, m: SeparableMeasurement) -> ProtocolNode:
    if not isinstance(data, dict) or "root" not in data:
        raise MeasurementFormatError("top level must be an object with 'root'", "$")
    label_index = {label: j for j, label in enumerate(m.labels())}
    name_index = {p.name: i for i, p in enumerate(m.parties)}

    def decode(record: Any, where: str) -> ProtocolNode:
        if not isinstance(record, dict) or "coeffs" not in record:
            raise MeasurementFormatError("node needs a 'coeffs' list", where)
        raw = record["coeffs"]
        if not isinstance(raw, list) or not all(map(_is_finite_number, raw)):
            raise MeasurementFormatError("must be a list of finite numbers",
                                         f"{where}.coeffs")
        coeffs = np.asarray(raw, dtype=float)
        if coeffs.shape != (m.n_outcomes,):
            raise MeasurementFormatError(
                f"expected {m.n_outcomes} coefficients", f"{where}.coeffs")
        party_name = record.get("party")
        if party_name is None:
            party = None
        elif isinstance(party_name, str) and party_name in name_index:
            party = name_index[party_name]
        else:
            raise MeasurementFormatError(f"unknown party {party_name!r}",
                                         f"{where}.party")
        leaf = record.get("leaf")
        leaf_outcome = None
        if leaf is not None:
            if not isinstance(leaf, dict) or "outcome" not in leaf or "scale" not in leaf:
                raise MeasurementFormatError("leaf needs 'outcome' and 'scale'",
                                             f"{where}.leaf")
            if not isinstance(leaf["outcome"], str) or leaf["outcome"] not in label_index:
                raise MeasurementFormatError(
                    f"unknown outcome label {leaf['outcome']!r}",
                    f"{where}.leaf.outcome")
            scale = leaf["scale"]
            if not _is_finite_number(scale) or scale <= 0:
                raise MeasurementFormatError("scale must be a finite positive number",
                                             f"{where}.leaf.scale")
            leaf_outcome = (label_index[leaf["outcome"]], float(scale))
        raw_children = record.get("children", [])
        if not isinstance(raw_children, list):
            raise MeasurementFormatError("must be a list", f"{where}.children")
        children = tuple(decode(c, f"{where}.children[{i}]")
                         for i, c in enumerate(raw_children))
        return ProtocolNode(coeffs, party, children, leaf_outcome)

    return decode(data["root"], "root")


# -- file helpers ----------------------------------------------------------


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise MeasurementFormatError(
            f"invalid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}",
            path)


def _write_json(doc: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_measurement(path: str) -> SeparableMeasurement:
    return measurement_from_dict(_read_json(path))


def save_measurement(m: SeparableMeasurement, path: str) -> None:
    _write_json(measurement_to_dict(m), path)


def load_tree(path: str, m: SeparableMeasurement | None = None
              ) -> tuple[ProtocolNode, SeparableMeasurement]:
    """Load a protocol tree, resolving its measurement if not supplied.

    A string ``measurement_ref`` is resolved relative to the tree file's
    directory; an object is parsed inline.  An error in an inline
    measurement is located at ``measurement_ref.<path>``, and one in a
    referenced file names that file: ``<file>: <path>``.
    """
    data = _read_json(path)
    if m is None:
        ref = data.get("measurement_ref") if isinstance(data, dict) else None
        if ref is None:
            raise MeasurementFormatError(
                "no measurement supplied and no measurement_ref present", path)
        if isinstance(ref, str):
            ref_path = ref if os.path.isabs(ref) else os.path.join(
                os.path.dirname(os.path.abspath(path)), ref)
            doc, outer, sep = _read_json(ref_path), ref_path, ": "
        elif isinstance(ref, dict):
            doc, outer, sep = ref, "measurement_ref", "."
        else:
            raise MeasurementFormatError("must be a file path or a measurement object",
                                         "measurement_ref")
        try:
            m = measurement_from_dict(doc)
        except MeasurementFormatError as exc:
            inner = "" if exc.location == "$" else sep + exc.location
            raise exc.relocated(outer + inner) from None
    return tree_from_dict(data, m), m


def save_tree(tree: ProtocolNode, m: SeparableMeasurement, path: str,
              measurement_ref: Any = None) -> None:
    _write_json(tree_to_dict(tree, m, measurement_ref), path)
