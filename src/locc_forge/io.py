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
from .measurement import Party, SeparableMeasurement, infer_weights
from .operators import tensor


def complex_matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat, dtype=complex)]


def complex_matrix_from_json(data: Any, where: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise MeasurementFormatError(f"not a numeric matrix ({exc})", where)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise MeasurementFormatError(
            "expected a square matrix of [re, im] pairs", where)
    if not np.isfinite(arr).all():
        raise MeasurementFormatError("entries must be finite", where)
    return np.ascontiguousarray(arr[..., 0] + 1j * arr[..., 1])


def _is_finite_number(x: Any) -> bool:
    """True for a JSON number that converts to a finite float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
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
    if not isinstance(data, dict):
        raise MeasurementFormatError("top level must be an object", "$")
    try:
        raw_parties = data["parties"]
        raw_outcomes = data["outcomes"]
    except KeyError as exc:
        raise MeasurementFormatError(f"missing field {exc}", "$")
    if not isinstance(raw_parties, list) or not raw_parties:
        raise MeasurementFormatError("must be a nonempty list", "parties")
    if not isinstance(raw_outcomes, list) or not raw_outcomes:
        raise MeasurementFormatError("must be a nonempty list", "outcomes")

    parties = []
    for i, p in enumerate(raw_parties):
        where = f"parties[{i}]"
        if not isinstance(p, dict) or "name" not in p or "dim" not in p:
            raise MeasurementFormatError("needs 'name' and 'dim'", where)
        if not isinstance(p["dim"], int) or p["dim"] < 1:
            raise MeasurementFormatError("dim must be a positive integer", where)
        parties.append(Party(str(p["name"]), p["dim"]))

    outcomes = []
    weights = []
    for j, o in enumerate(raw_outcomes):
        where = f"outcomes[{j}]"
        if not isinstance(o, dict) or "factors" not in o:
            raise MeasurementFormatError("needs a 'factors' list", where)
        factors = o["factors"]
        if not isinstance(factors, list) or len(factors) != len(parties):
            raise MeasurementFormatError(
                f"needs exactly {len(parties)} factors", f"{where}.factors")
        mats = [
            complex_matrix_from_json(f, f"{where}.factors[{k}]")
            for k, f in enumerate(factors)
        ]
        for k, (mat, party) in enumerate(zip(mats, parties)):
            if mat.shape[0] != party.dim:
                raise MeasurementFormatError(
                    f"dimension {mat.shape[0]} does not match party "
                    f"{party.name!r} (dim {party.dim})", f"{where}.factors[{k}]")
        label = str(o.get("label", str(j + 1)))
        outcomes.append((label, tuple(mats)))
        w = o.get("weight")
        if w is not None and (not _is_finite_number(w) or w < 0):
            raise MeasurementFormatError("weight must be a finite nonnegative number",
                                         f"{where}.weight")
        weights.append(None if w is None else float(w))

    have = [w is not None for w in weights]
    if all(have):
        weight_vec = np.array(weights, dtype=float)
    elif not any(have):
        ops = np.stack([tensor(fs) for _, fs in outcomes])
        weight_vec = infer_weights(ops)
    else:
        raise MeasurementFormatError(
            "either all outcomes carry a weight or none do", "outcomes")

    try:
        return SeparableMeasurement(parties, outcomes, weight_vec)
    except ValueError as exc:
        raise MeasurementFormatError(str(exc), "$")


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
        elif party_name in name_index:
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
            if leaf["outcome"] not in label_index:
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
    directory; an object is parsed inline.
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
            m = load_measurement(ref_path)
        else:
            m = measurement_from_dict(ref)
    return tree_from_dict(data, m), m


def save_tree(tree: ProtocolNode, m: SeparableMeasurement, path: str,
              measurement_ref: Any = None) -> None:
    _write_json(tree_to_dict(tree, m, measurement_ref), path)
