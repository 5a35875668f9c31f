"""Dataset persistence: CSV rows + JSON schema sidecars.

A microdata DB round-trips through two files:

* ``<name>.csv`` — the rows, with labelled nulls serialized as
  ``#NULL:<label>`` so suppression survives the round trip;
* ``<name>.schema.json`` — attribute order, categories, descriptions.

Numeric cells are stored as-is and re-parsed on load (int, then float,
then string), which is sufficient for the banded categorical survey
data this framework targets.
"""

from __future__ import annotations

import csv
import errno
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .errors import SchemaError
from .model.microdata import MicrodataDB
from .model.schema import AttributeCategory, MicrodataSchema
from .vadalog.terms import LabelledNull

_NULL_PREFIX = "#NULL:"


def _encode_cell(value: Any) -> str:
    if isinstance(value, LabelledNull):
        return f"{_NULL_PREFIX}{value.label}"
    return "" if value is None else str(value)


def _decode_cell(text: str, column_type: Optional[str] = None) -> Any:
    if text.startswith(_NULL_PREFIX):
        return LabelledNull(int(text[len(_NULL_PREFIX):]))
    if column_type == "str":
        return text
    if column_type == "int":
        return int(text)
    if column_type == "float":
        return float(text)
    # No type hint: best-effort auto-parse, refusing lossy conversions
    # (leading zeros, '+' signs) so identifiers survive the roundtrip.
    try:
        value = int(text)
        if str(value) == text:
            return value
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _infer_column_type(db: MicrodataDB, attribute: str) -> str:
    """Infer a column's storage type from its non-null values."""
    seen_float = False
    for row in db.rows:
        value = row[attribute]
        if isinstance(value, LabelledNull) or value is None:
            continue
        if isinstance(value, bool) or isinstance(value, str):
            return "str"
        if isinstance(value, float):
            seen_float = True
        elif not isinstance(value, int):
            return "str"
    return "float" if seen_float else "int"


def schema_to_dict(schema: MicrodataSchema) -> Dict:
    """Serialize a schema to a JSON-compatible dict."""
    return {
        "attributes": [
            {
                "name": name,
                "category": str(schema.categories[name]),
                "description": schema.descriptions.get(name, ""),
            }
            for name in schema.attributes
        ]
    }


def schema_from_dict(payload: Dict) -> MicrodataSchema:
    """Rebuild a schema from :func:`schema_to_dict` output."""
    try:
        entries = payload["attributes"]
    except (KeyError, TypeError):
        raise SchemaError("schema payload misses 'attributes'") from None
    names: List[str] = []
    categories: Dict[str, AttributeCategory] = {}
    descriptions: Dict[str, str] = {}
    for entry in entries:
        try:
            name = entry["name"]
            label = entry["category"]
        except (KeyError, TypeError):
            raise SchemaError(
                f"schema attribute entry {entry!r} needs a 'name' and a "
                "'category'"
            ) from None
        names.append(name)
        categories[name] = AttributeCategory.from_label(label)
        if entry.get("description"):
            descriptions[name] = entry["description"]
    return MicrodataSchema(names, categories, descriptions)


def save_csv(
    db: MicrodataDB,
    csv_path: Union[str, Path],
    schema_path: Optional[Union[str, Path]] = None,
) -> Path:
    """Write a microdata DB (and its schema sidecar) to disk."""
    csv_path = Path(csv_path)
    if schema_path is None:
        schema_path = csv_path.with_suffix(".schema.json")
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(db.schema.attributes)
        for row in db.rows:
            writer.writerow(
                [_encode_cell(row[a]) for a in db.schema.attributes]
            )
    payload = schema_to_dict(db.schema)
    payload["types"] = {
        attribute: _infer_column_type(db, attribute)
        for attribute in db.schema.attributes
    }
    with open(schema_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return csv_path


def load_csv(
    csv_path: Union[str, Path],
    schema: Optional[Union[MicrodataSchema, str, Path]] = None,
    name: Optional[str] = None,
) -> MicrodataDB:
    """Load a microdata DB from CSV plus schema (object, path, or the
    default ``<csv>.schema.json`` sidecar).

    Malformed input raises :class:`~repro.errors.SchemaError` naming
    the file (and ``file:line`` for a bad row): a row whose field
    count differs from the header's, a cell its column type cannot
    parse, text that is not UTF-8 or not CSV, and — via
    :class:`MicrodataDB` — a weight that is not a positive number."""
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise FileNotFoundError(
            errno.ENOENT, "dataset CSV not found", str(csv_path)
        )
    if schema is None:
        schema = csv_path.with_suffix(".schema.json")
    types: Dict[str, str] = {}
    if not isinstance(schema, MicrodataSchema):
        schema_file = Path(schema)
        if not schema_file.exists():
            raise SchemaError(
                f"schema file {schema_file} not found; pass a "
                "MicrodataSchema or a JSON sidecar path"
            )
        try:
            with open(schema_file, encoding="utf-8") as handle:
                payload = json.load(handle)
        except ValueError as error:  # JSON or UTF-8 decoding
            raise SchemaError(
                f"schema file {schema_file} is not valid JSON: {error}"
            ) from None
        schema = schema_from_dict(payload)
        types = payload.get("types", {})
    with open(csv_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
            missing = [a for a in schema.attributes if a not in header]
            if missing:
                raise SchemaError(
                    f"CSV header misses schema attribute(s): {missing}"
                )
            rows = [
                _decode_row(header, record, schema.attributes, types)
                for record in reader
            ]
        except StopIteration:
            raise SchemaError(f"{csv_path} is empty") from None
        except (csv.Error, UnicodeDecodeError, SchemaError) as error:
            raise SchemaError(
                f"{csv_path}:{reader.line_num}: {error}"
            ) from None
    return MicrodataDB(name or csv_path.stem, schema, rows)


def _decode_row(
    header: List[str],
    record: List[str],
    attributes: Sequence[str],
    types: Dict[str, str],
) -> Dict[str, Any]:
    """One CSV record as a row over ``attributes``."""
    if len(record) != len(header):
        raise SchemaError(
            f"expected {len(header)} fields as in the header, "
            f"got {len(record)}"
        )
    values = dict(zip(header, record))
    row = {}
    for attribute in attributes:
        try:
            row[attribute] = _decode_cell(
                values[attribute], types.get(attribute)
            )
        except ValueError:
            raise SchemaError(
                f"cannot parse {values[attribute]!r} in column "
                f"{attribute!r}"
            ) from None
    return row
