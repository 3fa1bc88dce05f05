"""Serialization of results to JSON documents, CSV tables, and SVG.

All writers are deterministic: floats are rendered with a fixed format,
JSON keys are sorted, and provenance carries the tool version, command,
and resolved configuration but never a timestamp.  NaN is rendered as an
empty CSV cell and as ``null`` in JSON.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .game import StrategyPair

__all__ = [
    "FLOAT_FORMAT",
    "Table",
    "OutputBundle",
    "to_jsonable",
    "format_cell",
    "probe_writable",
]

FLOAT_FORMAT = "%.6f"


def to_jsonable(obj: Any) -> Any:
    """Convert library objects to JSON-serializable structures.

    Dataclasses become dicts, enums their values, strategy pairs their
    labels, complex numbers ``{"re", "im"}`` pairs, NaN/inf become None.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, complex):
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, StrategyPair):
        return obj.label()
    if isinstance(obj, np.ndarray):
        return [to_jsonable(item) for item in obj.tolist()]
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Mapping):
        return {_key_to_str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, frozenset, set)):
        items = list(obj)
        if isinstance(obj, (frozenset, set)):
            items = sorted(items, key=repr)
        return [to_jsonable(item) for item in items]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _key_to_str(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, enum.Enum):
        return str(key.value)
    if isinstance(key, StrategyPair):
        return key.label()
    if isinstance(key, float):
        return repr(key)
    return str(key)


def format_cell(value: Any) -> str:
    """Render one CSV cell; NaN and None become the empty string."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return ""
        return FLOAT_FORMAT % value
    if isinstance(value, enum.Enum):
        return str(value.value)
    return str(value)


@dataclass(frozen=True)
class Table:
    """One named CSV table: a header and homogeneous rows."""

    name: str
    header: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    def render(self, provenance_lines: Sequence[str] = ()) -> str:
        buffer = io.StringIO()
        for line in provenance_lines:
            buffer.write(f"# {line}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.header)
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValueError(
                    f"table {self.name}: row width {len(row)} != "
                    f"header width {len(self.header)}"
                )
            writer.writerow([format_cell(cell) for cell in row])
        return buffer.getvalue()


@dataclass
class OutputBundle:
    """Everything one command produced, ready to write or print.

    ``documents`` map name -> JSON-serializable dict, ``tables`` map
    name -> Table, ``graphics`` map name -> SVG text.  Provenance lines
    are prefixed to every CSV table and embedded in every document.
    """

    provenance: Mapping[str, Any]
    documents: dict[str, Any] = field(default_factory=dict)
    tables: dict[str, Table] = field(default_factory=dict)
    graphics: dict[str, str] = field(default_factory=dict)

    def add_document(self, name: str, payload: Any) -> None:
        _add(self.documents, name, payload)

    def add_table(self, table: Table) -> None:
        _add(self.tables, table.name, table)

    def add_graphic(self, name: str, svg_text: str) -> None:
        _add(self.graphics, name, svg_text)

    def _provenance_lines(self) -> list[str]:
        return [
            f"tool: {self.provenance['tool']} {self.provenance['version']}",
            f"command: {self.provenance['command']}",
            "config: " + json.dumps(
                self.provenance["config"], sort_keys=True, separators=(",", ":")
            ),
        ]

    def _artifacts(self) -> Iterator[tuple[str, str]]:
        """Each artifact's file name and text: documents, tables, graphics."""
        for name, payload in self.documents.items():
            body = {"provenance": to_jsonable(self.provenance),
                    "result": to_jsonable(payload)}
            yield f"{name}.json", json.dumps(
                body, indent=2, sort_keys=True, allow_nan=False) + "\n"
        lines = self._provenance_lines()
        for name, table in self.tables.items():
            yield f"{name}.csv", table.render(lines)
        for name, svg_text in self.graphics.items():
            yield f"{name}.svg", svg_text + ("" if svg_text.endswith("\n") else "\n")

    def write(self, directory: Path) -> list[Path]:
        """Write every artifact under ``directory``; returns written paths."""
        directory.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for name, text in self._artifacts():
            path = directory / name
            path.write_text(text, encoding="utf-8")
            written.append(path)
        return written

    def render_stdout(self, fmt: str) -> str:
        """Concatenate the ``fmt`` artifacts for stdout when no output
        directory is set."""
        if fmt not in ("json", "csv", "svg"):
            raise ValueError(f"unknown output format: {fmt}")
        return "\n".join(
            f"### {name}\n" + text.rstrip("\n")
            for name, text in self._artifacts() if name.endswith(f".{fmt}")
        ) + "\n"


def _add(artifacts: dict[str, Any], name: str, artifact: Any) -> None:
    """Add ``artifact`` under ``name``; a name already taken raises ValueError."""
    if name in artifacts:
        raise ValueError(f"artifact {name!r} is already in the bundle")
    artifacts[name] = artifact


def probe_writable(directory: Path) -> None:
    """Fail fast if ``directory`` cannot be created or written.

    The directories the probe creates are removed again, deepest first, so
    a run that fails before writing leaves nothing behind.

    Raises
    ------
    OSError
        If the directory cannot be created or a probe file cannot be
        written there.
    """
    missing = [path for path in (directory, *directory.parents) if not path.exists()]
    try:
        directory.mkdir(parents=True, exist_ok=True)
        probe = directory / ".write_probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    finally:
        for path in missing:
            if path.is_dir():
                path.rmdir()
