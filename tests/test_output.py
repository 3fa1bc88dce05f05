"""Serialization: JSON conversion, CSV rendering, bundle writing."""

import json
import math

import numpy as np
import pytest

from cyberevo import EquilibriumKind, GameParams, STRATEGY_PAIRS
from cyberevo.output import (
    OutputBundle,
    Table,
    format_cell,
    probe_writable,
    to_jsonable,
)

from test_game import REF


def test_to_jsonable_scalars_and_specials():
    assert to_jsonable(1.5) == 1.5
    assert to_jsonable(math.nan) is None
    assert to_jsonable(math.inf) is None
    assert to_jsonable(True) is True
    assert to_jsonable(complex(1.0, -2.0)) == {"re": 1.0, "im": -2.0}
    assert to_jsonable(EquilibriumKind.E4) == "E4"
    assert to_jsonable(STRATEGY_PAIRS[3]) == "Defence,Attack"
    assert to_jsonable(np.float64(0.25)) == 0.25
    # numpy integers and bools are not int or bool, and take the np.generic path.
    assert type(to_jsonable(np.int64(7))) is int and to_jsonable(np.int64(7)) == 7
    assert to_jsonable(np.bool_(True)) is True
    assert to_jsonable(np.arange(3)) == [0, 1, 2]
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_to_jsonable_containers_and_dataclasses():
    params = GameParams(**REF)
    as_dict = to_jsonable(params)
    assert as_dict["w"] == 0.98
    assert as_dict["fine_successful"] == 0.0
    mapping = to_jsonable({EquilibriumKind.E2: 3, STRATEGY_PAIRS[0]: 1.0})
    assert mapping == {"E2": 3, "NoDefence,NoAttack": 1.0}
    # A number key becomes its str(), which for a float is also its repr().
    assert to_jsonable({0.5: 1, 1e-7: 2, 3: 4}) == {"0.5": 1, "1e-07": 2, "3": 4}
    assert to_jsonable(frozenset({EquilibriumKind.E3, EquilibriumKind.E2})) == [
        "E2",
        "E3",
    ]


def test_format_cell():
    assert format_cell(0.5) == "0.500000"
    assert format_cell(-0.56380) == "-0.563800"
    assert format_cell(math.nan) == ""
    assert format_cell(None) == ""
    assert format_cell(7) == "7"
    assert format_cell(np.int64(7)) == "7"
    assert format_cell(True) == "1"
    assert format_cell(EquilibriumKind.E1) == "E1"
    assert format_cell("x") == "x"


def test_table_render_quotes_and_validates():
    table = Table(
        name="t",
        header=("label", "value"),
        rows=(("Defence,Attack", -0.5638), ("plain", 1),),
    )
    text = table.render(provenance_lines=("tool: demo",))
    lines = text.splitlines()
    assert lines[0] == "# tool: demo"
    assert lines[1] == "label,value"
    assert lines[2] == '"Defence,Attack",-0.563800'
    assert lines[3] == "plain,1"
    bad = Table(name="t", header=("a", "b"), rows=((1,),))
    with pytest.raises(ValueError, match="row width"):
        bad.render()


def _bundle():
    bundle = OutputBundle(provenance={
        "tool": "cyberevo", "version": "0.0-test", "command": "demo",
        "config": {"game": {"w": 0.5}},
    })
    bundle.add_document("doc", {"value": math.nan, "kind": EquilibriumKind.E2})
    bundle.add_table(Table("tab", ("a", "b"), ((1, 2.0),)))
    bundle.add_graphic("pic", "<svg xmlns='http://www.w3.org/2000/svg'/>")
    return bundle


def test_bundle_write_and_reread(tmp_path):
    written = _bundle().write(tmp_path)
    names = sorted(path.name for path in written)
    assert names == ["doc.json", "pic.svg", "tab.csv"]
    doc = json.loads((tmp_path / "doc.json").read_text())
    assert doc["result"] == {"value": None, "kind": "E2"}
    assert doc["provenance"]["command"] == "demo"
    csv_text = (tmp_path / "tab.csv").read_text()
    assert csv_text.startswith("# tool: cyberevo 0.0-test\n# command: demo\n")
    assert csv_text.endswith("a,b\n1,2.000000\n")
    # Writing twice produces identical bytes.
    again = tmp_path / "again"
    _bundle().write(again)
    for path in written:
        assert path.read_bytes() == (again / path.name).read_bytes()


def test_bundle_refuses_a_name_added_twice():
    bundle = _bundle()
    with pytest.raises(ValueError, match="'doc' is already"):
        bundle.add_document("doc", {})
    with pytest.raises(ValueError, match="'tab' is already"):
        bundle.add_table(Table("tab", ("a",), ()))
    with pytest.raises(ValueError, match="'pic' is already"):
        bundle.add_graphic("pic", "<svg/>")
    # Artifacts of different kinds are different files.
    bundle.add_table(Table("doc", ("a",), ()))


def test_bundle_stdout_formats():
    bundle = _bundle()
    assert "### doc.json" in bundle.render_stdout("json")
    assert "### tab.csv" in bundle.render_stdout("csv")
    assert "### pic.svg" in bundle.render_stdout("svg")
    with pytest.raises(ValueError, match="unknown output format"):
        bundle.render_stdout("yaml")


def test_probe_writable(tmp_path):
    # The probe removes what it created, so a run that fails leaves nothing.
    probe_writable(tmp_path / "fresh" / "nested")
    assert not (tmp_path / "fresh").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    probe_writable(kept)
    probe_writable(kept / "new")
    assert kept.is_dir() and list(kept.iterdir()) == []
    blocker = tmp_path / "file"
    blocker.write_text("x")
    with pytest.raises(OSError):
        probe_writable(blocker / "sub")
