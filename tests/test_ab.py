"""The parent-against-change tool ``tools/ab.py``: same bits, then speed."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

TINY = ["--games", "300", "--pairs", "1"]


def test_a_tree_against_itself_has_the_same_bits(capsys):
    assert ab.main([str(ROOT), str(ROOT), *TINY]) == 0
    out = capsys.readouterr().out.splitlines()
    parent, change = (line.split()[-1] for line in out[:2])
    assert parent == change and len(parent) == 64
    assert out[2] == "same bits"
    assert out[-1].startswith("change faster in ")


def test_a_changed_hash_constant_differs_and_exits_1(tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "cyberevo", tmp_path / "src" / "cyberevo",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "cyberevo" / "ensemble.py"
    text = source.read_text()
    assert text.count("0x58F38DED") == 1  # _MULT_B
    source.write_text(text.replace("0x58F38DED", "0x58F38DEF"))
    assert ab.main([str(ROOT), str(tmp_path), *TINY]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "bits differ"
    assert out[0].split()[-1] != out[1].split()[-1]


def test_a_tree_without_the_package_exits_2(tmp_path, capsys):
    assert ab.main([str(ROOT), str(tmp_path), *TINY]) == 2
    assert "error:" in capsys.readouterr().err
