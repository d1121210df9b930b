import ast
from pathlib import Path

import pytest

import l2tor
from l2tor.inputs import ManifestError, read_json

SOURCES = sorted(Path(l2tor.__file__).parent.rglob("*.py"))


def _json_reads(tree: ast.AST) -> list[str]:
    return [f"json.{node.func.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
            and node.func.attr in ("load", "loads")]


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_only_the_input_module_parses_json(source):
    tree = ast.parse(source.read_text())
    assert bool(_json_reads(tree)) == (source.name == "inputs.py")
    # every reader takes its rules from the input module, none from another reader
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "hyperbolic"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_undecodable_bytes_name_the_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'[\n"\xe9"]')
    with pytest.raises(ManifestError) as exc:
        read_json(str(path))
    assert str(exc.value) == f"{path}:2: not UTF-8: byte 0xe9 (invalid continuation byte)"
