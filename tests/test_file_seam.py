"""Files are read and written only in errors.py: ``_text`` reads every file a
user names and ``_write`` writes every file the lab writes, so one module
owns the encoding, the line ends and the typed failure of each."""

import ast
from pathlib import Path

import liouvillelab as L

SRC = Path(L.__file__).parent

# Calls that open, read or write a file: the builtin and the method forms.
_FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "write"}


def _file_sites(path):
    # (module, top-level definition, call) for every file access.
    sites = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                sites.append((path.stem, owner, "open"))
            elif isinstance(func, ast.Attribute) and func.attr in _FILE_METHODS:
                sites.append((path.stem, owner, func.attr))
    return sites


def test_files_are_touched_only_in_errors():
    sites = [
        site
        for path in sorted(SRC.glob("*.py"))
        if path.name != "errors.py"
        for site in _file_sites(path)
    ]
    assert sites == []


def test_guard_sees_every_file_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "def builtin(path):\n"
        "    return open(path)\n"
        "def method(path):\n"
        "    return Path(path).open('w')\n"
        "def read_text(path):\n"
        "    return Path(path).read_text()\n"
        "def write_text(path, text):\n"
        "    path.write_text(text)\n"
        "def read_bytes(path):\n"
        "    return path.read_bytes()\n"
        "def write_bytes(path, data):\n"
        "    path.write_bytes(data)\n"
        "def handle(path, text):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(text)\n"
        "def printed(text):\n"
        "    print(text, file=sys.stderr)\n"
    )
    sites = _file_sites(source)
    assert {owner for _, owner, _ in sites} == {
        "builtin", "method", "read_text", "write_text", "read_bytes", "write_bytes", "handle"
    }
    assert sorted(form for _, owner, form in sites if owner == "handle") == ["open", "write"]
