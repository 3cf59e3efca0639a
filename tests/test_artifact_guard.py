"""Artifact guard: `domain.py` is the only module in `src/steprouter` that
opens, reads, writes or parses a file.

Every stage artifact goes through domain's atomic writer and validating
readers, so no other module may call `open`, a `Path` read/write helper,
`readline`, `np.frombuffer`/`np.fromfile` or a JSON parser. The exception is
config input, which is not an artifact: `pipeline.load_config` reads the
user's config file and `pipeline._parse_value` parses `--set` values.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "steprouter"
FILE_METHODS = {"open", "readline", "read_text", "read_bytes", "write_text",
                "write_bytes", "frombuffer", "fromfile"}
CONFIG_INPUT = {("pipeline.py", "load_config"), ("pipeline.py", "_parse_value")}


def _file_call(func) -> str | None:
    if isinstance(func, ast.Name) and func.id == "open":
        return "open"
    if isinstance(func, ast.Attribute):
        if func.attr in FILE_METHODS:
            return func.attr
        if (func.attr in ("load", "loads") and isinstance(func.value, ast.Name)
                and func.value.id == "json"):
            return f"json.{func.attr}"
    return None


def file_calls(path: Path):
    """(top-level definition, call) for every file or parse call in a module."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (what := _file_call(node.func)):
                yield getattr(top, "name", "<module>"), what


def test_only_domain_reads_and_writes_artifacts():
    found = [
        f"{path.name}:{owner}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "domain.py"
        for owner, what in file_calls(path)
        if (path.name, owner) not in CONFIG_INPUT
    ]
    assert not found, f"file I/O outside domain.py: {found}"


def test_guard_sees_domain_file_calls():
    calls = {what for _, what in file_calls(PACKAGE / "domain.py")}
    assert {"open", "readline", "frombuffer", "json.loads"} <= calls
