"""Every example and operational script must import cleanly and expose
``main``.

Execution of the heavy workloads stays behind the ``__main__`` guard;
importing only validates syntax, imports and top-level wiring, which is
what rots silently when the library API evolves.  The chaos scripts in
``scripts/`` run only in slow CI jobs, so this is where a broken import
of theirs shows first.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3  # the deliverable minimum


@pytest.mark.parametrize("path", EXAMPLES + SCRIPTS, ids=lambda p: p.name)
def test_example_imports_and_has_main(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
