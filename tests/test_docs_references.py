"""The documents cite code by name, and every citation must resolve.

DESIGN.md and README.md name modules, functions and methods
(``repro.serve.durability.recover``, ```QueryServer._run_engine```) and
files (``serve/server.py``, ``scripts/chaos_subs.py``).  A rename that
misses one leaves the reader a stale pointer, so three kinds of
citation are checked:

* a dotted ``repro.*`` name: its longest importable module prefix, then
  attributes from there;
* a ``*.py`` path: relative to the repository root, ``src/`` or
  ``src/repro/``, or — a bare file name — anywhere under the project's
  code directories;
* a backticked ```Class.attribute``` whose class is defined in the
  ``repro`` package (names of other classes are not checked).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md")
CODE_DIRS = ("src", "scripts", "examples", "tests", "bench", "benchmarks")

DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
PATH = re.compile(r"[\w./-]+\.py\b")
CLASS_ATTR = re.compile(r"`([A-Z]\w*\.[A-Za-z_]\w*)")


def _cited(pattern: re.Pattern) -> list[tuple[str, str]]:
    """``(document, citation)`` for every distinct match: the matched
    text, or its first group when the pattern has one."""
    found = set()
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        found.update((doc, m.group(1 if pattern.groups else 0))
                     for m in pattern.finditer(text))
    return sorted(found)


def resolves_dotted(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def resolves_path(path: str) -> bool:
    if any((base / path).is_file()
           for base in (ROOT, ROOT / "src", ROOT / "src" / "repro")):
        return True
    return "/" not in path and any(
        any((ROOT / top).rglob(path)) for top in CODE_DIRS)


def _repro_classes() -> dict[str, list[type]]:
    """Every class defined in the ``repro`` package, by name."""
    classes: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == info.name:
                classes.setdefault(name, []).append(obj)
    return classes


def resolves_class_attr(classes: dict[str, list[type]], owner: str,
                        attr: str) -> bool:
    """Whether a class named ``owner`` has ``attr``: a class attribute,
    a dataclass field or an instance attribute its code assigns."""
    return owner not in classes or any(
        hasattr(cls, attr)
        or attr in getattr(cls, "__dataclass_fields__", {})
        or re.search(rf"\bself\.{attr}\b", inspect.getsource(cls))
        for cls in classes[owner])


@pytest.fixture(scope="module")
def classes() -> dict[str, list[type]]:
    return _repro_classes()


@pytest.mark.parametrize("doc,name", _cited(DOTTED))
def test_dotted_name_resolves(doc, name):
    assert resolves_dotted(name), f"{doc} cites {name}, which does not exist"


@pytest.mark.parametrize("doc,path", _cited(PATH))
def test_python_path_exists(doc, path):
    assert resolves_path(path), f"{doc} cites {path}, which does not exist"


@pytest.mark.parametrize("doc,cited", _cited(CLASS_ATTR))
def test_class_attribute_resolves(classes, doc, cited):
    owner, attr = cited.split(".")
    assert resolves_class_attr(classes, owner, attr), \
        f"{doc} cites {owner}.{attr}, which does not exist"


def test_a_stale_citation_is_caught(classes):
    assert not resolves_dotted("repro.serve.protocol.parse_nothing")
    assert not resolves_path("serve/no_such_module.py")
    assert not resolves_path("no_such_script.py")
    assert not resolves_class_attr(classes, "QueryServer", "_no_such_hook")
