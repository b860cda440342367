"""The README cites the program by backticked ``module.name`` references
(`oracle.leaf_open`, `sierpinski.run(value, fuel)`): each must still
resolve, or the README names something that is gone."""

import importlib
import pkgutil
import re
from pathlib import Path

import synthtop

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(synthtop.__path__)}


def _references():
    text = README.read_text(encoding="utf-8")
    for mod, dotted in re.findall(r"`([a-z_]+)\.([A-Za-z_][\w.]*)", text):
        if mod in MODULES:
            yield mod, dotted


def test_readme_module_references_resolve():
    found = list(_references())
    assert ("oracle", "leaf_open") in found
    missing = []
    for mod, dotted in found:
        obj = importlib.import_module(f"synthtop.{mod}")
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{mod}.{dotted}")
    assert missing == []
