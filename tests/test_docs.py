"""The README's module-qualified names point at attributes that exist."""

import importlib
import pathlib
import pkgutil
import re

import balancegame

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(balancegame.__path__))
# A backticked span that opens with a module, a dot and a name: `engine.close_pairs`,
# `engine.pigeonhole_min_n(q, k, prior)`, `balancegame.cli.main(argv)`.
REFERENCE = re.compile(r"`(?:balancegame\.)?(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)")


def test_readme_names_resolve():
    found = sorted(set(REFERENCE.findall(README.read_text(encoding="utf-8"))))
    assert len(found) >= 10  # the pattern still matches how the README cites names
    missing = [f"{module}.{name}" for module, name in found
               if not hasattr(importlib.import_module(f"balancegame.{module}"), name)]
    assert missing == []
