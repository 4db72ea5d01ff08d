"""README points to docstrings by name; each name it cites must exist."""

import functools
import importlib
import pkgutil
import re
from pathlib import Path

import nwpeval

README = Path(__file__).parents[1] / "README.md"
SUBMODULES = {m.name for m in pkgutil.iter_modules(nwpeval.__path__)}


def cited_names() -> list[str]:
    """Every backticked `module.attr[.attr...]` in README, cut at its first
    "(", whose module is an nwpeval submodule, in order of appearance."""
    names = []
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        name = span.split("(", 1)[0]
        if (re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", name)
                and name.split(".", 1)[0] in SUBMODULES):
            names.append(name)
    return names


def test_every_cited_name_resolves():
    names = cited_names()
    assert len(set(names)) >= 8   # the pointers are found at all
    missing = []
    for name in dict.fromkeys(names):
        module, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"nwpeval.{module}"))
        except AttributeError:
            missing.append(name)
    assert missing == []
