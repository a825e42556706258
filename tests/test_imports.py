"""What importing the package loads, checked in fresh interpreters: the
package resolves its names lazily, and the CLI loads only the modules
`analyze` runs."""

import ast

from helpers import run_fresh


def fresh_value(code: str):
    """The value of the last line of code, run after the lines before it."""
    *body, last = code.strip().splitlines()
    proc = run_fresh("-c", "\n".join(body + [f"print(repr(({last})))"]))
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_cli_loads_no_dataclasses_realize_or_oracles():
    assert fresh_value("""
import sys
before = set(sys.modules)
import wciq.cli
sorted({"dataclasses", "wciq.realize", "wciq.oracles"} & (set(sys.modules) - before))
""") == []


def test_package_import_loads_no_submodule():
    assert fresh_value("""
import sys, wciq
sorted(m for m in sys.modules if m.startswith("wciq."))
""") == []


def test_every_public_name_resolves():
    assert fresh_value("""
import importlib, wciq
exported = {n: getattr(wciq, n) for n in wciq.__all__}
from wciq import *
missing = [n for n in wciq.__all__ if globals()[n] is not exported[n]]
foreign = [n for n, m in wciq._EXPORTS.items()
           if exported[n] is not getattr(importlib.import_module("wciq." + m), n)]
missing, foreign, set(wciq.__all__) <= set(dir(wciq))
""") == ([], [], True)


def test_unknown_name_and_submodule_import():
    assert fresh_value("""
import wciq
try:
    wciq.no_such_name
    raised = False
except AttributeError:
    raised = True
from wciq import realize
raised, realize.__name__, wciq.realize_weights is realize.realize_weights
""") == (True, "wciq.realize", True)
