"""The library names the benchmark reaches for are where it looks for them.

``perfbench/workloads.py`` calls ``ef.<name>`` on the package (and
``ef.cli.main``), so a name it calls that is renamed or deleted fails the
benchmark.  ``perfbench/tracing.py`` keys its observers (``OBSERVERS``,
``"layer.name"``) and counters (``COUNTED``, ``(layer, name)``) by the
module that defines a function, and skips a name it does not find there,
so a function moved to another module, even if re-imported into the old
one, silently loses its counts.  These names are pinned until a change
to the benchmark moves perfbench with them (ROADMAP item 21).  Both files
are parsed with :mod:`ast`, not imported.
"""

import ast
import importlib
from pathlib import Path

import eigenfence
import eigenfence.cli  # noqa: F401  (the package does not import its CLI; the worker does)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"), filename=name)


def _chain(node: ast.Attribute) -> list[str] | None:
    """``["cli", "main"]`` for ``ef.cli.main``; None unless the chain starts at ``ef``."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return names[::-1] if isinstance(node, ast.Name) and node.id == "ef" else None


def _keys(tree: ast.Module, name: str) -> list:
    """The literal keys of the module-level dict assigned to ``name``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"perfbench/tracing.py assigns no dict to {name}")


def test_workload_calls_exist_on_the_package():
    chains = {tuple(c) for node in ast.walk(_tree("workloads.py"))
              if isinstance(node, ast.Attribute) and (c := _chain(node))}
    assert ("cli", "main") in chains and ("refine_even",) in chains
    missing = []
    for chain in sorted(chains):
        obj = eigenfence
        for attr in chain:
            if not hasattr(obj, attr):
                missing.append("ef." + ".".join(chain))
                break
            obj = getattr(obj, attr)
    assert not missing, f"perfbench/workloads.py calls names the package lacks: {missing}"


def test_traced_functions_are_defined_in_their_layer():
    tree = _tree("tracing.py")
    pinned = [tuple(key.split(".")) for key in _keys(tree, "OBSERVERS")] + _keys(tree, "COUNTED")
    assert pinned
    wrong = []
    for layer, name in pinned:
        module = importlib.import_module(f"eigenfence.{layer}")
        fn = getattr(module, name, None)
        if getattr(fn, "__module__", None) != module.__name__:
            wrong.append(f"{layer}.{name}")
    assert not wrong, f"perfbench/tracing.py observes functions not defined in their layer: {wrong}"
