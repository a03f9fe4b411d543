import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import champagne

# every module of the package except the entry point, which runs the CLI
MODULES = ["champagne"] + [
    f"champagne.{m.name}" for m in pkgutil.iter_modules(champagne.__path__)
    if m.name != "__main__"
]
SRC = Path(champagne.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _defined_names(stmt) -> set:
    """The names that a top-level statement defines: a function, a class or
    the targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _referenced_names(node) -> set:
    """Every name that code under ``node`` reads: bare names, attributes and
    the names that an import binds (an alias counts as a use)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def test_every_module_level_name_has_a_caller_in_the_package():
    # a module-level name whose only caller is its own test is dead code:
    # each function, class or assigned name at the top level of a module,
    # whether in __all__ or private, must be used by the package's code
    # somewhere other than the statement that defines it (dunders such as
    # __all__ and __getattr__ are read by Python itself)
    uses = []   # (module, names the statement defines, names it reads)
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            uses.append((path.stem, _defined_names(stmt), _referenced_names(stmt)))
    unused = sorted(
        f"{module}.{name}" for module, defines, _ in uses for name in defines
        if not (name.startswith("__") and name.endswith("__"))
        and not any(name in reads and not (where == module and name in other)
                    for where, other, reads in uses)
    )
    assert unused == []


def test_every_public_method_and_property_has_a_caller_in_the_package():
    # a public method or property of a package class that only tests call is
    # dead code too: its name must be read by package code other than its
    # own definition
    units = []   # (the qualified method name, or None for other code; names it reads)
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, ast.ClassDef):
                units.append((None, _referenced_names(stmt)))
                continue
            for node in stmt.body:
                name = None
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    name = f"{path.stem}.{stmt.name}.{node.name}"
                units.append((name, _referenced_names(node)))
            units.append((None, set().union(*map(_referenced_names, stmt.bases),
                                                *map(_referenced_names, stmt.decorator_list))))
    unused = sorted(
        name for name, _ in units
        if name is not None
        and not any(name.rpartition(".")[2] in reads for other, reads in units if other != name)
    )
    assert unused == []


# The method check above matches a method by its bare name, so a dead method
# passes when a live one of another class shares its name.  These are the
# public method names that more than one package class defines, each checked
# by hand to have a caller for every class that defines it: contains_batch
# (BallIndex, bubbles._ShellLookup, each called through
# BubbleConfig.index), dimension (BubbleConfig, BallDomain), from_json
# (RadialProfile, BallDomain, RunConfig), index (BubbleConfig,
# whitney._LevelGrid), tail (the profiles, called through RadialProfile) and
# to_json (RadialProfile, DivergenceVerdict, BallDomain, RunConfig,
# HitEstimate, SimParams).
SHARED_METHOD_NAMES = {"contains_batch", "dimension", "from_json", "index", "tail", "to_json"}


def test_every_shared_public_method_name_was_checked_by_hand():
    # a new name shared by two classes must be checked by hand and added above
    owners = {}
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                for node in stmt.body:
                    if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not node.name.startswith("_")):
                        owners.setdefault(node.name, set()).add(f"{path.stem}.{stmt.name}")
    assert {name for name, classes in owners.items() if len(classes) > 1} == SHARED_METHOD_NAMES
