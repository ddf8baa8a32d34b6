"""Every module-level function and class in ``src/checkerboard`` has a caller outside the tests.

A definition counts as used when its name is referenced in ``src/``
(outside its own definition and outside ``__init__.py``, whose exports
are not uses), in ``scripts/``, in ``bench/*.py``, or in the ``LAYERS``
table of ``bench/tracing.py``, whose names the benchmark wraps by
string.  Code that only the tests call belongs in ``tests/``.  The files
are parsed, never imported, so nothing is written next to them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "checkerboard"


def _names(node) -> set:
    """Every name that ``node`` reads, as a bare name, an attribute or an imported alias."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _layer_names() -> set:
    tree = _parse(ROOT / "bench" / "tracing.py")
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in stmt.targets):
            return {fn for fns in ast.literal_eval(stmt.value).values() for fn in fns}
    raise AssertionError("bench/tracing.py defines no LAYERS")


def _definitions(stmt) -> list:
    return [stmt.name] if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else []


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    outside = _layer_names()
    for path in [*ROOT.glob("scripts/*.py"), *ROOT.glob("bench/*.py")]:
        outside |= _names(_parse(path))
    # (module, top-level definition name or None, names read by that statement)
    reads = []
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in _parse(path).body:
            names = _definitions(stmt)
            defined += [(path.stem, name) for name in names]
            reads.append((path.stem, names[0] if names else None, _names(stmt)))
    assert defined
    unused = [
        f"{module}.{name}" for module, name in defined
        if name not in outside
        and not any(name in names for mod, owner, names in reads if (mod, owner) != (module, name))
    ]
    assert not unused, f"defined in src/ but referenced only by tests: {unused}"
