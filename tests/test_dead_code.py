"""Structural checks on ``src/checkerboard``, from its syntax trees.

Every module-level function and class has a caller outside the tests.

A definition counts as used when its name is referenced in ``src/``
(outside its own definition and outside ``__init__.py``, whose exports
are not uses), in ``scripts/``, in ``bench/*.py``, or in the ``LAYERS``
table of ``bench/tracing.py``, whose names the benchmark wraps by
string.  In ``scripts/`` and ``bench/`` an attribute read or a ``from
checkerboard... import`` counts; a bare name counts only where that file
does not bind it itself (``bench/gate.py``'s own ``reduction_matrices``
is no use of a ``src/`` one).  Code that only the tests call belongs in
``tests/``.

The primes are walked in one place: only ``matrices`` reads ``primes``,
``PRIME_BUDGET`` or ``split_residue``, and every other module takes a
modular rank through ``matrices.split_prime_rank``.

Classification computes on int pairs: ``family``, ``report``,
``criteria`` and ``counting`` name no ``GaussInt`` and no
``lift_to_integers``, so no scalar-object arithmetic enters the path
every ``scan`` sample takes.

The subfamily's Jacobian has one row builder and one derivative model:
only ``counting._lambda_rows`` iterates the entries' letter pairs, and no
real-slot jet or second chain rule is left in ``src/``.

No module imports ``dataclasses`` or ``typing``: records come from
``records.record``, and annotations use built-in and ``collections.abc``
forms, so neither enters the CLI's start-up.

The files are parsed, never imported, so nothing is written next to them.
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


def _outside_names(tree: ast.Module) -> set:
    """The names a ``scripts/`` or ``bench/`` file may read from the package.

    Attribute reads, names imported from ``checkerboard``, and bare names
    the file does not bind itself by a ``def``, ``class``, assignment or
    parameter.
    """
    own = set()
    for sub in ast.walk(tree):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(sub.name)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            own.add(sub.id)
        elif isinstance(sub, ast.arg):
            own.add(sub.arg)
    out = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name) and sub.id not in own:
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and (sub.module or "").startswith("checkerboard"):
            out |= {alias.name for alias in sub.names}
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
        outside |= _outside_names(_parse(path))
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


def test_only_matrices_walks_the_primes():
    walk = {"primes", "PRIME_BUDGET", "split_residue"}
    readers = {path.name: sorted(walk & _names(_parse(path)))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "matrices.py"}
    assert not {name: read for name, read in readers.items() if read}


def test_classification_path_has_no_integer_objects():
    objects = {"GaussInt", "lift_to_integers"}
    readers = {name: sorted(objects & _names(_parse(PACKAGE / name)))
               for name in ("family.py", "report.py", "criteria.py", "counting.py")}
    assert not {name: read for name, read in readers.items() if read}


def test_one_lambda_row_builder():
    gone = {"Jet", "jet_real_var", "jet_complex_var", "_lambda_real_jacobian", "outer_jacobian"}
    readers = {path.name: sorted(gone & _names(_parse(path)))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert not {name: read for name, read in readers.items() if read}
    iterating = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(_parse(path)):
            if isinstance(fn, ast.FunctionDef) and any(
                    "_ENTRY_PAIRS" in _names(node.iter) for node in ast.walk(fn)
                    if isinstance(node, (ast.For, ast.comprehension))):
                iterating.add(f"{path.stem}.{fn.name}")
    assert iterating == {"counting._lambda_rows"}


def test_no_module_imports_dataclasses_or_typing():
    banned = {"dataclasses", "typing"}
    importers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                modules = {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = {node.module.partition(".")[0]}
            else:
                continue
            if modules & banned:
                importers.setdefault(path.name, set()).update(modules & banned)
    assert not importers
