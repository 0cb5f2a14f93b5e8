"""Guards on the public surface: the benchmark's traced names resolve, and every exported name serves some module."""

import ast
import importlib
import inspect
from pathlib import Path

import polyrot
from polyrot.bounds import BOUNDS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polyrot"


def _perfbench_constant(name):
    """The literal value of a top-level constant of perfbench/spans.py, read without running that file."""
    for stmt in ast.parse((ROOT / "perfbench" / "spans.py").read_text()).body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == name for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise LookupError(name)


def test_traced_names_resolve():
    # perfbench's tracer wraps these by name; a rename or deletion would silently drop a span
    for module, function in _perfbench_constant("SPANS"):
        assert callable(getattr(importlib.import_module(f"polyrot.{module}"), function, None)), (module, function)
    for module, cls, prop in _perfbench_constant("COUNTED_PROPERTIES"):
        owner = getattr(importlib.import_module(f"polyrot.{module}"), cls)
        assert isinstance(inspect.getattr_static(owner, prop), property), (module, cls, prop)


def _loaded_names(path):
    """Names the module at path reads, outside the top-level definition of the same name."""
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name not in (None, own):
                used.add(name)
    return used


def test_every_exported_name_is_used_by_the_package():
    # a function or class that only tests reach buys no verdict: delete it or use it
    used = set().union(*(_loaded_names(path) for path in SRC.glob("*.py") if path.name != "__init__.py"))
    exported = [name for name in polyrot.__all__
                if inspect.isfunction(getattr(polyrot, name)) or inspect.isclass(getattr(polyrot, name))]
    assert exported
    assert sorted(set(exported) - used) == []



def _referenced_names(path):
    """Every name the module at path reads, imports or looks up as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_only_report_lays_out_a_skipped_row():
    # report renders every scan row, a skipped angle's included; a module that states the skip reason itself has
    # grown its own row layout again
    stating = {path.stem for path in SRC.glob("*.py")
               if any(isinstance(node, ast.Constant) and node.value == "zero_proximity"
                      for node in ast.walk(ast.parse(path.read_text())))}
    assert stating == {"report"}


def _bound_key_lists(path):
    """Each tuple, list or set literal, and each dict's keys, in the module at path that hold two or more bound keys."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else getattr(node, "keys", ())
        keys = [item.value for item in items if isinstance(item, ast.Constant) and item.value in BOUNDS]
        if len(keys) >= 2:
            found.append(keys)
    return found


def test_only_bounds_lists_the_bounds():
    # bounds.BOUNDS is the one list of the bounds, read by the row schema, scan --checks, verdict and fuzz; a second
    # list elsewhere would miss the next bound added to it.  Reading one bound by its key is not a list
    listing = {path.stem: _bound_key_lists(path) for path in SRC.glob("*.py") if path.stem != "bounds"}
    assert {stem: found for stem, found in listing.items() if found} == {}


def test_zeros_are_solved_for_only_where_an_input_arrives():
    # only a coefficient array and a rational numerator come without their zeros, and only scan and the
    # rational module solve for those; a root form is classified from the zeros it states.  Every evaluator
    # takes the classification as an argument, so a module that starts solving again fails here
    solving = {path.stem for path in SRC.glob("*.py")
               if path.name != "__init__.py" and _referenced_names(path) & {"classify_zeros", "find_roots"}}
    assert solving <= {"cli", "rational", "roots"}  # __init__ only re-exports both


def test_complex_quotient_emulation_stays_in_the_polynomial_kernels():
    # c_mul and c_quot copy CPython's complex arithmetic so that a grid matches the scalar path bit for bit;
    # the rational comparison needs no complex division, so only poly and bounds may use them
    emulating = {path.stem for path in SRC.glob("*.py") if _referenced_names(path) & {"c_mul", "c_quot"}}
    assert emulating <= {"poly", "bounds"}


def test_every_tolerance_is_read_by_the_package():
    # a knob whose code is deleted must go with it, not linger in the table
    from polyrot import tolerances

    knobs = {name for name in vars(tolerances) if name.isupper()}
    used = set().union(*(_loaded_names(path) for path in SRC.glob("*.py")
                         if path.name not in ("__init__.py", "tolerances.py")))
    assert knobs
    assert sorted(knobs - used) == []


def test_root_form_is_never_expanded_outside_fuzz():
    # scan, fuzz and the witnesses evaluate, guard and bound a root form from its zeros; only corpus's
    # random_polynomial and random_rational, which no command calls, expand one, through poly's from_roots.  The
    # rational witness expands its numerator from its poles
    for name, allowed in (("from_roots", {"corpus"}), ("expand_monic", {"poly", "witness"})):
        expanding = {path.stem for path in SRC.glob("*.py")
                     if path.name != "__init__.py" and name in _referenced_names(path)}
        assert expanding <= allowed, name


def test_only_poly_reads_the_band():
    # one band rule: poly.read_zero (and RootBatch.read, its array form) tests a zero against the on-circle band
    # and moves it onto the circle; every other module takes a zero's side and value from it
    reading = {path.stem for path in SRC.glob("*.py")
               if path.name != "tolerances.py" and "ON_CIRCLE_TOL" in _referenced_names(path)}
    assert reading == {"poly"}
