import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import vlasov_transport

MODULES = sorted(info.name
                 for info in pkgutil.iter_modules(vlasov_transport.__path__)
                 if info.name != "__main__")


def test_package_exports_resolve_once():
    names = vlasov_transport.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(vlasov_transport, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    # a stale __all__ entry breaks `from module import *`
    module = importlib.import_module(f"vlasov_transport.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# A density level's storage layout (its packed bit mask) belongs to
# phase_space alone: every other module reads a level through values,
# place, slices and reductions on data, so a change of layout touches one
# module.
LAYOUT_ATTRIBUTES = {"mask", "nonzero_mask", "packbits", "unpackbits"}


def test_only_phase_space_reads_the_level_layout():
    package = Path(vlasov_transport.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "phase_space.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr in LAYOUT_ATTRIBUTES):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []


# Both engines build a density level through one builder: in solver.py,
# only _traced_level traces nodes and stores a level's block.
BUILDER_NAMES = {"trace_states", "_from_block"}


def test_only_the_level_builder_traces_and_stores_in_solver():
    path = Path(vlasov_transport.__file__).parent / "solver.py"
    found = {}
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            name = getattr(node, "id", getattr(node, "attr", None))
            if name in BUILDER_NAMES:
                found.setdefault(name, []).append(
                    getattr(top, "name", f"line {top.lineno}"))
    assert found == {name: ["_traced_level"] for name in BUILDER_NAMES}


# Every characteristic goes through one tracer: only trace_states takes
# an RK4 step, and the package reaches characteristics through that
# tracer and the field history alone.
TRACER_EXPORTS = ["LatticeFieldHistory", "trace_states"]


def test_every_characteristic_goes_through_trace_states():
    package = Path(vlasov_transport.__file__).parent
    steppers, imported = [], set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "_rk4_step" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    steppers.append(
                        f"{path.name}:{getattr(top, 'name', top.lineno)}")
                if (isinstance(node, ast.ImportFrom)
                        and node.module == "characteristics"):
                    imported.update(alias.name for alias in node.names)
    assert steppers == ["characteristics.py:trace_states"]
    assert sorted(imported - set(TRACER_EXPORTS)) == []
    characteristics = importlib.import_module(
        "vlasov_transport.characteristics")
    assert characteristics.__all__ == TRACER_EXPORTS


# A profile's cubic table has one owner: phase_space builds it (a moment
# level keeps its own as _table), and characteristics stacks the tables
# of a field history.  No other module builds one.
TABLE_OWNERS = ["characteristics.py", "phase_space.py"]


def test_only_profiles_and_field_histories_build_cubic_tables():
    package = Path(vlasov_transport.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None))
            if "_cubic_table" in names:
                found.add(path.name)
    assert sorted(found) == TABLE_OWNERS


# A field history builds every table it reads when it is made: eval
# reads a level's or a half-level's cached table and never builds one.
def test_field_history_builds_its_tables_at_construction_only():
    path = Path(vlasov_transport.__file__).parent / "characteristics.py"
    callers = set()
    for top in ast.parse(path.read_text()).body:
        defs = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in defs:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and "_cubic_table" in (
                        getattr(call.func, "id", None),
                        getattr(call.func, "attr", None)):
                    name = getattr(node, "name", f"line {node.lineno}")
                    callers.add(name if top is node
                                else f"{top.name}.{name}")
    assert sorted(callers) == ["LatticeFieldHistory.__init__"]


# Every cubic profile lookup reads its owner's table: interp_profile takes
# the table alone, and only the three profile owners reach it.
PROFILE_OWNERS = ["LatticeFieldHistory.eval", "MomentProfile.at",
                  "TransportField.at"]


def test_every_profile_lookup_reads_its_owners_table():
    phase_space = importlib.import_module("vlasov_transport.phase_space")
    params = inspect.signature(phase_space.interp_profile).parameters
    assert list(params)[:4] == ["x0", "dx", "table", "xq"]
    package = Path(vlasov_transport.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for node in defs:
                if any("interp_profile" in (getattr(n, "id", None),
                                            getattr(n, "attr", None))
                       for n in ast.walk(node)):
                    name = getattr(node, "name", f"line {node.lineno}")
                    found.append(name if top is node else f"{top.name}.{name}")
    assert sorted(found) == PROFILE_OWNERS


# What a lattice read touches has one owner: phase_space states the
# stencil's read range and which stored values a read sees as nonzero
# (the bits test, .view(np.int64)).  Direct's live-node scan asks it, so
# solver restates neither the bits test nor the stencil's clamp.
def test_only_phase_space_states_what_a_lattice_read_touches():
    package = Path(vlasov_transport.__file__).parent
    bit_views, solver_defs = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "view"
                    and [ast.unparse(a) for a in node.args]
                    == ["np.int64"]):
                bit_views.append(path.name)
            if (path.name == "solver.py"
                    and isinstance(node, ast.FunctionDef)):
                solver_defs.append(node.name)
    assert bit_views == ["phase_space.py"]
    assert "_clamp" not in solver_defs


# A level's time has one owner: the engine loop stamps level k with
# k * dt.  No module works a level's time out from another level's
# (f.time + dt): a running sum drifts off k * dt in the last bits.
def test_no_level_time_is_a_running_sum():
    package = Path(vlasov_transport.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                operands = (node.left, node.right)
            elif (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add)):
                operands = (node.target, node.value)
            else:
                continue
            if any(getattr(o, "attr", None) == "time" for o in operands):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# Every exported name has a program caller: package code other than its
# own definition, assignment and __all__ (re-exports in __init__.py do not
# count), the bench harness, or an acceptance criterion.  The bench tracer
# names its targets as strings ("advance_field", "MomentProfile.at"), so
# in bench/*.py each dotted part of a string constant counts as a use.
def _names_used(nodes, strings=False):
    used = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            used.update(node.value.split("."))
    return used


def _is_all(top):
    return (isinstance(top, ast.Assign)
            and [ast.unparse(t) for t in top.targets] == ["__all__"])


def test_every_export_has_a_program_caller():
    package = Path(vlasov_transport.__file__).parent
    root = Path(__file__).parents[1]
    exports, bodies = set(), []
    for path in sorted(package.glob("*.py")):
        body = ast.parse(path.read_text()).body
        exports.update(n for top in body if _is_all(top)
                       for n in ast.literal_eval(top.value))
        if path.name != "__init__.py":
            bodies.append([top for top in body if not _is_all(top)])
    used = _names_used([ast.parse(path.read_text())
                        for path in (root / "bench").glob("*.py")], True)
    used |= _names_used(
        [ast.parse((root / "tests" / "test_acceptance.py").read_text())])

    def called_in_package(name):
        return any(name in _names_used(
            [top for top in body if getattr(top, "name", None) != name])
            for body in bodies)

    assert sorted(n for n in exports - used
                  if not called_in_package(n)) == []
