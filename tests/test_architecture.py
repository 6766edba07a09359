"""Module boundaries, read from the package source with `ast`: `regions`
only writes symbolic systems, `polytope` evaluates them under one slack
tolerance, `cli` is the one module that reads input files, and `schemes`
states each Gaussian scheme once, in one table."""

import ast
from pathlib import Path

from cranbounds import schemes

SRC = Path(__file__).parent.parent / "src" / "cranbounds"
TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def imports(tree):
    """The modules a tree imports, and the names it imports from modules."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            names |= {a.name for a in node.names}
    return modules, names


def top_level(tree) -> dict:
    """Top-level functions, classes and assigned names, by name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            out |= {t.id: node for t in node.targets if isinstance(t, ast.Name)}
    return out


def test_regions_writes_systems_and_evaluates_none():
    modules, names = imports(TREES["regions"])
    assert "numpy" not in modules and "CompiledSystem" not in names
    moved = {"_max_bound", "CompiledRegion", "max_sum_rate", "region_to_json", "_TOL"}
    assert not moved & top_level(TREES["regions"]).keys()
    assert moved - {"_TOL"} <= top_level(TREES["polytope"]).keys()


def test_only_cli_imports_json():
    assert [m for m, tree in TREES.items() if "json" in imports(tree)[0]] == ["cli"]


def test_no_class_reads_a_file_of_its_own():
    readers = [(m, node.name) for m, tree in TREES.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               for item in node.body
               if isinstance(item, ast.FunctionDef) and item.name == "from_json"]
    assert readers == []
    assert "_json_axes" not in top_level(TREES["discrete"])


def test_one_slack_tolerance_for_emptiness_membership_and_side_conditions():
    polytope, regions = top_level(TREES["polytope"]), top_level(TREES["regions"])
    assert ast.literal_eval(polytope["TOL"].value) == 1e-9
    users = [polytope[f] for f in ("_max_bound", "is_member", "regions_equal_sampled")]
    users += [regions[f] for f in ("corollary3_gated_system", "corollary3_feasible")]
    for fn in users:
        names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        literals = [n.value for n in ast.walk(fn) if isinstance(n, ast.Constant)]
        assert "TOL" in names and 1e-9 not in literals, fn.name


def test_each_gaussian_scheme_is_stated_once():
    """One table entry per scheme and one joint builder: the optimizer space
    and the region cache read the table and name no scheme."""
    defs = top_level(TREES["schemes"])
    assert "_joint" not in defs
    space = {f.name: f for f in defs["_SchemeSpace"].body if isinstance(f, ast.FunctionDef)}
    for fn in (space["__init__"], space["initial"], defs["_compiled"]):
        literals = {n.value for n in ast.walk(fn) if isinstance(n, ast.Constant)}
        assert not literals & {*schemes.SWEEP_SCHEMES}, fn.name
    assert schemes.GAUSSIAN_SCHEMES == tuple(schemes._SCHEMES)



def test_one_rule_for_names_sizes_and_numbers():
    """`atoms` states the rule once and every constructor of a law or a
    config calls it; the copies in `cli` and `schemes` are gone, and the
    Gaussian constructors coerce no name or size with str() or int()."""
    defs = {m: top_level(tree) for m, tree in TREES.items()}
    assert "_numbers" not in defs["cli"] and "_check_int" not in defs["schemes"]

    def method(module, cls, name):
        return next(f for f in defs[module][cls].body
                    if isinstance(f, ast.FunctionDef) and f.name == name)

    def calls(fn):
        return {n.func.id for n in ast.walk(fn)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}

    gaussian = [method("gaussian", cls, "make") for cls in ("JointCovariance", "CranNetwork")]
    for fn in (defs["discrete"]["_law"], *gaussian, defs["schemes"]["sweep_rows"],
               method("schemes", "OptimizerBudget", "__post_init__"), defs["cli"]["_valuation"]):
        assert calls(fn) & {"checked_axes", "checked_reals", "checked_int"}, fn.name
    assert not any(calls(fn) & {"str", "int"} for fn in gaussian)
