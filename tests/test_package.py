"""What the package holds: every public top-level function or class of a
``cornerwave`` module is named by some package code besides its own
definition, apart from the exclusion-chain checks that the verdict is
to call and the energy they are to compare, and every parameter of a
package function has a package user.
Closed-form cross-checks that only tests call live in
``tests/references.py``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cornerwave"

# the Weiss, frequency and Bernstein checks and the first variation
# under a bump field: the paper's exclusion chain, not yet in the verdict
CHAIN = {"check_monotonicity", "check_frequency_bound", "check_bernstein",
         "domain_variation_residual", "bump_vector_field"}

# public names no package code reaches, each with its reason
UNREACHED = {
    **dict.fromkeys(CHAIN, "the exclusion chain (ROADMAP direction 5)"),
    "energy": "the exact energy of a field, for the chain's energy "
              "comparisons (ROADMAP direction 5); the solver scores with "
              "its private form",
}

# defaults that no package call both leaves out and overrides, as
# "function.parameter", each with its reason; the defaults of CHAIN
# functions, which no package code calls yet, are exempt as well
ONE_SIDED_DEFAULTS = {
    "energy.weight": "fake-weight seam: no ProblemSpec has a constant "
                     "weight, and the five-point-form test needs one",
    "minimize_energy.weight": "fake-weight seam: no ProblemSpec has a "
                              "constant weight, and the plane smoke test "
                              "needs one",
    "run.stages": "cornerbench/workloads.py::run_job calls "
                  "pipeline.run(cfg) for every stage",
    "main.argv": "the entry point, which reads sys.argv",
}


def package_trees() -> list[ast.Module]:
    """The parsed package modules; the re-exports of ``__init__`` do not
    count as a use."""
    return [ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def class_attributes(trees) -> set[str]:
    """Every attribute a package class defines: its fields, methods and
    class-level names."""
    out = set()
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    out.add(node.name)
                elif isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    out.add(node.target.id)
                elif isinstance(node, ast.Assign):
                    out.update(t.id for t in node.targets
                               if isinstance(t, ast.Name))
    return out


def names_used(tree: ast.AST, attributes: set[str]) -> set[str]:
    """Every name a module reads: a bare name that is loaded, an imported
    name, or an attribute read that no package class defines (a read of
    ``.energy`` is a candidate's energy, not the function)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load) \
                and node.attr not in attributes:
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def unreached_names() -> set[str]:
    """Public top-level functions and classes of the package modules that
    no package code names apart from their own definition."""
    trees = package_trees()
    attributes = class_attributes(trees)
    used = set().union(*(names_used(t, attributes) for t in trees))
    return {node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used}


def functions(trees):
    """(function, its parameters as the caller fills them) for every
    package function; a method's ``self`` or ``cls`` is not one."""
    for tree in trees:
        methods = {id(f) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for f in cls.body}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                params = fn.args.posonlyargs + fn.args.args
                if id(fn) in methods and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in fn.decorator_list):
                    params = params[1:]
                yield fn, params


def unread_parameters() -> set[str]:
    """"function.parameter" for every parameter that its function's body
    never loads."""
    out = set()
    for fn, params in functions(package_trees()):
        a = fn.args
        names = [p.arg for p in params + a.kwonlyargs]
        names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.update(f"{fn.name}.{p}" for p in names if p not in read)
    return out


def one_sided_defaults() -> set[str]:
    """"function.parameter" for every default that no package call leaves
    out or no package call overrides.  A call is matched to a function
    by name; a call that spreads ``*args`` or ``**kwargs`` counts as
    neither."""
    trees = package_trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    out = set()
    for fn, params in functions(trees):
        a = fn.args
        defaulted = [(i, p.arg) for i, p in enumerate(params)
                     if i >= len(params) - len(a.defaults)]
        defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs,
                                                    a.kw_defaults)
                      if d is not None]
        for i, name in defaulted:
            left_out = overridden = False
            for call in calls.get(fn.name, []):
                if any(isinstance(x, ast.Starred) for x in call.args) \
                        or any(k.arg is None for k in call.keywords):
                    continue
                given = (i is not None and i < len(call.args)) \
                    or any(k.arg == name for k in call.keywords)
                overridden |= given
                left_out |= not given
            if not (left_out and overridden):
                out.add(f"{fn.name}.{name}")
    return out


def test_only_the_exclusion_chain_is_unreached():
    assert unreached_names() == set(UNREACHED)


def test_every_parameter_is_read():
    assert unread_parameters() == set()


def test_every_default_is_both_left_out_and_overridden():
    found = {d for d in one_sided_defaults() if d.split(".")[0] not in CHAIN}
    assert found == set(ONE_SIDED_DEFAULTS)
