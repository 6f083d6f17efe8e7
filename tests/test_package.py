"""What the package holds: every public top-level function or class of a
``cornerwave`` module is named by some package code besides its own
definition, apart from the exclusion-chain checks that the verdict is
to call.  Closed-form cross-checks that only tests call live in
``tests/references.py``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cornerwave"

# the Weiss, frequency and Bernstein checks and the first variation
# under a bump field: the paper's exclusion chain, not yet in the verdict
CHAIN = {"check_monotonicity", "check_frequency_bound", "check_bernstein",
         "domain_variation_residual", "bump_vector_field"}


def names_used(tree: ast.AST) -> set[str]:
    """Every name a module reads, as a bare name, an attribute or an
    imported name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def unreached_names() -> set[str]:
    """Public top-level functions and classes of the package modules that
    no package code names apart from their own definition; the
    re-exports of ``__init__`` do not count as a use."""
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    used = set().union(*map(names_used, trees))
    return {node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used}


def test_only_the_exclusion_chain_is_unreached():
    assert unreached_names() == CHAIN
