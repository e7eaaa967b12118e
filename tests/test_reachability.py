"""Every public function, method and class of margbounds is referenced from
the package's own source, outside its own definition, or is on the
allowlist below with the reason it stays.

References are matched by name, as an ast.Name or an ast.Attribute
anywhere in src/margbounds: an import or an __all__ entry is not a use, and
a call from inside the definition itself (recursion, self.method in the
method) does not count.  Matching by name cannot tell two methods of one
name apart, so the guard errs towards "reached".
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "margbounds"

ALLOWLIST = {
    "bounds.bound_box1": "box-section bound of the paper, checked by acceptance 05 until a boxes campaign runs it",
    "bounds.bound_box2": "box-section bound of the paper, checked by acceptance 05 until a boxes campaign runs it",
    "bounds.frame_constant_check": "the proof's frame-constant step, which the per-trial Brascamp-Lieb check will run",
    "grassmann.frame_of_complement": "the proof's tight frame of E-perp, which the per-trial Brascamp-Lieb check will run",
    "grassmann.parallelepiped_projection_check": "the paper's parallelepiped projection identity, awaiting a campaign",
    "sections.sharp_block_subspace": "first sharpness case of the paper, the seed of the extremal-configuration hunt",
    "sections.sharp_paired_subspace": "the 2^{k/2} sharpness case of the paper, the seed of the extremal-configuration hunt",
    "densities.StepDensity.lp_norm": "the L^p norms of the factors in the Brascamp-Lieb step of the proof",
    "marginals.marginal_at": "one exact marginal, the name perfbench's tracer patches and counts",
    "marginals.rogozin_check": "one-trial rogozin, called by perfbench's tracer self-test",
    "grassmann.Subspace.coordinate": "test fixture: coordinate subspaces give zero frame rows and split frames",
    "densities.random_density": "test fixture: one random factor, the reference of the one-pass product draw",
}


def _definitions(tree, module):
    """(qualified name, name) of the module's public functions and classes and
    of the public methods of its public classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{module}.{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def _references(tree, module):
    """(name, enclosing scopes) of every ast.Name and ast.Attribute."""
    refs = []

    def visit(node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scopes = scopes + (node.name,)
        if isinstance(node, ast.Name):
            refs.append((node.id, scopes))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, scopes))
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(tree, (module,))
    return refs


def _unreferenced(src=SRC) -> tuple[set, set]:
    """(names defined, names with no reference outside their definition)."""
    defs, refs = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs += _definitions(tree, path.stem)
        refs += _references(tree, path.stem)
    unreferenced = set()
    for qual, name in defs:
        own = tuple(qual.split("."))
        if not any(ref == name and scopes[: len(own)] != own for ref, scopes in refs):
            unreferenced.add(qual)
    return {qual for qual, _ in defs}, unreferenced


def test_every_public_name_is_reached_from_src_or_allowlisted():
    defined, unreferenced = _unreferenced()
    assert unreferenced - ALLOWLIST.keys() == set()
    # no stale entries: each one names a definition that src does not reach
    assert ALLOWLIST.keys() <= defined
    assert ALLOWLIST.keys() <= unreferenced
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_the_guard_sees_a_function_that_only_calls_itself(tmp_path):
    (tmp_path / "m.py").write_text(
        "def used():\n    return 1\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else used()\n\n"
        "class C:\n    def method(self):\n        return self.method()\n"
    )
    defined, unreferenced = _unreferenced(tmp_path)
    assert defined == {"m.used", "m.lonely", "m.C", "m.C.method"}
    assert unreferenced == {"m.lonely", "m.C", "m.C.method"}
