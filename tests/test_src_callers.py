"""src/gmetro holds only code that the program itself uses.

Every public function, class, method and annotated class field defined in
src/gmetro must be referenced from src/, scripts/ or perfbench/*.py; code
and values that only the tests use belong in tests/reference.py.  A
reference is an ``ast`` Name, an Attribute, a keyword argument or a string
constant equal to the name (perfbench's tracer patches functions by name),
so the check goes by name, not by binding.  A field's own definition is not
a reference to it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gmetro"

# definitions kept without a caller, and why
ALLOWED = {
    "spectral_occupancy": "models the management channel's spectral mask",
    "path_gain": "perfbench's tracer wraps it until the benchmark is repointed",
    "crosstalk_margin": "perfbench's tracer wraps it until the benchmark is repointed",
    "PathGainResult": "the result type of path_gain",
    "SweepPlan.worst_case_s": "the liveness bound a sweep must meet",
}


def _referenced_names() -> set[str]:
    files = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        tree = ast.parse(path.read_text())
        fields = {id(sub.target) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for sub in node.body if isinstance(sub, ast.AnnAssign)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in fields:
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _public_definitions():
    """(qualified name, bare name) of each public top-level function and
    class in src/gmetro, and of each public method and annotated field of
    those classes."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name
                    elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name) \
                            and not sub.target.id.startswith("_"):
                        yield f"{node.name}.{sub.target.id}", sub.target.id


def test_every_public_definition_in_src_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    defined = dict(_public_definitions())
    unused = sorted(q for q, name in defined.items() if name not in referenced and q not in ALLOWED)
    assert unused == [], "only tests use these; move them to tests/reference.py"
    assert set(ALLOWED) <= defined.keys(), "allowlist names a definition that is gone"
