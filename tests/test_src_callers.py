"""src/gmetro holds only code that the program itself uses.

Every public function, class and method defined in src/gmetro must be
referenced from src/, scripts/ or perfbench/*.py; code that only the tests
call belongs in tests/reference.py.  A reference is an ``ast`` Name, an
Attribute or a string constant equal to the name (perfbench's tracer patches
functions by name), so the check goes by name, not by binding.
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
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _public_definitions():
    """(qualified name, bare name) of each public top-level function and
    class in src/gmetro, and of each public method of those classes."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name


def test_every_public_definition_in_src_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    defined = dict(_public_definitions())
    unused = sorted(q for q, name in defined.items() if name not in referenced and q not in ALLOWED)
    assert unused == [], "only tests use these; move them to tests/reference.py"
    assert set(ALLOWED) <= defined.keys(), "allowlist names a definition that is gone"
