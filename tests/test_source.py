"""Source audit: every function, class and method in `src/` has a reference
there besides its definition, save the library API listed here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "graphon_hawkes"

# Library API with no caller in `src/`: each docstring says which construct of
# the paper it computes and which test checks it.
LIBRARY_API = {
    ("cluster_sim", "population_count"),
    ("cluster_sim", "simulate_cluster"),
    ("metrics", "poincare_check"),
    ("operators", "apply_kernel"),
    ("transforms", "interchange_experiment"),
    ("transforms", "mc_population_transform"),
    ("transforms", "phi_apply"),
}


def unreferenced_definitions(src: Path) -> set:
    """(module, name) of each def and class of the package whose name no
    name, attribute or import in the package reads; dunders are skipped."""
    defs, refs = set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.add((path.stem, node.name))
            elif isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return {(module, name) for module, name in defs
            if name not in refs and not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_in_src_is_used_there_or_is_library_api():
    assert unreferenced_definitions(SRC) == LIBRARY_API


def test_the_audit_finds_a_definition_nobody_reads(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\ndef unused():\n    used()\n")
    (tmp_path / "b.py").write_text("from .a import used\n\n\nclass Lone:\n    def m(self):\n"
                                   "        return self.m\n")
    assert unreferenced_definitions(tmp_path) == {("a", "unused"), ("b", "Lone")}
