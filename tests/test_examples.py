"""Repository hygiene for the examples/ directory.

Examples are documentation that must not rot: each one needs a module
docstring with run instructions, a ``main()`` entry point behind the
standard guard, and imports that resolve against the installed package.
(CI's examples job runs each one to completion.)
"""

from __future__ import annotations

import ast
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[1] / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def example_ids():
    return [p.name for p in EXAMPLE_FILES]


class TestExamplesHygiene:
    def test_example_directory_is_substantial(self):
        assert len(EXAMPLE_FILES) >= 3  # deliverable: at least three

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=example_ids())
    def test_has_run_instructions_in_docstring(self, path):
        tree = ast.parse(path.read_text())
        doc = ast.get_docstring(tree)
        assert doc, f"{path.name} lacks a module docstring"
        assert f"python examples/{path.name}" in doc, (
            f"{path.name} docstring lacks run instructions"
        )

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=example_ids())
    def test_has_main_behind_guard(self, path):
        tree = ast.parse(path.read_text())
        names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert "main" in names, f"{path.name} lacks a main() function"
        guards = [
            n for n in tree.body
            if isinstance(n, ast.If) and isinstance(n.test, ast.Compare)
        ]
        assert guards, f"{path.name} lacks the __main__ guard"

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=example_ids())
    def test_imports_resolve(self, path):
        import importlib

        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                if module.split(".")[0] in ("repro",):
                    importlib.import_module(module)
