"""Every row of the mutant catalogue must stay runnable.

tests/mutants.py applies each mutant as one exact text replacement in
src/sqdenom; a refactor that moves a mutant's old text would only show
as a "missing" outcome when the catalogue runs, which the test suite
never does, and so would a renamed test.  This reads the rows from the
file itself and checks them without running any mutant.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.py"


def _load_mutants():
    spec = importlib.util.spec_from_file_location("sqdenom_mutants", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _test_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_every_mutant_row_applies():
    for mutant in _load_mutants().MUTANTS:
        text = (ROOT / "src" / "sqdenom" / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        for test in mutant.tests:
            path, _, name = test.partition("::")
            assert (ROOT / path).is_file(), (mutant.name, test)
            # a row names a whole file, or one test function defined in it
            assert not name or name in _test_functions(ROOT / path), (mutant.name, test)
        if mutant.expect == "equivalent":
            assert mutant.reason, mutant.name
