"""Every module of the package computes in real arithmetic; complex
amplitudes live on only in the tests' references."""
import ast
from pathlib import Path

import pytest

import holonoise

PACKAGE = Path(holonoise.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
# the tests' complex arm route, which the oracle's real arms are
# checked against
COMPLEX_REFERENCE = Path(__file__).parent / "fock_reference.py"


def complex_uses(path: Path) -> list[tuple[int, str]]:
    """(line, construct) for each complex literal, ``.real``, ``.imag``,
    ``conj`` or ``dtype=complex...`` in the module's code; docstrings and
    comments are not code."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, complex):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Attribute) and node.attr in ("real", "imag", "conj", "conjugate"):
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Name) and node.id in ("conj", "conjugate"):
            found.append((node.lineno, node.id))
        elif (isinstance(node, ast.keyword) and node.arg == "dtype"
              and "complex" in ast.unparse(node.value)):
            found.append((node.lineno, f"dtype={ast.unparse(node.value)}"))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_computes_in_real_arithmetic(module):
    assert complex_uses(PACKAGE / module) == []


def test_guard_sees_the_complex_arithmetic_of_the_reference():
    # the guard above passes the package only because it has no complex
    # arithmetic left, not because it cannot see any
    assert complex_uses(COMPLEX_REFERENCE)
