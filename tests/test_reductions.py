"""No running max or min in the package: Python's max(0.0, nan) is 0.0, so a NaN would pass a gate."""

import ast
from pathlib import Path

import cliffdyn


def _running_reductions(source: str) -> list[int]:
    """Lines of ``x = max(x, ...)`` or ``x = min(x, ...)`` in source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in ("max", "min")):
            continue
        name = node.targets[0].id
        if any(isinstance(arg, ast.Name) and arg.id == name for arg in node.value.args):
            lines.append(node.lineno)
    return lines


def test_no_running_max_or_min():
    sites = [f"{path.name}:{line}"
             for path in sorted(Path(cliffdyn.__file__).parent.glob("*.py"))
             for line in _running_reductions(path.read_text())]
    assert not sites, f"running max/min drops NaN; reduce an array with np.max/np.min: {sites}"


def test_guard_finds_the_pattern():
    source = ("worst = max(worst, err)\n"
              "low = min(1.0, low)\n"
              "scale = max(1.0, abs(v))\n"
              "worst = float(np.max(errors))\n")
    assert _running_reductions(source) == [1, 2]
