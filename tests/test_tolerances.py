"""Tolerances carries no dead state: the package reads every field."""

import ast
import dataclasses
from pathlib import Path

import cliffdyn
from cliffdyn.tolerances import Tolerances


def test_every_tolerance_field_is_read():
    read = set()
    for path in Path(cliffdyn.__file__).parent.glob("*.py"):
        if path.name == "tolerances.py":
            continue
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = [f.name for f in dataclasses.fields(Tolerances) if f.name not in read]
    assert not unread, f"Tolerances fields that no code reads: {unread}"
