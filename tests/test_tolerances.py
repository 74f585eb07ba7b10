"""Tolerances carries no dead state: the package reads every field."""

import ast
import dataclasses
from pathlib import Path

import cliffdyn
from cliffdyn.tolerances import Tolerances


def _attribute_reads(source: str) -> set[str]:
    """Names of attributes loaded in source, leaving out method calls such as x.name()."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in called}


def test_every_tolerance_field_is_read():
    read = set()
    for path in Path(cliffdyn.__file__).parent.glob("*.py"):
        if path.name == "tolerances.py":
            continue
        read.update(_attribute_reads(path.read_text()))
    unread = [f.name for f in dataclasses.fields(Tolerances) if f.name not in read]
    assert not unread, f"Tolerances fields that no code reads: {unread}"


def test_method_call_is_not_a_read():
    assert _attribute_reads("traj.charge_drift()\ntols.mu_match") == {"mu_match"}
