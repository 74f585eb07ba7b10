"""Tolerances carries no dead state: the package reads every field.

A field is read either as an attribute (``tols.mu_match``) or by name as the
bound of an acceptance gate (``Gate(field, value, "mu_match")``, or the
half-width of a ``Window``), which the gate looks up on the Tolerances.
"""

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


def _gate_bounds(source: str) -> set[str]:
    """String bounds of Gate(field, value, bound) and half-widths of Window(centre, half_width)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            index = {"Gate": 2, "Window": 1}.get(node.func.id)
            arg = node.args[index] if index is not None and len(node.args) > index else None
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.add(arg.value)
    return names


def test_every_tolerance_field_is_read():
    read = set()
    for path in Path(cliffdyn.__file__).parent.glob("*.py"):
        if path.name == "tolerances.py":
            continue
        read.update(_attribute_reads(path.read_text()))
        read.update(_gate_bounds(path.read_text()))
    unread = [f.name for f in dataclasses.fields(Tolerances) if f.name not in read]
    assert not unread, f"Tolerances fields that no code reads: {unread}"


def test_method_call_is_not_a_read():
    assert _attribute_reads("traj.charge_drift()\ntols.mu_match") == {"mu_match"}


def test_only_a_gate_bound_string_is_a_read():
    source = ('Gate("mu", v, "mu_match")\nGate("n", n)\nGate("z", v, 0.0)\n'
              'Window(2, "fd_order_window")\nprint("stationarity")\nf("x", v, "trace_vanish")')
    assert _gate_bounds(source) == {"mu_match", "fd_order_window"}
