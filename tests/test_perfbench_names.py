"""Every name the traced benchmark run wraps still exists in the package.

``perfbench/tracer.py`` patches the functions listed in
``perfbench/layers.py`` and fails at patch time on a name that no longer
resolves, so a renamed or reshaped function would break the traced run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path


def _layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _layers()


def _resolve(layer: str, name: str):
    """The function the tracer wraps: a module attribute, or Class.method from the class dict."""
    module = importlib.import_module(f"cliffdyn.{layer}")
    owner, _, attr = name.rpartition(".")
    if owner:
        return vars(getattr(module, owner, object)).get(attr)
    return getattr(module, attr, None)


def test_every_traced_name_resolves():
    missing = [f"{layer}.{name}" for layer, table in LAYERS.TRACED.items() for name in table
               if not callable(_resolve(layer, name))]
    assert missing == []


def test_step_counted_functions_take_steps():
    lacking = [f"{layer}.{name}" for layer, names in LAYERS.STEP_COUNTED.items() for name in names
               if "steps" not in inspect.signature(_resolve(layer, name)).parameters]
    assert lacking == []
