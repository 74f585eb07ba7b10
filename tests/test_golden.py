"""The payloads are checked, not claimed: golden outputs in ``tests/golden/``.

``tests/golden/`` holds what ``verify-all --json`` prints for seeds 0-9 and
11, and what ``resolve``, ``particle`` and ``string --residuals`` print and
write on ``tests/test_reach.py``'s inputs, with the build that made them in
``PROVENANCE`` (numpy, BLAS and Python versions).  On that build every output
must be the same bytes.  On another build the byte-identity contract does not
reach (LAPACK's last digits may differ), so the text between the numbers must
match and every number must agree within ``REL`` of the larger modulus plus
``ABS``, which covers residuals at rounding level; the failure reports the
worst ratio of a gap to that bound.

A change that moves a payload on purpose writes the files again:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import platform
import re
import tempfile
from pathlib import Path

import numpy as np

from cliffdyn.cli import main
from test_reach import _write_inputs

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (*range(10), 11)
REL, ABS = 1e-6, 1e-9
NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def provenance() -> bytes:
    """The line naming this process's numpy, BLAS and Python versions."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}; BLAS {blas['name']} {blas['version']}; "
            f"Python {platform.python_version()}\n").encode()


def outputs(work: Path) -> dict[str, bytes]:
    """Every golden output made afresh under ``work``, keyed by its path in ``tests/golden``."""
    _write_inputs(work)
    commands = {f"verify-all-seed{seed}": ["verify-all", "--json", "--seed", str(seed)]
                for seed in SEEDS}
    commands |= {"resolve": ["resolve", "--input", str(work / "H.json")],
                 "particle": ["particle", "--config", str(work / "p.json")],
                 "string": ["string", "--config", str(work / "s.json"), "--residuals"]}
    made = {}
    for name, argv in commands.items():
        stdout, out = io.StringIO(), work / name
        if name in ("resolve", "particle", "string"):
            argv = [*argv, "--out", str(out)]
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, name
        if out.is_dir():
            made |= {f"{name}/{path.name}": path.read_bytes() for path in sorted(out.iterdir())}
            made[f"{name}/stdout.txt"] = stdout.getvalue().encode()
        else:
            made[f"{name}.json"] = stdout.getvalue().encode()
    return made


def worst_ratio(golden: bytes, made: bytes) -> float:
    """The largest gap between matching numbers of two outputs over its bound
    REL max(|a|, |b|) + ABS; infinite if the text around the numbers differs."""
    a, b = (NUMBER.split(text.decode()) for text in (golden, made))
    if len(a) != len(b) or a[::2] != b[::2]:
        return float("inf")
    x, y = (np.array(parts[1::2], dtype=float) for parts in (a, b))
    gaps = np.abs(x - y) / (REL * np.maximum(np.abs(x), np.abs(y)) + ABS)
    return float(gaps.max(initial=0.0))


def test_outputs_match_their_golden_files(tmp_path):
    made = outputs(tmp_path)
    golden = {str(path.relative_to(GOLDEN)): path.read_bytes()
              for path in GOLDEN.rglob("*") if path.is_file() and path.name != "PROVENANCE"}
    assert sorted(made) == sorted(golden)
    ratios = {name: worst_ratio(golden[name], made[name]) for name in made}
    worst = max(ratios, key=ratios.get)
    if (GOLDEN / "PROVENANCE").read_bytes() == provenance():
        changed = [name for name in made if made[name] != golden[name]]
        assert changed == [], f"worst field ratio {ratios[worst]:.3g} in {worst}"
    else:
        assert ratios[worst] <= 1.0, f"worst field ratio {ratios[worst]:.3g} in {worst}"


def test_worst_ratio_takes_each_field_to_its_bound():
    golden = b'{"gap": 2.5e-15, "x": [1.0, -0.25], "rows": "x0,x1"}\n'
    assert worst_ratio(golden, golden) == 0.0
    # one ulp of x is far within the bound; a relative change of 1e-5 is not
    ulp = golden.replace(b"1.0,", repr(float(np.nextafter(1.0, 2.0))).encode() + b",")
    assert ulp != golden and 0 < worst_ratio(golden, ulp) < 1e-3
    assert worst_ratio(golden, golden.replace(b"-0.25", b"-0.2500025")) > 1.0
    # a rounding-level residual may move by its own size
    assert worst_ratio(golden, golden.replace(b"2.5e-15", b"7.1e-15")) < 1e-5
    assert worst_ratio(golden, golden.replace(b"rows", b"cols")) == float("inf")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for name, text in outputs(Path(work)).items():
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN / name).write_bytes(text)
    (GOLDEN / "PROVENANCE").write_bytes(provenance())
