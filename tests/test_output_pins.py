"""Byte pins on CLI stdout for paths the benchmark's pinned digests do not cover.

Each digest is the sha256 of the whole stdout of one `poolgraph` call,
recorded at commit 8164230, before the exact output path was moved to
integer-only evaluation. A change to how probabilities are evaluated, how a
delta grid is expanded or how a value is rendered must leave them as they are.
"""

import hashlib
import json

import pytest

from poolgraph.cli import main

# An irregular n=12 spec with two test degrees, which no benchmark spec has.
IRREGULAR_12 = {
    "n": 12,
    "m": 8,
    "lambda": [{"degree": 2, "num": 1, "den": 2}, {"degree": 4, "num": 1, "den": 2}],
    "rho": [{"degree": 3, "num": 1, "den": 2}, {"degree": 6, "num": 1, "den": 2}],
}

PINS = {
    "analyze-dd-12-grid": (
        ["analyze", "--regular", "12,3,6", "--algorithm", "dd", "--delta-grid", "0:1:1/7", "--precision", "30"],
        "c2f1f4f6150a22bc79087dd51dc10c59cfe58e2fe4685c53f08cc0ab2e6c666e",
    ),
    "analyze-comp-irregular-12": (
        ["analyze", "--spec", "{spec}", "--algorithm", "comp", "--delta", "1/3"],
        "7538e194293ce900c8e8bb1084107af3e053b5e70436fcac0fc8470e3c126da4",
    ),
    "enumerate-comp-8": (
        ["enumerate", "--regular", "8,2,4", "--algorithm", "comp", "--precision", "3"],
        "b8be2a0383b25bfe78678c74dd8918860030c65f2478b328d54f5e2b9433f31f",
    ),
    "simulate-comp-12-analytic": (
        ["simulate", "--regular", "12,3,6", "--algorithm", "comp", "--delta-grid", "1/20,1/10",
         "--graphs", "4", "--patterns", "200", "--analytic"],
        "23b54a42c220e83e3481d75965578a0089607956dfb3d7e174227f64641461dc",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_cli_stdout_bytes_are_pinned(name, tmp_path, capsys):
    argv, pinned = PINS[name]
    spec = tmp_path / "irregular-12.json"
    spec.write_text(json.dumps(IRREGULAR_12), encoding="utf-8")
    assert main([arg.format(spec=spec) for arg in argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == pinned
