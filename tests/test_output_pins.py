"""Byte pins on CLI stdout for paths the benchmark's pinned digests do not cover.

Each digest is the sha256 of the whole stdout of one `poolgraph` call. The
enumerate, analyze and simulate digests were recorded at commit 8164230,
before the exact output path was moved to integer-only evaluation; the
verify digests at commit 8c325bb, before tables became integer rows (the
benchmark checks only that a verify report says "all cells match"); the
irregular simulate and the two-degree verify digests at commit aa34247,
before a spec owned its degree classes and socket layout (no other pin
samples or walks a layout with two degrees on each side); the MIX20 and
THREE24 DD digests and the single-delta analytic simulate digest at commit
36f5bf5, before DD's ordinary-test rows had one closed form for any number
of test degrees. A
change to how probabilities are evaluated, how a delta grid is expanded, how
a value is rendered or how a table is walked must leave them as they are.
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
# Two degrees on each side at n=20: DD's ordinary tests mix two test degrees in every H_o row.
MIX20 = {
    "n": 20,
    "m": 10,
    "lambda": [{"degree": 2, "num": 1, "den": 2}, {"degree": 4, "num": 1, "den": 2}],
    "rho": [{"degree": 4, "num": 1, "den": 2}, {"degree": 8, "num": 1, "den": 2}],
}
# Three test degrees at n=24, past the n=12 of the enumerator's three-test-degree digests.
THREE24 = {
    "n": 24,
    "m": 12,
    "lambda": [{"degree": 3, "num": 1, "den": 1}],
    "rho": [{"degree": 4, "num": 1, "den": 3}, {"degree": 6, "num": 1, "den": 3}, {"degree": 8, "num": 1, "den": 3}],
}
# An irregular n=3 spec with 4 edges, within the oracle's reach (perfbench/specs/mixed-3.json).
MIXED_3 = {
    "n": 3,
    "m": 2,
    "lambda": [{"degree": 1, "num": 2, "den": 3}, {"degree": 2, "num": 1, "den": 3}],
    "rho": [{"degree": 2, "num": 1, "den": 1}],
}
# Two degrees on each side and 6 edges: the oracle walks two socket classes per side.
TWO_DEGREES_4 = {
    "n": 4,
    "m": 2,
    "lambda": [{"degree": 1, "num": 1, "den": 2}, {"degree": 2, "num": 1, "den": 2}],
    "rho": [{"degree": 2, "num": 1, "den": 2}, {"degree": 4, "num": 1, "den": 2}],
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
    "verify-dd-4": (
        ["verify", "--regular", "4,2,2", "--algorithm", "dd"],
        "cd4f14e2ba999b1f6878364d5afeb2eef005235db5bce62c9a72aa97ea06a2af",
    ),
    "verify-comp-4": (
        ["verify", "--regular", "4,2,2", "--algorithm", "comp"],
        "be035a54c00a1bb4e6b04bf748dc5632e803920a71ccf652075b126ec0bfba71",
    ),
    "verify-dd-mixed-3": (
        ["verify", "--spec", "{mixed}", "--algorithm", "dd"],
        "4ad0af4013389d46a1c4995e8a1ae188beb2d999da0246775afbe66200c055cc",
    ),
    "simulate-dd-irregular-12": (
        ["simulate", "--spec", "{spec}", "--algorithm", "dd", "--delta-grid", "1/10,1/3",
         "--graphs", "5", "--patterns", "300", "--seed", "7"],
        "141e4531ead4eeebc5a5af2b450d76fd361bd9989dc68911ebb1ae5c141d6c38",
    ),
    "enumerate-dd-mix20": (
        ["enumerate", "--spec", "{mix20}", "--algorithm", "dd"],
        "9af313544e453183377f922f8278a5fa9c1fbbecdebfa73cc32bf72cb9002048",
    ),
    "analyze-dd-three24": (
        ["analyze", "--spec", "{three24}", "--algorithm", "dd", "--delta-grid", "1/20:1/4:1/20"],
        "99d8e4e13a8645a864acb20c12f3f2bd7c9cf0a42c8cafd02c6efd2c763a60e6",
    ),
    "simulate-dd-12-analytic": (
        ["simulate", "--regular", "12,3,6", "--algorithm", "dd", "--delta", "1/10", "--graphs", "5",
         "--patterns", "300", "--seed", "7", "--analytic", "--workers", "2"],
        "f48593f495a63eb9be6fc60609c4012a29353759fa3985db76ff17935acb129e",
    ),
    "verify-dd-two-degrees-4": (
        ["verify", "--spec", "{two}", "--algorithm", "dd"],
        "01fb90bea6788be9a062d536f60673e3d81650ef256f60a40575c164da890225",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_cli_stdout_bytes_are_pinned(name, tmp_path, capsys):
    argv, pinned = PINS[name]
    files = {"spec": IRREGULAR_12, "mixed": MIXED_3, "two": TWO_DEGREES_4, "mix20": MIX20, "three24": THREE24}
    paths = {key: tmp_path / f"{key}.json" for key in files}
    for key, obj in files.items():
        paths[key].write_text(json.dumps(obj), encoding="utf-8")
    assert main([arg.format(**paths) for arg in argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == pinned
