"""Report bytes are pinned: `analyze --checks all` on six small maps and on
the defining f666 d=5 and f667 d=4, whose `jc_minus` inverses are large, and
`analyze --checks jc,jc-plus` on three maps that fail JC or JC+.

The sha256 of each small report, and the exit code, were computed before the
arithmetic kernels were merged into one sum-of-products kernel; the two large
ones before the inverse was built in batches and reports were written without
`json`; the JC/JC+ ones while both were decided by the determinant in
n + count n variables.  The six maps that fail `quasi` were re-pinned when
its witness became the first nonzero entry of JH H, and the three that fail
strong nilpotence (n4-d3, n5-d2, conj-n5-d2) when their `doublestar` and
`triplestar` came to fail with the flag's word.  A change that alters
witness bytes on purpose updates these pins and says so.
"""

import hashlib

from kellerlab import cli, serialize
from kellerlab.constructions import FamilySpec, make_family
from kellerlab.polymap import PolyMatrix, conjugate

# (family, degree, dimension, +-1 change of basis or None for the defining form)
MAPS = {
    "n4-d3": ("n4", 3, None, None),
    "n5-d2": ("n5", 2, None, None),
    "f666-d3": ("f666", 3, None, None),
    "small3-d3": ("small3", 3, None, None),
    "conj-n5-d2": ("n5", 2, None, [[-1, 0, -1, 0, 0], [0, 0, 0, 1, -1], [0, 1, 1, 0, 0],
                                   [-1, 0, 0, 0, -1], [-1, -1, 0, 0, 0]]),
    "conj-f667-d2-n4": ("f667", 2, 4, [[0, 0, 1, -1], [0, 0, 1, 1], [1, 0, 1, 0],
                                       [1, 1, 0, 0]]),
    "f666-d5": ("f666", 5, None, None),
    "f667-d4": ("f667", 4, None, None),
}

# `analyze --checks jc,jc-plus`: point witnesses on the conjugated maps (the
# workload's T at seed 1), the symbolic determinant on nonhomog_n4 d=5
SUM_MAPS = {
    "conj-n4-d5": ("n4", 5, None, [[1, 0, 0, -1], [-1, 0, 1, 0], [1, 0, 1, 0], [0, 1, -1, 0]]),
    "conj-n5-d3": ("n5", 3, None, [[1, 0, 0, 1, 0], [-1, 0, 0, 0, -1], [1, 0, 1, 0, 0],
                                   [0, 1, 1, 0, 0], [0, 0, 1, 0, 1]]),
    "nonhomog_n4-d5": ("nonhomog_n4", 5, None, None),
}

PINNED = {
    "n4-d3": (1, "3f1d133a79e9ab456d0e56c360f10656b80cbb162c8225ee47622e9f765f89a3"),
    "n5-d2": (1, "fc53c0d9ef1d4bb1c1dbc9c705661d3554567ed07f12b31d0bfda3c3fabf945e"),
    "f666-d3": (1, "b35d507807cfbe74c99ac4d37ea1d07da746306091275a21a016dea731be454c"),
    "small3-d3": (1, "c7692d1b9c2f4a3495d0f61b0959a12f35e937fc382a24ddf26d22e6e693dc99"),
    "conj-n5-d2": (1, "f13c748482fe74e0f9f393fe578233e168dc8b6f76ab06fb92c43597ea6a36c6"),
    "conj-f667-d2-n4": (1, "9dfd6a1c348c8d97221704c2babe9b2dcb2506908f3d5758143d4590b4c883c2"),
    "f666-d5": (1, "e846f80130147f9e25358af4fcd6fd5fd5619947fbb7f3a8f059ca87dacfebff"),
    "f667-d4": (1, "156542c8c2c14d8017096d409a1cb01c16e9ad1f0a355d9bb9367c449180c0f2"),
}


SUM_PINNED = {
    "conj-n4-d5": (1, "73e4b595e839304630ee97a917a79cc0f8dd168c39ee692fbd5764d702f9605c"),
    "conj-n5-d3": (0, "f005f8aa0d3a46f8d9f2b33a98b099416da2b233f91d21c77a70aea07f56205d"),
    "nonhomog_n4-d5": (1, "3726208dc0b194ab6fcd41f41490ba1bfcc9e50c7047e60fccf2fd4c3df4d724"),
}


def analyze_all(tmp_path, name, maps=MAPS, checks="all"):
    """(exit code, report bytes) of `analyze --checks <checks>` on one of `maps`."""
    kind, d, n, t = maps[name]
    h = make_family(FamilySpec(kind, d, n=n))
    if t is not None:
        h = conjugate(h, PolyMatrix.from_scalars(h.field, h.nvars, t))
    path, report = tmp_path / f"{name}.json", tmp_path / f"{name}.report.json"
    path.write_text(serialize.dumps(serialize.map_to_json(h)), encoding="utf-8")
    code = cli.main(["analyze", str(path), "--checks", checks, "--report", str(report)])
    return code, report.read_bytes()


def test_reports_match_their_pins(tmp_path, capsys):
    got = {}
    for name in MAPS:
        code, data = analyze_all(tmp_path, name)
        got[name] = (code, hashlib.sha256(data).hexdigest())
    capsys.readouterr()
    assert got == PINNED


def test_sum_condition_reports_match_their_pins(tmp_path, capsys):
    got = {}
    for name in SUM_MAPS:
        code, data = analyze_all(tmp_path, name, SUM_MAPS, "jc,jc-plus")
        got[name] = (code, hashlib.sha256(data).hexdigest())
    capsys.readouterr()
    assert got == SUM_PINNED
