"""Report bytes are pinned: `analyze --checks all` on six small maps and on
the defining f666 d=5 and f667 d=4, whose `jc_minus` inverses are large, and
`analyze --checks jc,jc-plus` on three maps that fail JC or JC+.

The sha256 of each small report, and the exit code, were computed before the
arithmetic kernels were merged into one sum-of-products kernel; the two large
ones before the inverse was built in batches and reports were written without
`json`; the JC/JC+ ones while both were decided by the determinant in
n + count n variables.  The six maps that fail `quasi` were re-pinned when
its witness became the first nonzero entry of JH H.  A change that alters
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
    "n4-d3": (1, "c6d0efd5e5b288b51c5dde4f912f9f9a17ee8b881c0c864095be60c489f18c08"),
    "n5-d2": (1, "3896a3786d1360e45866cb0fbe26d98c5854eba2636ac627253c5d84bb201ef1"),
    "f666-d3": (1, "b35d507807cfbe74c99ac4d37ea1d07da746306091275a21a016dea731be454c"),
    "small3-d3": (1, "c7692d1b9c2f4a3495d0f61b0959a12f35e937fc382a24ddf26d22e6e693dc99"),
    "conj-n5-d2": (1, "f1d0ef191fa7fea066433ab4af1ed7a9d6c3f29af461a1c963145042c7c009f8"),
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
