"""Report bytes are pinned: `analyze --checks all` on six small maps and on
the defining f666 d=5 and f667 d=4, whose `jc_minus` inverses are large, and
`analyze --checks jc,jc-plus` on three maps that fail JC or JC+.

The sha256 of each small report, and the exit code, were computed before the
arithmetic kernels were merged into one sum-of-products kernel; the two large
ones before the inverse was built in batches and reports were written without
`json`; the JC/JC+ ones while both were decided by the determinant in
n + count n variables.  A change that alters witness bytes on purpose updates
these pins and says so.
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
    "n5-d2": (1, "ca7d2990ea42004a9dcd6ab70a6cab0b7f495411e3fbc19feead6c200ea48097"),
    "f666-d3": (1, "8d2d8a58c3cb3d3a048e828c534b26e4aa28c22cc26c85a32010363644b62bf5"),
    "small3-d3": (1, "c7692d1b9c2f4a3495d0f61b0959a12f35e937fc382a24ddf26d22e6e693dc99"),
    "conj-n5-d2": (1, "a5f8c2cfcd33a990f9df0c21c1512d0f81744bb5b5a18d8d042dea31e11a94be"),
    "conj-f667-d2-n4": (1, "4f7e7bcd703cee0e573c20a946d5e34ba3224b020209893694edd096722716cb"),
    "f666-d5": (1, "58eca9f03b1671062c1ba9b53656ddd92dfca656b46184e060dd697f917545e8"),
    "f667-d4": (1, "5b12dee84ef9aefbbf23dea118852b2d017f89b7713563ef5b7586b278c146e7"),
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
