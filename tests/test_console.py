"""The `deteval` console script's cases, one row each. A row's steps run as the
installed script runs them, each in a fresh interpreter, in the row's own
directory; the row then checks exit statuses, paths, bytes and stderr."""

import os
import re
import shlex
from typing import NamedTuple

import pytest

# What the installed `deteval` script runs
_SCRIPT = "import sys; from deteval.cli import run; sys.exit(run())"

_TILE = "tile --ground-truth-dir {fx}/tiling --image-sizes-csv {fx}/tiling/image_sizes.csv"
_DESIRABILITY = "desirability --profile {fx}/desirability/profile.json --candidates {fx}/desirability/candidates.csv"
_TRUTH, _PREDS = "--ground-truth-dir {fx}/detection/truth", "--predictions-dir {fx}/detection/preds"
_REGISTRY = "--class-registry {fx}/detection/classes.txt"
_SPLIT_TILES = "split --ids-file {chain}/tile_ids.txt"


class Case(NamedTuple):
    """One case, run in an empty directory that holds `files`: path -> bytes, or a function of the
    fixture corpus that makes them. `steps` are (exit status, argv) pairs, run in order; argv is split
    as a shell splits it, then `{fx}` and `{chain}` in each word become the fixture corpus and the
    `chain` fixture's output dir. Then each path of `exist` is a file that is not empty, no path of
    `absent` exists, and each path of `same` holds these bytes, the bytes of the file at this path
    (formatted as argv words are) or, for a list, these directory entries. `lacks` is a path and a
    regex its text does not match; `stderr`, a regex the last step's stderr matches in full."""

    steps: list
    files: dict = {}
    exist: list = []
    absent: list = []
    same: dict = {}
    lacks: tuple | None = None
    stderr: str | None = None


def _edited(path: str, pattern: bytes, replacement: bytes, count: int):
    """The bytes of fixture file `path` with `pattern`, which must match exactly `count` times, replaced."""

    def make(fixtures):
        data, made = re.subn(pattern, replacement, (fixtures / path).read_bytes())
        assert made == count, (path, made)
        return data

    return make


def _words(line: str, tokens: dict) -> list[str]:
    return [word.format(**tokens) for word in shlex.split(line)]


def _refused(argv: str, files: dict = {}, **checks) -> Case:
    """A case of one step, which exits 2 and leaves its output dir `bad` unmade."""
    return Case([(2, "--output-dir bad " + argv)], files, absent=["bad"], **checks)


# The `high` of each of the fixture profile's four goals
_HIGH = rb'"high": ([0-9.]*)}'

CASES = {
    # bad input exits with status exactly 2: a string for a true/false key, a file as a directory
    "config-string-for-boolean": _refused(
        f"--config partial.json evaluate {_TRUTH} {_PREDS} {_REGISTRY}",
        {"partial.json": b'{"allow_partial": "false"}\n'}),
    "file-as-directory": _refused(f"evaluate --ground-truth-dir {{fx}}/detection/classes.txt {_PREDS} {_REGISTRY}"),
    # the raster path is gone: --images-dir is an unknown flag
    "images-dir-is-unknown": _refused("tile --ground-truth-dir {fx}/tiling --images-dir {fx}/tiling"),
    "config-fractional-seed": _refused("--config seed.json " + _SPLIT_TILES, {"seed.json": b'{"seed": 7.9}\n'}),
    "config-fractional-tile-width": _refused(
        "--config width.json " + _TILE, {"width.json": b'{"tile": {"width": 41.6}}\n'}),
    # every command refuses an augment operation that cannot run
    "config-zoom-without-area": _refused("--config zoom.json " + _SPLIT_TILES, {
        "zoom.json": b'{"augment": {"operations": [{"op": "zoom_random", "probability": 0.5}]}}\n'}),
    # 3 ids leave a partition empty at 15:3:2
    "ids-leave-a-partition-empty": _refused("split --ids-file three_ids.txt", {"three_ids.txt": b"a\nb\nc\n"}),
    "image-listed-twice": _refused("tile --ground-truth-dir {fx}/tiling --image-sizes-csv twice.csv", {
        "twice.csv": b"image_id,width_px,height_px\nfield01,1600,1300\nfield01,416,416\n"}),
    # background is the confusion matrix's row and column of unmatched boxes
    "registry-class-background": _refused(
        f"evaluate {_TRUTH} {_PREDS} --class-registry background.txt", {"background.txt": b"0 background\n1 bb\n"}),
    "image-size-past-tile-cap": _refused("tile --ground-truth-dir {fx}/tiling --image-sizes-csv huge.csv", {
        "huge.csv": b"image_id,width_px,height_px\nfield01,1600," + b"9" * 400 + b"\n"}),
    "sides-too-large-for-a-float": _refused(f"tile --ground-truth-dir {{fx}}/tiling --tile-size {'9' * 400}x416"
                                            f" --image-size {'9' * 400}x1300"),
    "samples-past-four-digits": _refused(f"augment {_TRUTH} --samples 10001"),
    # 243 bytes, one more than a pr_curve_<name>.csv file name can hold
    "class-name-too-long-for-a-file-name": _refused(
        f"evaluate {_TRUTH} {_PREDS} --class-registry long.txt", {"long.txt": b"0 " + b"x" * 243 + b"\n1 bb\n"}),
    # one number grammar, numpy's ASCII one, for every input
    "underscore-in-a-size": _refused("tile --ground-truth-dir {fx}/tiling --image-size 1_600x1300"),
    "malformed-size-names-its-flag": _refused(
        "tile --ground-truth-dir {fx}/tiling --tile-size 1_0x416", stderr=".*--tile-size.*"),
    "underscore-in-the-seed": _refused("--seed 1_0 " + _SPLIT_TILES),
    "profile-number-true": _refused("desirability --profile true.json --candidates {fx}/desirability/candidates.csv", {
        "true.json": _edited("desirability/profile.json", _HIGH, rb'"high": true}', 4)}),
    # a number outside the ASCII forms numpy's reader takes: the first value of the predictions as 0.1_0
    "underscore-in-predictions": _refused(f"evaluate {_TRUTH} --predictions-dir preds {_REGISTRY}", {
        "preds/img1.txt": _edited("detection/preds/img1.txt", rb"\A([0-9]*) [^ \n]*", rb"\1 0.1_0", 1),
        "preds/img2.txt": lambda fixtures: (fixtures / "detection/preds/img2.txt").read_bytes()}),
    "config-nested-too-deeply": _refused(
        "--config deep.json report", {"deep.json": b"[" * 100_000 + b"]" * 100_000 + b"\n"}),
    "config-byte-order-mark": Case(
        [(0, "--config bom.json --output-dir out " + _SPLIT_TILES)], {"bom.json": b'\xef\xbb\xbf{"seed": 7}\n'}),
    # a response whose sums of squares overflow fails with one error record; the other is still written
    "sums-of-squares-overflow": Case(
        [(2, "--output-dir out stats --inputs {fx}/stats/height_accuracy.csv overflow.csv")],
        {"overflow.csv": b"group,observation\na,1e308\na,-1e308\na,1e308\nb,1e308\nb,-1e308\nb,-1e308\n"},
        exist=["out/stats.json"], stderr="[^\n]*\n[^\n]*"),
    "negative-class-id": _refused(
        "tile --ground-truth-dir negative --image-size 832x832",
        {"negative/a.txt": b"0 0.5 0.5 0.1 0.1\n-1 0.25 0.25 0.1 0.1\n"}),
    "stats-inputs-name-one-response": _refused(
        "stats --inputs {fx}/stats/height_accuracy.csv {fx}/stats/height_accuracy.csv"),
    # weights whose total overflows rank as equal weights do, with no nan or inf written
    "weights-total-overflows": Case(
        [(0, "--output-dir out desirability --profile heavy.json --candidates {fx}/desirability/candidates.csv")],
        {"heavy.json": _edited("desirability/profile.json", _HIGH, rb'"high": \1, "weight": 1e308}', 4)},
        same={"out/desirability_ranking.csv": "{chain}/desirability_ranking.csv"},
        lacks=("out/desirability_ranking.csv", "(?i)nan|inf")),
    # a goal whose span high - low overflows a float is refused, where it wrote nan into the ranking
    "goal-span-overflows": _refused("desirability --profile span.json --candidates span.csv", {
        "span.json": b'{"goals": [{"name": "m", "direction": "larger-is-better", "low": -1e308, "middle": 1e308,'
                     b' "high": 1.5e308}]}\n', "span.csv": b"label,response,value\na,m,1e308\nb,m,0\n"}),
    "annotation-byte-order-mark": Case(
        [(0, "--output-dir out tile --ground-truth-dir bom --image-size 1600x1300")],
        {"bom/a.txt": b"\xef\xbb\xbf0 0.13 0.16 0.1 0.1\n"}),
    # a box clipped to a width written as 0.000000 is dropped, so the tiles read back
    "sliver-is-dropped": Case(
        [(0, "--output-dir out tile --ground-truth-dir sliver --image-sizes-csv sizes.csv --min-visibility 0"),
         (0, "--output-dir again tile --ground-truth-dir out/tiles --image-size 416x416")],
        {"sliver/a.txt": b"0 0.22375003125 0.115385 0.0725000625 0.076923\n",
         "sizes.csv": b"image_id,width_px,height_px\na,1600,1300\n"}),
    # a tile tiled again at its own size is written back byte for byte; this box sticks out by half a written unit
    "tile-at-its-own-size": Case(
        [(0, "--output-dir out tile --ground-truth-dir own --image-size 416x416 --tile-size 416x416"
             " --min-visibility 0")],
        {"own/a.txt": b"0 0.083156 0.119479 0.166313 0.238957\n"}, same={"out/tiles/a_000.txt": "own/a.txt"}),
    # augment drops a box with a side written as 0.000000: seed 13 fires only the flips, which leave a width of 2e-7
    "thin-box-is-dropped": Case(
        [(0, "--seed 13 --output-dir out augment --ground-truth-dir thin --samples 1"),
         (0, "--output-dir again tile --ground-truth-dir out/augmented --image-size 416x416")],
        {"thin/a.txt": b"0 0.5 0.5 2e-7 0.1\n"}),
    # a flip and a quarter turn are exact maps
    "flip-and-quarter-turn-are-exact": Case(
        [(0, f"--config {op}.json --output-dir {op}_out augment --ground-truth-dir turn --samples 1")
         for op in ("flip_tb", "rotate")],
        {"turn/a.txt": b"0 0.25 0.125 0.1 0.2\n",
         "flip_tb.json": b'{"augment": {"operations": [{"op": "flip_top_bottom", "probability": 1}]}}\n',
         "rotate.json": b'{"augment": {"operations": [{"op": "rotate", "probability": 1, "angles": [-90]}]}}\n'},
        same={"flip_tb_out/augmented/a_aug0000.txt": b"0 0.250000 0.875000 0.100000 0.200000\n",
              "rotate_out/augmented/a_aug0000.txt": b"0 0.125000 0.750000 0.200000 0.100000\n"}),
    # an image without boxes keeps no tile, and tile still makes its tiles/ directory
    "image-without-boxes": Case(
        [(0, "--output-dir out tile --ground-truth-dir no_boxes --image-size 832x832")],
        {"no_boxes/a.txt": b""}, same={"out/tiles": []}),
    # a ranking row narrower than its header is refused by name and line, and report writes nothing
    "ranking-row-narrower-than-header": Case(
        [(2, "--output-dir out report")], {"out/desirability_ranking.csv": b"rank,label,D,d_map50,tied\n1,yolov5m\n"},
        absent=["out/report.json"]),
}


@pytest.fixture(scope="module")
def chain(child, fixtures_dir, tmp_path_factory):
    """One output dir with a `tile` of fixtures/tiling, its tile ids one a
    line in `tile_ids.txt`, and a `desirability` ranking of the fixture profile."""
    out = tmp_path_factory.mktemp("chain")
    for line in (_TILE, _DESIRABILITY):
        proc = child(_SCRIPT, "--output-dir", out, *_words(line, {"fx": fixtures_dir}))
        assert proc.returncode == 0, proc.stderr
    manifest = (out / "tiles_manifest.csv").read_text().splitlines()[1:]
    (out / "tile_ids.txt").write_text("".join(row.split(",")[0] + "\n" for row in manifest))
    return out


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_console_script(case, chain, child, fixtures_dir, tmp_path):
    tokens = {"fx": fixtures_dir, "chain": chain}
    for path, data in case.files.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_bytes(data(fixtures_dir) if callable(data) else data)
    for status, line in case.steps:
        proc = child(_SCRIPT, *_words(line, tokens), cwd=tmp_path)
        assert proc.returncode == status, (line, proc.stderr)
    if case.stderr is not None:
        assert re.fullmatch(case.stderr, proc.stderr, re.S), proc.stderr
    for path in case.exist:
        assert (tmp_path / path).is_file() and (tmp_path / path).stat().st_size > 0, path
    for path in case.absent:
        assert not (tmp_path / path).exists(), path
    for path, expected in case.same.items():
        if isinstance(expected, list):
            assert sorted(os.listdir(tmp_path / path)) == expected, path
        else:
            expected = (tmp_path / expected.format(**tokens)).read_bytes() if isinstance(expected, str) else expected
            assert (tmp_path / path).read_bytes() == expected, path
    if case.lacks is not None:
        path, pattern = case.lacks
        assert not re.search(pattern, (tmp_path / path).read_text()), path
