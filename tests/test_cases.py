"""The CLI's cases, one row each. A row's steps run through `cli.main` in the
row's own directory, in this process; the row then checks exit statuses, the
error record, paths, bytes and stderr. What only a fresh interpreter shows is
in test_imports.py."""

import json
import math
import os
import re
import shlex
from typing import NamedTuple

import pytest

from deteval.cli import main

_TRUTH, _PREDS = "--ground-truth-dir {fx}/detection/truth", "--predictions-dir {fx}/detection/preds"
_REGISTRY = "--class-registry {fx}/detection/classes.txt"
_STATS = "stats --inputs {fx}/stats/height_accuracy.csv"
_DESIRABILITY = "desirability --profile {fx}/desirability/profile.json --candidates {fx}/desirability/candidates.csv"
_TILING = "tile --ground-truth-dir {fx}/tiling"


class Case(NamedTuple):
    """One case, run in an empty directory that holds `files`: path -> bytes, or a function of the
    fixture corpus that makes them; a path ending in `/` is an empty directory. `steps` are (exit
    status, argv) pairs, run in order; argv is split as a shell splits it, then `{fx}` in each word
    becomes the fixture corpus. `error` is the (type, message) of the last step's one JSON error
    record, with `{fx}` filled in as in argv. Each path of `exist` is a file that is not empty, no
    path of `absent` exists, and each path of `same` holds these bytes, the bytes of the file at
    this path (filled in as argv words are) or, for a list, these directory entries. `lacks` is a
    path and a regex its text does not match; `stderr`, a regex the last step's stderr matches in
    full."""

    steps: list
    files: dict = {}
    error: tuple | None = None
    exist: list = []
    absent: list = []
    same: dict = {}
    lacks: tuple | None = None
    stderr: str | None = None


def _filled(text: str, fixtures) -> str:
    return text.replace("{fx}", str(fixtures))


def _fixture(path: str, extra: bytes = b""):
    """The bytes of fixture file `path`, then `extra`."""
    return lambda fixtures: (fixtures / path).read_bytes() + extra


def _edited(path: str, pattern: bytes, replacement: bytes, count: int):
    """The bytes of fixture file `path` with `pattern`, which must match exactly `count` times, replaced."""

    def make(fixtures):
        data, made = re.subn(pattern, replacement, (fixtures / path).read_bytes())
        assert made == count, (path, made)
        return data

    return make


def _config(document: dict):
    """A config whose output dir is `out` and whose input paths are the fixtures', but for `document`."""

    def make(fixtures):
        detection, desirability = fixtures / "detection", fixtures / "desirability"
        paths = {"output_dir": "out", "ground_truth_dir": detection / "truth", "predictions_dir": detection / "preds",
                 "class_registry": detection / "classes.txt", "desirability_profile": desirability / "profile.json",
                 "candidates": desirability / "candidates.csv",
                 "stats_inputs": [fixtures / "stats/height_accuracy.csv"]}
        return json.dumps({**paths, **document}, default=str).encode()

    return make


def _refused(argv: str, files: dict = {}, error: tuple | None = None, **checks) -> Case:
    """A case of one step, which exits 2 and leaves its output dir `bad` unmade."""
    return Case([(2, "--output-dir bad " + argv)], files, error, absent=["bad"], **checks)


def _cli_error(message: str) -> tuple:
    return "CliError", message


def _config_error(message: str) -> tuple:
    return "ConfigError", message


# Inputs that several cases share: a dir of one boxed image `a`; that dir with a malformed second file, b.txt;
# a CSV that sizes `a`; the detection fixture's four annotation files, as truth/ and preds/; the `high` of
# each of the fixture profile's four goals; JSON nested too deeply for the decoder's recursion; three ids
_A = {"annots/a.txt": b"0 0.500000 0.500000 0.200000 0.200000\n"}
_GOOD_THEN_BAD = {**_A, "annots/b.txt": b"0 0.5 0.5 0.2\n"}
_SIZES = b"image_id,width_px,height_px\na,1600,1300\n"
_DETECTION = {f"{side}/{name}": _fixture(f"detection/{side}/{name}")
              for side in ("truth", "preds") for name in ("img1.txt", "img2.txt")}
_HIGH = rb'"high": ([0-9.]*)}'
_DEEP = b"[" * 100_000 + b"]" * 100_000
_TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
_THREE_IDS = {"ids.txt": b"a\nb\nc\n"}


def _partition_empty(count: int, part: str, sample: str, ratio: str, ids: int, source: str = "split.ids_file"):
    return _cli_error(f"{count} ids leave the {part} partition empty; each partition needs at least 1 "
                      f"(split.sample_count is {sample}, split.ratio is {ratio}, {ids} ids in {source})")


def _ids(count: int) -> dict:
    return {"ids.txt": "".join(f"img{k}\n" for k in range(count)).encode()}


# One goal of the bad-goal cases, and (id, fields that replace the goal's, problem)
_GOAL = {"name": "map50", "direction": "larger-is-better", "low": 0.0, "middle": 0.5, "high": 1.0}
_BAD_GOALS = [
    ("low=-Infinity", {"low": float("-inf")}, "low must be a finite number, got -Infinity"),
    ("weight=NaN", {"weight": float("nan")}, "weight must be a finite number, got NaN"),
    ("name=[map50]", {"name": ["map50"]}, "goal name must be a non-empty string, got ['map50']"),
    ("low=10**400", {"low": 10**400}, f"low must be a finite number, got {10**400}"),
    # one number grammar: a string, true or false is not a JSON number
    *((f"{key}={json.dumps(value)}", {key: value}, f"{key} must be a finite number, got {json.dumps(value)}")
      for key in ("low", "middle", "high", "weight") for value in ("1_0", "٣", "0.9", True, False)),
]

# Per numeric flag: the subcommand that takes it (None for a global flag) and the kind argparse names
_NUMBER_FLAGS = [("--seed", None, "integer"), ("--jobs", None, "integer"), ("--samples", "augment", "integer"),
                 ("--sample-count", "split", "integer"), ("--iou-threshold", "evaluate", "number"),
                 ("--min-visibility", "tile", "number")]

# (command, config document, problem) of a config value of the wrong kind
_WRONG_KIND = [
    ("tile", {"tile": 5}, "config key tile must be an object, got 5"),
    ("augment", {"tile": 5}, "config key tile must be an object, got 5"),
    ("evaluate", {"iou_threshold": {}}, "config key iou_threshold must be a number in (0, 1], got {}"),
    ("split", {"seed": []}, "config key seed must be an integer in [0, 2**64 - 1], got []"),
    ("augment", {"augment": {"samples": None}},
     "config key augment.samples must be an integer in [0, 10000], got null"),
    ("split", {"split": {"ratio": 5}}, "config key split.ratio must be an array of 3 items, got 5"),
    ("augment", {"augment": {"operations": 3}}, "config key augment.operations must be an array, got 3"),
    ("augment", {"augment": {"operations": [{"op": "rotate"}]}},
     'config key augment.operations[0] must be an object of "op", "probability" and optionally "angles" and '
     '"percentage_area", got {"op": "rotate"}'),
    ("augment", {"augment": {"operations": [{"op": "flip_left_right", "probability": 0.5}, 3]}},
     'config key augment.operations[1] must be an object of "op", "probability" and optionally "angles" and '
     '"percentage_area", got 3'),
    ("evaluate", {"allow_partial": "false"}, 'config key allow_partial must be true or false, got "false"'),
    ("evaluate", {"allow_partial": 0}, "config key allow_partial must be true or false, got 0"),
    ("split", {"split": {"ratio": [[], 1, 1]}}, "config key split.ratio[0] must be an integer of at least 1, got []"),
    ("split", {"split": {"ratio": ["a", 1, 1]}}, 'config key split.ratio[0] must be an integer of at least 1, got "a"'),
]
_INPUTS = {"tile": f"{_TRUTH} --image-size 832x832", "augment": f"{_TRUTH} --samples 2", "split": _TRUTH,
           "evaluate": f"{_TRUTH} {_PREDS} {_REGISTRY}"}

# (command, config document, config key, its value as shown) of a path that is not a string
_NOT_A_PATH = [
    ("evaluate", {"ground_truth_dir": 5}, "ground_truth_dir", "5"),
    ("evaluate", {"predictions_dir": ["preds"]}, "predictions_dir", '["preds"]'),
    ("evaluate", {"class_registry": 5}, "class_registry", "5"),
    ("tile", {"class_registry": True}, "class_registry", "true"),
    ("tile", {"tile": {"image_width": 832, "image_height": 832, "image_sizes_csv": 5}}, "tile.image_sizes_csv", "5"),
    ("tile", {"tile": {"image_width": 832, "image_height": 832}, "output_dir": 5}, "output_dir", "5"),
    ("split", {"output_dir": 5}, "output_dir", "5"),
    ("split", {"split": {"ids_file": {"path": "ids.txt"}}}, "split.ids_file", '{"path": "ids.txt"}'),
    ("stats", {"stats_inputs": ["a.csv", 5]}, "stats_inputs[1]", "5"),
    ("desirability", {"desirability_profile": 1.5}, "desirability_profile", "1.5"),
    ("desirability", {"candidates": [1]}, "candidates", "[1]"),
    ("report", {"output_dir": 5}, "output_dir", "5"),
]

CASES = {
    # --- tile: sizes, ids and boxes
    "annotation-byte-order-mark": Case(
        [(0, "--output-dir out tile --ground-truth-dir bom --image-size 1600x1300")],
        {"bom/a.txt": b"\xef\xbb\xbf0 0.13 0.16 0.1 0.1\n"}),
    "tile-equal-to-image-is-passthrough": Case(
        [(0, "--output-dir out tile --ground-truth-dir annots --tile-size 416x416 --image-size 416x416")], _A,
        same={"out/tiles_manifest.csv": b"tile_id,src_image,x0,y0,w,h\na_000,a,0,0,416,416\n",
              "out/tiles/a_000.txt": "annots/a.txt"}),
    # a tile tiled again at its own size is written back byte for byte; this box sticks out by half a written unit
    "tile-at-its-own-size": Case(
        [(0, "--output-dir out tile --ground-truth-dir own --image-size 416x416 --tile-size 416x416"
             " --min-visibility 0")],
        {"own/a.txt": b"0 0.083156 0.119479 0.166313 0.238957\n"}, same={"out/tiles/a_000.txt": "own/a.txt"}),
    "box-whose-area-underflows-is-dropped": Case(
        [(0, "--output-dir out tile --ground-truth-dir annots --image-sizes-csv sizes.csv")],
        {"annots/a.txt": b"0 1e-200 1e-200 2e-200 2e-200\n", "sizes.csv": _SIZES},
        same={"out/tiles": [], "out/discarded_tiles.txt": "".join(f"a_{k:03d}\n" for k in range(16)).encode()}),
    # the box crosses x = 416 px by 0.0001 px, a width written as 0.000000: it is dropped, so the tiles read back
    "sliver-is-dropped": Case(
        [(0, "--output-dir out tile --ground-truth-dir sliver --image-sizes-csv sizes.csv --min-visibility 0"),
         (0, "--output-dir again tile --ground-truth-dir out/tiles --image-size 416x416")],
        {"sliver/a.txt": b"0 0.22375003125 0.115385 0.0725000625 0.076923\n", "sizes.csv": _SIZES},
        same={"out/tiles": ["a_000.txt"], "out/tiles/a_000.txt": b"0 0.860577 0.360578 0.278846 0.240384\n"}),
    # an image without boxes keeps no tile, and no sample makes none; each command still makes its directory
    "owned-directories-are-made-empty": Case(
        [(0, "--output-dir tile tile --ground-truth-dir no_boxes --image-size 832x832"),
         (0, "--output-dir augment augment --ground-truth-dir no_boxes --samples 0")],
        {"no_boxes/a.txt": b""}, same={"tile/tiles": [], "augment/augmented": []}),
    "largest-class-id-tiles-without-a-registry": Case(
        [(0, "--output-dir out tile --ground-truth-dir annots --image-size 832x832")],
        {"annots/a.txt": f"{2**63 - 1} 0.2 0.2 0.1 0.1\n".encode()},
        same={"out/tiles/a_000.txt": f"{2**63 - 1} 0.400000 0.400000 0.200000 0.200000\n".encode()}),
    "malformed-later-file-tile": _refused(
        "tile --ground-truth-dir annots --image-size 832x832", _GOOD_THEN_BAD,
        _cli_error("annots/b.txt: line 1: expected 5 fields, got 4")),
    "bad-annotation-before-bad-image-sizes": _refused(
        "tile --ground-truth-dir annots --image-sizes-csv sizes.csv",
        {**_GOOD_THEN_BAD, "sizes.csv": b"image_id,width_px,height_px\na,0,100\n"},
        _cli_error("annots/b.txt: line 1: expected 5 fields, got 4")),
    "empty-annotation-dir": _refused(
        "tile --ground-truth-dir empty --image-size 416x416", {"empty/": None},
        _cli_error("no annotation files (*.txt) under empty")),
    # an image beside its annotation file is not read for its size
    "unknown-image-size": _refused(
        "tile --ground-truth-dir annots", {**_A, "annots/a.png": b"\x89PNG\r\n\x1a\n"},
        _cli_error("image dimensions unknown: set tile.image_width/image_height or tile.image_sizes_csv")),
    "image-width-only": _refused(
        "--config cfg.json tile --ground-truth-dir annots", {**_A, "cfg.json": b'{"tile": {"image_width": 832}}'},
        _cli_error("image dimensions unknown: set tile.image_width/image_height or tile.image_sizes_csv")),
    **{f"image-size-row-{name}": _refused(
        "tile --ground-truth-dir annots --image-sizes-csv sizes.csv",
        {**_A, "sizes.csv": f"image_id,width_px,height_px\n\n{row}\n".encode()},
        _cli_error(f"sizes.csv: line 3: {problem}"))
       for name, row, problem in [
           ("nan", "a,nan,100", "not an integer: 'nan'"),
           ("underscore", "a,1_0,100", "not an integer: '1_0'"),
           ("arabic-indic", "a,100,١٠", "not an integer: '١٠'"),
           ("two-fields", "a,100", "expected 3 fields, got 2"),
           ("zero", "a,0,100", "width and height must be positive: ['0', '100']"),
           ("negative", "a,1600,-1300", "width and height must be positive: ['1600', '-1300']")]},
    "image-sizes-csv-lacks-an-image": _refused(
        "tile --ground-truth-dir annots --image-sizes-csv sizes.csv",
        {**_A, "annots/b.txt": _A["annots/a.txt"], "sizes.csv": _SIZES},
        _cli_error("image_sizes_csv lacks entries for: ['b']")),
    "image-listed-twice": _refused(
        _TILING + " --image-sizes-csv twice.csv",
        {"twice.csv": b"image_id,width_px,height_px\nfield01,1600,1300\nfield01,416,416\n"},
        _cli_error("twice.csv: line 3: image id 'field01' is listed twice")),
    **{f"image-past-tile-cap-{name}": _refused(
        _TILING + " --image-sizes-csv huge.csv", {"huge.csv": b"image_id,width_px,height_px\nfield01," + size + b"\n"},
        _cli_error("image 'field01': image needs more than 65536 tiles of 416x416"))
       for name, size in [("400-nines", b"1600," + b"9" * 400),
                          ("257x256-tiles", f"{257 * 416},{256 * 416}".encode())]},
    **{f"side-above-2**53-{name}": _refused(
        f"{_TILING} --tile-size {side}x416 --image-size {side}x1300", {},
        _cli_error(f"image 'field01': image or tile side above 2**53: image {side}x1300, tile {side}x416"))
       for name, side in [("400-nines", "9" * 400), ("2**53+1", str(2**53 + 1))]},
    # --- tile and augment: annotation rows
    **{f"{name}-{command}": _refused(
        f"{command} --ground-truth-dir annots {flags}", {"annots/a.txt": f"0 0.5 0.5 0.1 0.1\n{row}\n".encode()},
        _cli_error(f"annots/a.txt: line 2: class id must be {problem}"))
       for command, flags in [("tile", "--image-size 832x832"), ("augment", "--samples 2")]
       # int64 holds the class ids `evaluate` reads; every command keeps to it
       for name, row, problem in [("negative-class-id", "-1 0.25 0.25 0.1 0.1", "non-negative: -1"),
                                  ("class-id-of-2**63", f"{2**63} 0.2 0.2 0.1 0.1", f"below 2**63: {2**63}")]},
    # --- augment
    "augment-is-deterministic": Case(
        [(0, f"--output-dir {out} --seed 11 augment {_TRUTH} --samples 4") for out in "ab"],
        same={**{f"{out}/augmented": [f"img{i}_aug{k:04d}.txt" for i in (1, 2) for k in range(4)] for out in "ab"},
              **{f"a/augmented/img{i}_aug{k:04d}.txt": f"b/augmented/img{i}_aug{k:04d}.txt"
                 for i in (1, 2) for k in range(4)}}),
    "zoomed-box-whose-area-underflows-is-dropped": Case(
        [(0, "--config zoom.json --output-dir out augment --ground-truth-dir annots --samples 2")],
        {"annots/a.txt": b"0 1e-200 1e-200 2e-200 2e-200\n", "zoom.json":
         b'{"augment": {"operations": [{"op": "zoom_random", "probability": 1.0, "percentage_area": 1.0}]}}'},
        same={"out/augmented": ["a_aug0000.txt", "a_aug0001.txt"], "out/augmented/a_aug0000.txt": b"",
              "out/augmented/a_aug0001.txt": b""}),
    # augment drops a box with a side written as 0.000000, so its samples read back. The kept 0.2 x 0.1 box shows
    # each case's premise: no zoom fires, and seed 13's one sample fires only the flips, which leave a width of 2e-7;
    # seed 1's third sample turns 90 or 270 degrees.
    **{f"thin-box-is-dropped-{name}": Case(
        [(0, f"--seed {seed} --output-dir out augment --ground-truth-dir thin --samples {len(samples)}"),
         (0, "--output-dir again tile --ground-truth-dir out/augmented --image-size 416x416")],
        {"thin/a.txt": b"0 0.5 0.5 2e-7 0.1\n1 0.3 0.3 0.2 0.1\n"},
        same={"out/augmented": [f"a_aug{k:04d}.txt" for k in range(len(samples))],
              **{f"out/augmented/a_aug{k:04d}.txt": f"1 {box}\n".encode() for k, box in enumerate(samples)}})
       for name, seed, samples in [
           ("untouched", 13, ["0.700000 0.700000 0.200000 0.100000"]),
           ("right-angle-turn", 1, ["0.700000 0.300000 0.200000 0.100000", "0.700000 0.700000 0.200000 0.100000",
                                    "0.300000 0.700000 0.100000 0.200000"])]},
    # a flip and a quarter turn are exact maps
    "flip-and-quarter-turn-are-exact": Case(
        [(0, f"--config {op}.json --output-dir {op}_out augment --ground-truth-dir turn --samples 1")
         for op in ("flip_tb", "rotate")],
        {"turn/a.txt": b"0 0.25 0.125 0.1 0.2\n",
         "flip_tb.json": b'{"augment": {"operations": [{"op": "flip_top_bottom", "probability": 1}]}}\n',
         "rotate.json": b'{"augment": {"operations": [{"op": "rotate", "probability": 1, "angles": [-90]}]}}\n'},
        same={"flip_tb_out/augmented/a_aug0000.txt": b"0 0.250000 0.875000 0.100000 0.200000\n",
              "rotate_out/augmented/a_aug0000.txt": b"0 0.125000 0.750000 0.200000 0.100000\n"}),
    "largest-class-id-augments-without-a-registry": Case(
        [(0, "--output-dir out augment --ground-truth-dir annots --samples 1")],
        {"annots/a.txt": f"{2**63 - 1} 0.2 0.2 0.1 0.1\n".encode()},
        same={"out/augmented/a_aug0000.txt": f"{2**63 - 1} 0.164590 0.835410 0.111803 0.111803\n".encode()}),
    "malformed-later-file-augment": _refused(
        "augment --ground-truth-dir annots --samples 2", _GOOD_THEN_BAD,
        _cli_error("annots/b.txt: line 1: expected 5 fields, got 4")),
    # --- split
    "sample-over-ids": _refused(
        f"split {_TRUTH} --sample-count 5", {},
        _cli_error("cannot draw 5 of 2 ids without replacement "
                   "(split.sample_count is 5, split.ratio is [15, 3, 2], 2 ids in ground_truth_dir)")),
    "too-few-ids": _refused("split --ids-file ids.txt", {"ids.txt": b"a\nb\n"},
                            _partition_empty(2, "val", "null", "[15, 3, 2]", 2)),
    "too-small-a-sample": _refused("split --ids-file ids.txt --sample-count 2", _THREE_IDS,
                                   _partition_empty(2, "val", "2", "[15, 3, 2]", 3)),
    # 3 ids leave a partition empty at 15:3:2
    "ids-leave-a-partition-empty": _refused("split --ids-file ids.txt", _THREE_IDS,
                                            _partition_empty(3, "test", "null", "[15, 3, 2]", 3)),
    "four-ids": _refused("split --ids-file ids.txt", _ids(4), _partition_empty(4, "test", "null", "[15, 3, 2]", 4)),
    "sample-of-four": _refused("split --ids-file ids.txt --sample-count 4", _ids(10),
                               _partition_empty(4, "test", "4", "[15, 3, 2]", 10)),
    "val-empty": _refused("split --ids-file ids.txt --ratio 1:1:5", _THREE_IDS,
                          _partition_empty(3, "val", "null", "[1, 1, 5]", 3)),
    "empty-partition-names-the-ground-truth-dir": _refused(
        "split --ground-truth-dir truth", {f"truth/{i}.txt": b"" for i in "abcde"},
        _partition_empty(5, "test", "null", "[15, 3, 2]", 5, "ground_truth_dir")),
    **{f"repeated-id-seed-{seed}": _refused(
        f"--seed {seed} split --ids-file ids.txt --sample-count 6 --ratio 1:1:1", {"ids.txt": b"a\nb\na\nc\nd\ne\nf\n"},
        _cli_error("image id 'a' is listed more than once "
                   "(split.sample_count is 6, split.ratio is [1, 1, 1], 7 ids in split.ids_file)"))
       for seed in range(6)},
    "undecodable-ids-file": _refused(
        "split --ids-file ids.txt", {"ids.txt": b"img1\nimg\xff2\n"},
        _cli_error("ids.txt: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte")),
    # --- evaluate
    "registry-of-no-class": _refused(
        "evaluate --ground-truth-dir truth --predictions-dir preds --class-registry classes.txt",
        {"truth/a.txt": b"", "preds/a.txt": b"", "classes.txt": b""},
        _cli_error("class_registry lists no class: classes.txt")),
    **{f"class-name-{name}": _refused(
        f"evaluate {_TRUTH} {_PREDS} --class-registry classes.txt", {"classes.txt": f"0 {registered}\n1 bb\n".encode()},
        _cli_error(f"classes.txt: line 1: {problem}"))
       for name, registered, problem in [
           *((name, registered, f"class name must be non-empty, without whitespace, '/', '\\' or NUL: {registered!r}")
             for name, registered in [("a/b", "a/b"), ("a\\b", "a\\b"), ("a-nul-b", "a\0b"),
                                      ("a/../../x", "a/../../x")]),
           # background is the confusion matrix's row and column of unmatched boxes
           ("background", "background", "class name 'background' is reserved for the confusion matrix"),
           # 243 UTF-8 bytes in 122 characters: pr_curve_<name>.csv would be 256 bytes
           ("243-bytes", "x" + "é" * 121, "class name must be at most 242 UTF-8 bytes, got 243")]},
    # 242 UTF-8 bytes: pr_curve_<name>.csv is a 255-byte file name
    "class-name-of-242-bytes-names-its-curve": Case(
        [(0, f"--output-dir out evaluate {_TRUTH} {_PREDS} --class-registry classes.txt")],
        {"classes.txt": f"0 {'é' * 121}\n1 bb\n".encode()}, exist=[f"out/pr_curve_{'é' * 121}.csv"]),
    "parse-error-names-file-and-line": _refused(
        f"evaluate --ground-truth-dir truth --predictions-dir truth {_REGISTRY}",
        {"truth/img1.txt": b"0 0.5 0.5 0.1 0.2\n0 0.5 0.5 1.9 0.2\n"},
        _cli_error("truth/img1.txt: line 2: box size out of (0,1]: (1.9, 0.2)")),
    # one number grammar, numpy's ASCII one, for every input; and int64 class ids
    **{f"truth-row-{row}": _refused(
        f"evaluate --ground-truth-dir truth {_PREDS} {_REGISTRY}",
        {**_DETECTION, "truth/img2.txt": _fixture("detection/truth/img2.txt", f"{row}\n".encode())},
        _cli_error(f"truth/img2.txt: line 3: {problem}"))
       for row, problem in [
           ("0 0.1_0 0.5 0.1 0.1", "not a number: '0.1_0'"),
           ("1_0 0.5 0.5 0.1 0.1", "class id is not an integer: '1_0'"),
           ("0 0.5 0.5 0.1 ٠.١", "not a number: '٠.١'"),
           ("1.0 0.5 0.5 0.1 0.1", "class id is not an integer: '1.0'"),
           ("1.5 0.5 0.5 0.1 0.1", "class id is not an integer: '1.5'"),
           ("1e0 0.5 0.5 0.1 0.1", "class id is not an integer: '1e0'"),
           (f"{2**63} 0.2 0.2 0.1 0.1", f"class id must be below 2**63: {2**63}")]},
    # a number outside the ASCII forms numpy's reader takes: the first value of the predictions as 0.1_0
    "underscore-in-predictions": _refused(f"evaluate {_TRUTH} --predictions-dir preds {_REGISTRY}", {
        "preds/img1.txt": _edited("detection/preds/img1.txt", rb"\A([0-9]*) [^ \n]*", rb"\1 0.1_0", 1),
        "preds/img2.txt": _fixture("detection/preds/img2.txt")},
        _cli_error("preds/img1.txt: line 1: not a number: '0.1_0'")),
    # the first malformed file in image order is named, ground truth before predictions
    **{f"first-bad-file-is-{named.replace('/', '-')}": _refused(
        f"evaluate --ground-truth-dir truth --predictions-dir preds {_REGISTRY}",
        {**_DETECTION, **{path: b"0 0.5 0.5 0.1\n" for path in bad}},
        _cli_error(f"{named}: line 1: expected {5 if named.startswith('truth') else 6} fields, got 4"))
       for bad, named in [(("preds/img1.txt", "truth/img2.txt"), "preds/img1.txt"),
                          (("preds/img2.txt", "truth/img2.txt"), "truth/img2.txt"),
                          (("preds/img2.txt",), "preds/img2.txt")]},
    "undecodable-file-is-named-in-image-order": _refused(
        f"evaluate --ground-truth-dir truth --predictions-dir preds {_REGISTRY}",
        {**_DETECTION, "preds/img1.txt": b"\xff\n", "truth/img2.txt": b"0 0.5 0.5 0.1\n"},
        _cli_error("preds/img1.txt: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")),
    # --- stats
    **{f"non-finite-observation-{value}": _refused(
        "stats --inputs resp.csv", {"resp.csv": f"group,observation\na,1\na,2\nb,3\nb,{value}\n".encode()},
        _cli_error(f"resp.csv: line 5: not a finite number: {value!r}"))
       for value in ["nan", "inf", "-Infinity"]},
    "stats-jobs-do-not-change-bytes": Case(
        [(0, f"--output-dir j{jobs} --jobs {jobs} {_STATS} second.csv") for jobs in (1, 8)],
        {"second.csv": b"group,observation\na,1.0\na,2.0\na,3.5\na,2.2\nb,4.0\nb,5.5\nb,6.1\nb,5.0\n"},
        same={"j8/stats.json": "j1/stats.json", "j8/stats.csv": "j1/stats.csv"}),
    # --- desirability
    # weights whose total overflows rank as equal weights do, with no nan or inf written
    "weights-total-overflows": Case(
        [(0, f"--output-dir plain {_DESIRABILITY}"),
         (0, "--output-dir out desirability --profile heavy.json --candidates {fx}/desirability/candidates.csv")],
        {"heavy.json": _edited("desirability/profile.json", _HIGH, rb'"high": \1, "weight": 1e308}', 4)},
        same={"out/desirability_ranking.csv": "plain/desirability_ranking.csv"},
        lacks=("out/desirability_ranking.csv", "(?i)nan|inf")),
    # a response on the middle breakpoint and one a float above it score 0.5 exactly, so they tie
    **{f"middle-breakpoint-{low!r}-{middle!r}-{high!r}": Case(
        [(0, "--output-dir out desirability --profile profile.json --candidates cands.csv")],
        {"profile.json": json.dumps([{**_GOAL, "name": "m", "low": low, "middle": middle, "high": high}]).encode(),
         "cands.csv": f"label,response,value\nb,m,{math.nextafter(middle, math.inf)!r}\na,m,{middle!r}\n".encode()},
        same={"out/desirability_ranking.csv":
              b"rank,label,D,d_m,tied\n1,a,0.500000,0.500000,true\n2,b,0.500000,0.500000,true\n"})
       for low, middle, high in [(0.0, 5e-324, 1.0), (-3.666167959379102e-308, 0.0, 0.1)]},
    "missing-response-names-candidate": _refused(
        "desirability --profile {fx}/desirability/profile.json --candidates cands.csv",
        {"cands.csv": b"label,response,value\nonly,map50,0.9\n"},
        _cli_error("candidate 'only' is missing response 'accuracy_wb'")),
    **{f"non-finite-candidate-{value}": _refused(
        "desirability --profile {fx}/desirability/profile.json --candidates cands.csv",
        {"cands.csv": f"label,response,value\nm,map50,0.9\nm,accuracy_wb,{value}\n".encode()},
        _cli_error(f"cands.csv: line 3: not a finite number: {value!r}"))
       for value in ["nan", "inf"]},
    **{f"profile-{name}": _refused(
        "desirability --profile profile.json --candidates {fx}/desirability/candidates.csv", {"profile.json": text},
        _cli_error(f"profile.json: {problem}"))
       for name, text, problem in [
           ("malformed", b'{"goals": [\n  {"name": "map50",}\n]}\n',
            "invalid JSON at line 2 column 20: Expecting property name enclosed in double quotes"),
           ("nested-too-deeply", _DEEP, _TOO_DEEP),
           ("goal-missing-a-key", b'{"goals": [{"name": "map50", "direction": "larger-is-better"}]}',
            "goal 0: missing key 'low'"),
           ("goal-not-an-object", b'{"goals": ["map50"]}', "goal 0: expected an object, got 'map50'"),
           ("a-number", b"7", "expected a list of goals, got 7"),
           ("goals-a-number", b'{"goals": 5}', "expected a list of goals, got 5")]},
    **{f"goal-{name}": _refused(
        "desirability --profile profile.json --candidates cands.csv",
        {"profile.json": json.dumps([{**_GOAL, **goal}]).encode(),
         "cands.csv": b"label,response,value\nm1,map50,0.3\nm2,map50,0.4\n"},
        _cli_error(f"profile.json: goal 0: {problem}"))
       for name, goal, problem in _BAD_GOALS},
    "profile-number-true": _refused("desirability --profile true.json --candidates {fx}/desirability/candidates.csv", {
        "true.json": _edited("desirability/profile.json", _HIGH, rb'"high": true}', 4)},
        _cli_error("true.json: goal 0: high must be a finite number, got true")),
    # a goal whose span high - low overflows a float is refused, where it wrote nan into the ranking
    "goal-span-overflows": _refused("desirability --profile span.json --candidates span.csv", {
        "span.json": b'{"goals": [{"name": "m", "direction": "larger-is-better", "low": -1e308, "middle": 1e308,'
                     b' "high": 1.5e308}]}\n', "span.csv": b"label,response,value\na,m,1e308\nb,m,0\n"},
        _cli_error("span.json: goal 0: goal 'm': breakpoints -1e+308, 1e+308, 1.5e+308 span more than the "
                   "largest float")),
    # --- report
    "report-of-a-missing-output-dir": Case(
        [(2, "--output-dir missing report")], {},
        _cli_error("output dir with prior command outputs not found: missing"), absent=["missing"]),
    **{f"prior-{name}": Case(
        [(2, "--output-dir out report")], {f"out/{filename}": data}, _cli_error(f"out/{filename}: {problem}"),
        absent=["out/report.json"])
       for name, filename, data, problem in [
           ("evaluation-cut-short", "evaluation.json", b'{"iou_threshold": 0.5, "per_class"',
            "invalid JSON at line 1 column 35: Expecting ':' delimiter"),
           ("evaluation-without-keys", "evaluation.json", b"{}",
            "not a document the report can read: KeyError: 'iou_threshold'"),
           ("stats-a-list", "stats.json", b"[1, 2]",
            "not a document the report can read: TypeError: list indices must be integers or slices, not str"),
           ("ranking-not-utf-8", "desirability_ranking.csv", b"rank,label,D\n1,\xff,0.5\n",
            "'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
           ("ranking-without-rank", "desirability_ranking.csv", b"label\nv5s\n",
            "not a document the report can read: KeyError: 'rank'"),
           ("evaluation-nested-too-deeply", "evaluation.json", _DEEP, _TOO_DEEP)]},
    # a ranking row not as wide as its header is refused by name and line, and report writes nothing
    **{f"ranking-row-{name}": Case(
        [(2, "--output-dir out report")],
        {"out/desirability_ranking.csv": b"rank,label,D,d_map50,tied\n" + row + b"\n"},
        _cli_error(f"out/desirability_ranking.csv: line 2: expected 5 fields, got {fields}"),
        same={"out": ["desirability_ranking.csv"]})
       for name, row, fields in [("narrower-than-header", b"1,yolov5m", 2),
                                 ("wider-than-header", b"2,yolov5s,0.5,0.5,false,extra", 6)]},
    # --- text that UTF-8 cannot hold, which no manifest or report could be written with
    "path-not-utf-8": _refused(
        "tile --ground-truth-dir gt\udcff --image-size 832x832", {"gt\udcff/a.txt": b"0 0.5 0.5 0.1 0.1\n"},
        _config_error('config key ground_truth_dir must be text that UTF-8 can hold, got "gt\\udcff"')),
    "file-name-not-utf-8": _refused(
        "tile --ground-truth-dir annots --image-size 832x832", {**_A, "annots/\udcff.txt": b"0 0.5 0.5 0.1 0.1\n"},
        _cli_error("ground_truth_dir: not a UTF-8 file name: b'annots/\\xff.txt'")),
    "run-metadata-not-utf-8": Case(
        [(2, "--config meta.json --output-dir out report")],
        {"meta.json": b'{"run_metadata": "\\ud800"}', "out/": None},
        _config_error('config key run_metadata must be text that UTF-8 can hold, got "\\ud800"'), same={"out": []}),
    "prior-stats-not-utf-8": Case(
        [(2, "--output-dir out report")],
        {"out/stats.json": b'{"responses": [{"response": "h\\ud800", "effect": "group", "error": "failed"}]}'},
        _cli_error("out/stats.json: holds text that UTF-8 cannot hold: '\\ud800'"), same={"out": ["stats.json"]}),
    # an object key is text too
    "prior-evaluation-key-not-utf-8": Case(
        [(2, "--output-dir out report")], {"out/evaluation.json": b'{"iou_threshold": 0.5, "per_class": {"\\udc80": {}}}'},
        _cli_error("out/evaluation.json: holds text that UTF-8 cannot hold: '\\udc80'"),
        same={"out": ["evaluation.json"]}),
    "run-metadata-not-utf-8-split": _refused(
        "--config meta.json split --ids-file ids.txt", {**_ids(20), "meta.json": b'{"run_metadata": "a\\udfff"}'},
        _config_error('config key run_metadata must be text that UTF-8 can hold, got "a\\udfff"')),
    # each command's every path flag, given bytes that UTF-8 cannot decode
    **{f"flag-not-utf-8-{key}": _refused(argv, {}, _config_error(
        f'config key {key} must be text that UTF-8 can hold, got "x\\udcff"'))
       for key, argv in [
           ("predictions_dir", f"evaluate {_TRUTH} --predictions-dir x\udcff {_REGISTRY}"),
           ("class_registry", f"evaluate {_TRUTH} {_PREDS} --class-registry x\udcff"),
           ("tile.image_sizes_csv", f"{_TILING} --image-sizes-csv x\udcff"),
           ("split.ids_file", "split --ids-file x\udcff"),
           ("stats_inputs[1]", f"{_STATS} x\udcff"),
           ("desirability_profile", "desirability --profile x\udcff --candidates {fx}/desirability/candidates.csv"),
           ("candidates", "desirability --profile {fx}/desirability/profile.json --candidates x\udcff")]},
    # the output dir is refused before it is made
    "flag-not-utf-8-output_dir": Case(
        [(2, f"--output-dir x\udcff {_DESIRABILITY}")], {},
        _config_error('config key output_dir must be text that UTF-8 can hold, got "x\\udcff"'), same={".": []}),
    **{f"path-not-utf-8-{command}-{key}": Case(
        [(2, f"--config cfg.json {command}")], {"cfg.json": _config(document), "out/": None},
        _config_error(f'config key {key} must be text that UTF-8 can hold, got "\\ud800"'), same={"out": []})
       for command, document, key in [
           ("evaluate", {"ground_truth_dir": "\ud800"}, "ground_truth_dir"),
           ("evaluate", {"predictions_dir": "\ud800"}, "predictions_dir"),
           ("evaluate", {"class_registry": "\ud800"}, "class_registry"),
           ("tile", {"class_registry": "\ud800"}, "class_registry"),
           ("tile", {"tile": {"image_width": 832, "image_height": 832, "image_sizes_csv": "\ud800"}},
            "tile.image_sizes_csv"),
           ("tile", {"tile": {"image_width": 832, "image_height": 832}, "output_dir": "\ud800"}, "output_dir"),
           ("split", {"output_dir": "\ud800"}, "output_dir"),
           ("split", {"split": {"ids_file": "\ud800"}}, "split.ids_file"),
           ("stats", {"stats_inputs": ["a.csv", "\ud800"]}, "stats_inputs[1]"),
           ("desirability", {"desirability_profile": "\ud800"}, "desirability_profile"),
           ("desirability", {"candidates": "\ud800"}, "candidates"),
           ("report", {"output_dir": "\ud800"}, "output_dir")]},
    # each command that reads a directory of annotation files refuses a name UTF-8 cannot hold
    **{f"file-name-not-utf-8-{command}-{key}": _refused(
        argv, {**_DETECTION, f"{side}/\udcff.txt": b""},
        _cli_error(f"{key}: not a UTF-8 file name: b'{side}/\\xff.txt'"))
       for command, key, side, argv in [
           ("augment", "ground_truth_dir", "truth", "augment --ground-truth-dir truth --samples 1"),
           ("split", "ground_truth_dir", "truth", "split --ground-truth-dir truth"),
           ("evaluate", "ground_truth_dir", "truth",
            f"evaluate --ground-truth-dir truth --predictions-dir preds {_REGISTRY}"),
           ("evaluate", "predictions_dir", "preds",
            f"evaluate --ground-truth-dir truth --predictions-dir preds {_REGISTRY}")]},
    # text outside ASCII that UTF-8 holds runs, as a path and as a file name
    "path-of-utf-8-text-runs": Case(
        [(0, "--output-dir é tile --ground-truth-dir gté --image-size 416x416")],
        {"gté/a.txt": _A["annots/a.txt"]}, same={"é/tiles": ["a_000.txt"]}, exist=["é/run_manifest.json"]),
    "file-name-of-utf-8-text-runs": Case(
        [(0, "--output-dir out tile --ground-truth-dir gt --image-size 416x416")],
        {"gt/é.txt": _A["annots/a.txt"]}, same={"out/tiles": ["é_000.txt"]}, exist=["out/run_manifest.json"]),
    # --- input paths
    **{f"input-path-{name}": _refused(argv, {"empty/": None, "empty.txt": b""}, _cli_error(problem))
       for name, argv, problem in [
           ("required", f"evaluate {_TRUTH} {_REGISTRY}", "config key 'predictions_dir' is required for this command"),
           ("missing-dir", "split --ground-truth-dir missing", "ground_truth_dir: not a directory: missing"),
           ("file-as-dir", f"evaluate --ground-truth-dir {{fx}}/detection/classes.txt {_PREDS} {_REGISTRY}",
            "ground_truth_dir: not a directory: {fx}/detection/classes.txt"),
           ("dir-as-file", f"evaluate {_TRUTH} {_PREDS} --class-registry {{fx}}/detection",
            "class_registry: not a file: {fx}/detection"),
           ("missing-stats-input", f"{_STATS} missing", "stats_inputs: not a file: missing"),
           ("no-stats-inputs", "stats", "no stats inputs: set stats_inputs in the config or pass --inputs"),
           ("no-ids", "split --ids-file empty.txt",
            _partition_empty(0, "train", "null", "[15, 3, 2]", 0)[1]),
           ("no-annotation-files-to-split", "split --ground-truth-dir empty",
            "no annotation files (*.txt) under empty"),
           ("no-annotation-files", f"evaluate --ground-truth-dir empty {_PREDS} {_REGISTRY}",
            "no annotation files (*.txt) under empty")]},
    **{f"path-not-a-string-{command}-{key}={shown}": Case(
        [(2, f"--config cfg.json {command}")], {"cfg.json": _config(document), "out/": None},
        _config_error(f"config key {key} must be a path, got {shown}"), same={"out": []})
       for command, document, key, shown in _NOT_A_PATH},
    "output-dir-is-a-file": Case(
        [(3, f"--output-dir out {_DESIRABILITY}")], {"out": b""}, ("FileExistsError", "[Errno 17] File exists: 'out'")),
    # --- flags: one number grammar, numpy's ASCII one; a size names the flag it came from
    **{"=".join(argv.split()[1:]): _refused(argv, {}, _cli_error(problem))
       for argv, problem in [
           ("tile --tile-size 1_0x416", "--tile-size: expected WxH (e.g. 416x416), got '1_0x416'"),
           ("tile --tile-size 416x٤١٦", "--tile-size: expected WxH (e.g. 416x416), got '416x٤١٦'"),
           ("tile --tile-size 416", "--tile-size: expected WxH (e.g. 416x416), got '416'"),
           ("tile --image-size 1_600x1300", "--image-size: expected WxH (e.g. 416x416), got '1_600x1300'"),
           ("tile --image-size ٨٣٢x832", "--image-size: expected WxH (e.g. 416x416), got '٨٣٢x832'"),
           ("tile --image-size axb", "--image-size: expected WxH (e.g. 416x416), got 'axb'"),
           ("split --ratio 1_5:3:2", "expected ratio A:B:C, got '1_5:3:2'"),
           ("split --ratio ١:1:1", "expected ratio A:B:C, got '١:1:1'"),
           ("split --ratio 15:x:2", "expected ratio A:B:C, got '15:x:2'")]},
    **{f"{flag}={value}": _refused(
        f"{flag} {value} split" if command is None else f"{command} {flag} {value}",
        stderr=".*" + re.escape(f"error: argument {flag}: invalid {kind} value: {value!r}\n"))
       for flag, command, kind in _NUMBER_FLAGS
       for value in ["1_0", "٣", *(["nan", "inf"] if kind == "number" else [])]},
    # the raster path and sampling with replacement are gone: their flags are unknown
    "images-dir-is-unknown": _refused("tile --ground-truth-dir {fx}/tiling --images-dir {fx}/tiling"),
    "with-replacement-is-unknown": _refused("split --with-replacement"),
    **{f"--jobs={value}": _refused(
        f"--jobs={value} {_STATS}", {}, _config_error(f"config key jobs must be an integer of at least 1, got {value}"))
       for value in ["0", "-3"]},
    # --- config
    "good-config-runs": Case([(0, "--config cfg.json augment")], {"cfg.json": _config({"augment": {"samples": 2}})},
                             exist=["out/run_manifest.json"]),
    **{f"config-{name}": _refused(
        f"--config {config} split --ids-file ids.txt", {**_THREE_IDS, **files},
        _config_error(f"cannot read config {config}: {problem}"))
       for name, config, files, problem in [
           ("missing", "cfg.json", {}, "[Errno 2] No such file or directory: 'cfg.json'"),
           # holding a file `read_input` would read
           ("directory", "cfg.json", {"cfg.json/a.txt": b"{}"}, "not a file: cfg.json"),
           ("not-utf-8", "cfg.json", {"cfg.json": b'{"seed": "\xff"}'},
            "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
           ("nested-too-deeply", "deep.json", {"deep.json": _DEEP}, _TOO_DEEP)]},
    "config-root-not-an-object": _refused("--config cfg.json report", {"cfg.json": b"[1]\n"},
                                          _config_error("config root must be a JSON object: cfg.json")),
    "unknown-config-key": _refused("--config cfg.json report", {"cfg.json": b'{"no_such_key": 1}'},
                                   _config_error("unknown config key: 'no_such_key'")),
    **{f"removed-config-key-{key}": _refused(
        "--config cfg.json report", {"cfg.json": document}, _config_error(f"unknown config key: {key!r}"))
       for key, document in [("with_replacement", b'{"split": {"with_replacement": true}}'),
                             ("images_dir", b'{"tile": {"images_dir": "images"}}')]},
    **{f"config-{json.dumps(document)}-{command}": _refused(
        f"--config cfg.json {command} {_INPUTS[command]}", {"cfg.json": json.dumps(document).encode()},
        _config_error(problem))
       for command, document, problem in _WRONG_KIND},
    **{f"config-jobs={json.dumps(value)}": _refused(
        f"--config cfg.json {_STATS}", {"cfg.json": json.dumps({"jobs": value}).encode()},
        _config_error(f"config key jobs must be an integer of at least 1, got {json.dumps(value)}"))
       for value in [0, -3, 1.5, "2", True]},
    **{f"config-{key}-as-a-string": _refused(
        f"--config cfg.json augment {_TRUTH}", {"cfg.json": json.dumps(document).encode()},
        _config_error(f"config key {key} must be {kind}, got {json.dumps(value)}"))
       for key, document, kind, value in [("seed", {"seed": "7"}, "an integer in [0, 2**64 - 1]", "7"),
                                          ("augment.samples", {"augment": {"samples": "2"}},
                                           "an integer in [0, 10000]", "2")]},
    "config-fractional-seed": _refused(
        "--config seed.json split --ids-file ids.txt", {**_THREE_IDS, "seed.json": b'{"seed": 7.9}\n'},
        _config_error("config key seed must be an integer in [0, 2**64 - 1], got 7.9")),
    "config-fractional-tile-width": _refused(
        "--config width.json " + _TILING + " --image-size 1600x1300", {"width.json": b'{"tile": {"width": 41.6}}\n'},
        _config_error("config key tile.width must be an integer of at least 1, got 41.6")),
    # every command refuses an augment operation that cannot run
    **{f"config-{op}-cannot-run": _refused(
        "--config op.json split --ids-file ids.txt",
        {**_THREE_IDS, "op.json": json.dumps({"augment": {"operations": [operation]}}).encode()},
        _config_error(f"config key augment.operations[0]: {problem}"))
       for op, operation, problem in [
           ("zoom", {"op": "zoom_random", "probability": 0.5}, "zoom_random needs percentage_area in (0,1]: None"),
           ("rotate", {"op": "rotate", "probability": 0.5, "angles": []}, "rotate needs a non-empty angle set")]},
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_case(case, fixtures_dir, tmp_path, monkeypatch, capsys):
    for path, data in case.files.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        if path.endswith("/"):
            (tmp_path / path).mkdir(exist_ok=True)
        else:
            (tmp_path / path).write_bytes(data(fixtures_dir) if callable(data) else data)
    monkeypatch.chdir(tmp_path)
    for status, line in case.steps:
        try:
            code = main([_filled(word, fixtures_dir) for word in shlex.split(line)])
        except SystemExit as exc:  # a usage error, from argparse
            code = exc.code
        stderr = capsys.readouterr().err
        assert code == status, (line, stderr)
    if case.error is not None:
        (record,) = map(json.loads, stderr.splitlines())
        assert (record["error"], record["message"]) == tuple(_filled(text, fixtures_dir) for text in case.error)
    if case.stderr is not None:
        assert re.fullmatch(case.stderr, stderr, re.S), stderr
    for path in case.exist:
        assert (tmp_path / path).is_file() and (tmp_path / path).stat().st_size > 0, path
    for path in case.absent:
        assert not (tmp_path / path).exists(), path
    for path, expected in case.same.items():
        if isinstance(expected, list):
            assert sorted(os.listdir(tmp_path / path)) == expected, path
        else:
            if isinstance(expected, str):
                expected = (tmp_path / _filled(expected, fixtures_dir)).read_bytes()
            assert (tmp_path / path).read_bytes() == expected, path
    if case.lacks is not None:
        path, pattern = case.lacks
        assert not re.search(pattern, (tmp_path / path).read_text()), path
