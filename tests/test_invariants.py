"""Metamorphic relations between whole runs of the CLI. Each relation runs
`cli.main` in-process on a drawn input and on its transform, into temporary
output dirs, and holds bit for bit: no oracle is needed, so a defect that a
reference implementation would share still shows."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deteval.annotations import format_yolo_rows, yolo_rows
from deteval.cli import main
from deteval.config import json_text
from deteval.prep import TileSpec, plan_tiles

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

REGISTRY = "0 a\n1 b\n2 c\n"

# Centers on a coarse grid and a few sizes, so that detections often hit a
# truth of their own class or of another one, and often miss; confidences in
# tenths, so that many tie.
CENTERS = (0.2, 0.4, 0.6, 0.8)
SIZES = (0.2, 0.25, 0.3)
TRUTH_FIELDS = ((0, 1, 2), CENTERS, CENTERS, SIZES, SIZES)
DETECTION_FIELDS = (*TRUTH_FIELDS, tuple(k / 10 for k in range(11)))
ID_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_-"


def _pick(n: int, fields) -> tuple:
    """The row that `n` numbers among the rows of one choice per field."""
    row = []
    for choices in fields:
        n, k = divmod(n, len(choices))
        row.append(choices[k])
    return tuple(row)


def _name(n: int) -> str:
    """`n` in base len(ID_CHARS); distinct numbers give distinct names."""
    name = ""
    while True:
        n, k = divmod(n, len(ID_CHARS))
        name += ID_CHARS[k]
        if not n:
            return name


def _rows(fields, max_size: int):
    # one draw per row keeps generation cheap beside the runs it feeds
    return st.lists(st.integers(0, math.prod(map(len, fields)) - 1).map(lambda n: _pick(n, fields)), max_size=max_size)


# each image: (truth rows, detection rows); an image may be empty on either side
images = st.lists(st.tuples(_rows(TRUTH_FIELDS, 5), _rows(DETECTION_FIELDS, 6)), min_size=1, max_size=6)
names = st.integers(0, len(ID_CHARS) ** 8).map(_name)
eval_options = st.tuples(st.sampled_from(["all-point", "11-point"]), st.sampled_from([0.5, 0.3, 0.75]))


def _run(argv, out: Path, config: dict | None = None) -> dict[str, bytes]:
    """The artifacts, without the run manifest, of `main(argv)` into `out`; the run must succeed."""
    if config is not None:
        (out.parent / f"{out.name}.json").write_text(json.dumps(config))
        argv = ["--config", str(out.parent / f"{out.name}.json"), *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--output-dir", str(out), *map(str, argv)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir()) if path.name != "run_manifest.json"}


def _evaluate(root: Path, name: str, files: dict[str, tuple[list, list]], options) -> dict[str, bytes]:
    """`evaluate` of the images `files` (id: (truth rows, detection rows)) under (interpolation, IoU threshold)."""
    interpolation, threshold = options
    truth, preds = root / f"{name}_truth", root / f"{name}_preds"
    truth.mkdir()
    preds.mkdir()
    for image_id, (truths, detections) in files.items():
        (truth / f"{image_id}.txt").write_text(format_yolo_rows(truths))
        (preds / f"{image_id}.txt").write_text(format_yolo_rows(detections))
    registry = root / "classes.txt"
    registry.write_text(REGISTRY)
    argv = ["evaluate", "--ground-truth-dir", truth, "--predictions-dir", preds, "--class-registry", registry,
            "--iou-threshold", threshold]
    return _run(argv, root / f"{name}_out", {"ap_interpolation": interpolation})


def _curves(artifacts: dict[str, bytes]) -> dict[str, bytes]:
    return {name: data for name, data in artifacts.items() if name.startswith("pr_curve_")}


@given(images, st.lists(names, min_size=6, max_size=6, unique=True), names, eval_options)
@settings(max_examples=50, deadline=None)
def test_evaluate_relations(drawn, new_ids, empty_id, options):
    # The three relations share the run they start from.
    base = {f"img{k}": image for k, image in enumerate(drawn)}
    with tempfile.TemporaryDirectory() as root:
        before = _evaluate(Path(root), "base", base, options)
        # every image copied under a new id
        copied = _evaluate(Path(root), "copied", {**base, **{f"{i}_copy": image for i, image in base.items()}},
                           options)
        # the k-th id in sorted order takes the k-th new id in sorted order
        renamed = _evaluate(Path(root), "renamed", dict(zip(sorted(new_ids), (base[i] for i in sorted(base)))),
                            options)
        # one more image, empty on both sides
        empty_id = f"{empty_id}_empty" if empty_id in base else empty_id
        padded = _evaluate(Path(root), "padded", {**base, empty_id: ([], [])}, options)

    # Copying every image doubles every tally and every confusion-matrix
    # cell; each rate, AP, mAP, the degenerate flags and every curve stay.
    doubled = json.loads(before["evaluation.json"])
    doubled["image_count"] *= 2
    for entry in doubled["per_class"].values():
        for tally in ("tp", "fp", "fn"):
            entry[tally] *= 2
    matrix = doubled["confusion_matrix"]["matrix"]
    matrix[:] = [[2 * cell for cell in row] for row in matrix]
    assert copied["evaluation.json"] == json_text(doubled).encode()
    assert _curves(copied) == _curves(before)
    assert copied.keys() == before.keys()

    # Renaming the images in an order-preserving way changes nothing.
    assert renamed == before

    # An image empty on both sides changes only the image count.
    counted = json.loads(before["evaluation.json"])
    counted["image_count"] += 1
    assert padded["evaluation.json"] == json_text(counted).encode()
    assert _curves(padded) == _curves(before)
    assert padded.keys() == before.keys()


PROFILE = json.loads((FIXTURES / "desirability" / "profile.json").read_text())
CANDIDATES = (FIXTURES / "desirability" / "candidates.csv").read_text()
GOALS = [goal["name"] for goal in PROFILE["goals"]]

# one value per goal of the fixture profile, three fractions and a speed,
# mostly between the goal's low and high breakpoints
responses = st.tuples(*[st.integers(750, 1000).map(lambda k: k / 1000)] * 3, st.integers(30, 150).map(float))
candidates = st.one_of(
    st.just(CANDIDATES),
    st.lists(responses, min_size=1, max_size=5).map(lambda rows: "label,response,value\n" + "".join(
        f"m{k},{goal},{value!r}\n" for k, row in enumerate(rows) for goal, value in zip(GOALS, row))),
)
# weights in [2**-10, 2**10] times 2**k for |k| <= 1000 stay normal floats
weights = st.lists(st.floats(2.0**-10, 2.0**10), min_size=len(GOALS), max_size=len(GOALS))


@given(weights, st.integers(-1000, 1000), candidates)
@settings(max_examples=50, deadline=None)
@example([1.0] * len(GOALS), 1, CANDIDATES)
@example([1.0] * len(GOALS), -1, CANDIDATES)
@example([1.0] * len(GOALS), 10, CANDIDATES)
@example([1.0] * len(GOALS), -10, CANDIDATES)
@example([1.0] * len(GOALS), 40, CANDIDATES)
@example([1.0] * len(GOALS), -40, CANDIDATES)
def test_desirability_scaling_every_weight_by_a_power_of_two_keeps_the_ranking(drawn_weights, k, candidates_text):
    def ranking(root: Path, name: str, scale: float) -> bytes:
        goals = [{**goal, "weight": weight * scale} for goal, weight in zip(PROFILE["goals"], drawn_weights)]
        (root / f"{name}.json").write_text(json.dumps({"goals": goals}))
        argv = ["desirability", "--profile", root / f"{name}.json", "--candidates", root / "candidates.csv"]
        return _run(argv, root / f"{name}_out")["desirability_ranking.csv"]

    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "candidates.csv").write_text(candidates_text)
        assert ranking(Path(root), "scaled", 2.0**k) == ranking(Path(root), "base", 1.0)


@st.composite
def _span_about(draw, extent: int, edges) -> tuple[int, int]:
    """(centre, size) along one image axis in millionths of the side, the
    grid `format_yolo_rows` writes: anywhere, or with one side within a few
    millionths of one of `edges` (pixels), inside or outside it."""
    size = draw(st.one_of(st.integers(1, 3), st.integers(1, 1_000_000)))
    if draw(st.booleans()):
        centre = draw(st.integers(0, 1_000_000))
    else:
        side = round(draw(st.sampled_from(edges)) / extent * 1_000_000) + draw(st.integers(-4, 4))
        centre = side + (size // 2 if draw(st.booleans()) else -(size // 2))
    return min(max(centre, 0), 1_000_000), size


@st.composite
def tilings(draw) -> tuple:
    """(image width, image height, tile width, tile height, edge policy, YOLO
    text of one image), its boxes drawn about the tile edges."""
    tile_w, tile_h = draw(st.sampled_from([416, 300, 7])), draw(st.sampled_from([416, 300, 7]))
    width, height = draw(st.integers(tile_w, 4 * tile_w)), draw(st.integers(tile_h, 4 * tile_h))
    policy = draw(st.sampled_from(["anchor-to-edge", "pad"]))
    tiles = plan_tiles(width, height, TileSpec(tile_w, tile_h, policy))
    edges_x = sorted({x for t in tiles for x in (t.x0, t.x0 + t.w)})
    edges_y = sorted({y for t in tiles for y in (t.y0, t.y0 + t.h)})
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        (cx, w), (cy, h) = draw(_span_about(width, edges_x)), draw(_span_about(height, edges_y))
        rows.append(f"{draw(st.integers(0, 2))} {cx / 1e6:.6f} {cy / 1e6:.6f} {w / 1e6:.6f} {h / 1e6:.6f}\n")
    return width, height, tile_w, tile_h, policy, "".join(rows)


def _tiles(root: Path, name: str, source: Path, image: tuple[int, int], tile: tuple[int, int], policy: str) -> dict:
    """The tile files `tile` writes of the annotation dir `source`, with --min-visibility 0."""
    out = root / name
    argv = ["--output-dir", out, "tile", "--ground-truth-dir", source, "--image-size", "{}x{}".format(*image),
            "--tile-size", "{}x{}".format(*tile), "--edge-policy", policy, "--min-visibility", 0]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(map(str, argv))) == 0
    return {path.name: path.read_bytes() for path in sorted((out / "tiles").iterdir())}


# The box of the first example sticks out of the tile by half a written unit
# on the left; that of the second by under one unit on both sides, with a
# size that would be written as 1.000001 if both sides stayed unclipped. The
# boxes of the last two have their left side exactly one unit out of tile 1,
# and overlap tile 0 by one unit, a sliver whose written centre is 1.000000.
@given(tilings())
@settings(max_examples=60, deadline=None)
@example((416, 416, 416, 416, "anchor-to-edge", "0 0.083156 0.119479 0.166313 0.238957\n"))
@example((832, 416, 416, 416, "anchor-to-edge", "0 0.7500001 0.5 0.5000004 0.2\n"))
@example((832, 832, 416, 416, "anchor-to-edge", "0 0.644005 0.5 0.288011 0.2\n"))
@example((832, 832, 416, 416, "anchor-to-edge", "0 0.585164 0.5 0.170329 0.2\n"))
def test_tiling_a_tile_at_its_own_size_writes_it_back(tiling):
    width, height, tile_w, tile_h, policy, text = tiling
    with tempfile.TemporaryDirectory() as root:
        source = Path(root) / "source"
        source.mkdir()
        (source / "a.txt").write_text(text)
        tiles = _tiles(Path(root), "tiled", source, (width, height), (tile_w, tile_h), policy)
        for data in tiles.values():
            assert yolo_rows(data.decode(), 5)
        if tiles:
            again = _tiles(Path(root), "again", Path(root) / "tiled" / "tiles", (tile_w, tile_h), (tile_w, tile_h),
                           policy)
            assert again == {name.replace(".txt", "_000.txt"): data for name, data in tiles.items()}


@pytest.mark.parametrize("text, written", [
    # both sides out of tile 1 by under one unit, 2e-7 each: written at the size 1, clipped
    ("0 0.75 0.5 0.5000002 0.2\n", {"a_001.txt": b"0 0.500000 0.500000 1.000000 0.200000\n"}),
    # out by 2e-7 and 6e-7, which unclipped would be written 1.000001 wide: clipped
    ("0 0.7500001 0.5 0.5000004 0.2\n", {"a_001.txt": b"0 0.500000 0.500000 1.000000 0.200000\n"}),
])
def test_a_box_out_of_both_sides_of_a_tile_by_under_one_unit_reads_back(tmp_path, text, written):
    (tmp_path / "source").mkdir()
    (tmp_path / "source" / "a.txt").write_text(text)
    tiles = _tiles(tmp_path, "tiled", tmp_path / "source", (832, 416), (416, 416), "anchor-to-edge")
    assert tiles == written
    assert [yolo_rows(data.decode(), 5) for data in tiles.values()] == [[(0, 0.5, 0.5, 1.0, 0.2)]]
