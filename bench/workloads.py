"""Seeded synthetic inputs for the benchmark workloads, and the values the
artifact checks expect from them.

Every input is a plain file under the run's work directory; the program
under test receives only those files. The expectations (per-class tallies,
the confusion matrix, tile counts, ANOVA F ratios) are computed here from
the same 6-decimal values the program parses, by code that shares nothing
with `src/deteval`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

CLASS_NAMES = ("wb", "bb")
IOU_THRESHOLD = 0.5

# Scales are chosen so one pass of each workload's command sequence takes a
# few seconds on 2 cores, which leaves several passes per measured run.
SPARSE_IMAGES, SPARSE_OBJECTS = 2000, 10
DENSE_IMAGES, DENSE_OBJECTS = 40, 100
CROWDED_IMAGES, CROWDED_OBJECTS = 2, 400
TILE_IMAGES, TILE_OBJECTS = 300, 12
TILE_IMAGE_SIZE, TILE_SIZE = (1600, 1300), 416
TILE_MIN_VISIBILITY = 0.3
AUGMENT_SOURCES, AUGMENT_OBJECTS, AUGMENT_SAMPLES = 3, 10, 300
STATS_RESPONSES, STATS_PER_STRATUM = 300, 8
STRATA = ("top", "middle", "bottom")
SPLIT_RATIO = (15, 3, 2)

WORKLOADS = ("eval-sparse", "eval-dense", "study")


@dataclass
class Command:
    """One `deteval` invocation: its subcommand name and full argv."""

    name: str
    argv: list[str]


@dataclass
class Workload:
    """A workload's inputs and expectations. `build` gives the command
    sequence that writes into a given output dir; `target` points the
    workload at a fresh one before each pass."""

    name: str
    build: Callable[[Path], list[Command]]
    images: int
    input_files: int = 0
    input_bytes: int = 0
    input_objects: int = 0
    candidate_pairs: int = 0
    expect: dict = field(default_factory=dict)
    out_dir: Path | None = None
    commands: list[Command] = field(default_factory=list)

    def target(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.commands = self.build(out_dir)


def _f6(value: float) -> float:
    """The value the program parses back from a 6-decimal text field."""
    return float(f"{value:.6f}")


def _box(rng: random.Random) -> tuple[float, float, float, float]:
    return (
        _f6(rng.uniform(0.1, 0.9)),
        _f6(rng.uniform(0.1, 0.9)),
        _f6(rng.uniform(0.02, 0.2)),
        _f6(rng.uniform(0.02, 0.2)),
    )


def _truths(rng: random.Random, n: int) -> list[tuple]:
    return [(rng.randrange(len(CLASS_NAMES)),) + _box(rng) for _ in range(n)]


def _detections(rng: random.Random, truths: list[tuple]) -> list[tuple]:
    """Truths jittered by +-0.01 and kept with p=0.8, plus n//3 random false
    positives; confidences U(0, 1)."""
    dets = []
    for label, *box in truths:
        if rng.random() < 0.8:
            jittered = tuple(_f6(v + rng.uniform(-0.01, 0.01)) for v in box)
            dets.append((label,) + jittered + (_f6(rng.random()),))
    for _ in range(len(truths) // 3):
        dets.append((rng.randrange(len(CLASS_NAMES)),) + _box(rng) + (_f6(rng.random()),))
    return dets


def _write_rows(path: Path, rows) -> int:
    text = "".join(
        f"{r[0]} " + " ".join(f"{v:.6f}" for v in r[1:]) + "\n" for r in rows
    )
    path.write_text(text, encoding="utf-8")
    return len(text)


def _iou_matrix(dets: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """D x T IoU with the program's operation order (corners as c -+ w/2.0,
    then intersection, then union), so each value is IEEE-identical."""
    ax1 = (dets[:, 1] - dets[:, 3] / 2.0)[:, None]
    ay1 = (dets[:, 2] - dets[:, 4] / 2.0)[:, None]
    ax2 = (dets[:, 1] + dets[:, 3] / 2.0)[:, None]
    ay2 = (dets[:, 2] + dets[:, 4] / 2.0)[:, None]
    bx1 = truths[:, 1] - truths[:, 3] / 2.0
    by1 = truths[:, 2] - truths[:, 4] / 2.0
    bx2 = truths[:, 1] + truths[:, 3] / 2.0
    by2 = truths[:, 2] + truths[:, 4] / 2.0
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    valid = (iw > 0.0) & (ih > 0.0) & (union > 0.0)
    return np.where(valid, inter / np.where(valid, union, 1.0), 0.0)


def _greedy(dets: list[tuple], truths: list[tuple], cross_class: bool) -> list[tuple[int, int]]:
    """Greedy one-to-one matching in descending confidence (input order
    breaks ties); each detection claims the first untaken truth of highest
    IoU at or above the threshold."""
    if not dets or not truths:
        return []
    d = np.array(dets, dtype=float)
    t = np.array(truths, dtype=float)
    iou = _iou_matrix(d, t)
    eligible = iou >= IOU_THRESHOLD
    if not cross_class:
        eligible &= d[:, :1] == t[None, :, 0]
    scores = np.where(eligible, iou, -1.0)
    pairs = []
    for i in sorted(range(len(dets)), key=lambda k: (-dets[k][5], k)):
        j = int(np.argmax(scores[i]))
        if scores[i, j] > 0.0:
            pairs.append((i, j))
            scores[:, j] = -1.0
    return pairs


def _expect_evaluation(images: list[tuple[list, list]]) -> dict:
    n = len(CLASS_NAMES)
    tally = {c: {"tp": 0, "fp": 0, "fn": 0} for c in range(n)}
    confusion = [[0] * (n + 1) for _ in range(n + 1)]
    candidates = 0
    for truths, dets in images:
        same = _greedy(dets, truths, cross_class=False)
        cross = _greedy(dets, truths, cross_class=True)
        for c in range(n):
            nd = sum(1 for det in dets if det[0] == c)
            nt = sum(1 for tr in truths if tr[0] == c)
            tp = sum(1 for i, _ in same if dets[i][0] == c)
            tally[c]["tp"] += tp
            tally[c]["fp"] += nd - tp
            tally[c]["fn"] += nt - tp
            candidates += nd * nt
        candidates += len(dets) * len(truths)
        for i, j in cross:
            confusion[dets[i][0]][truths[j][0]] += 1
        hit_d = {i for i, _ in cross}
        hit_t = {j for _, j in cross}
        for i, det in enumerate(dets):
            if i not in hit_d:
                confusion[det[0]][n] += 1
        for j, tr in enumerate(truths):
            if j not in hit_t:
                confusion[n][tr[0]] += 1
    return {
        "per_class": {CLASS_NAMES[c]: tally[c] for c in range(n)},
        "truths": {CLASS_NAMES[c]: sum(1 for im in images for t in im[0] if t[0] == c) for c in range(n)},
        "detections": {CLASS_NAMES[c]: sum(1 for im in images for d in im[1] if d[0] == c) for c in range(n)},
        "confusion": confusion,
        "image_count": len(images),
        "candidate_pairs": candidates,
    }


def _cli_prefix(out_dir: Path, jobs: int) -> list[str]:
    return ["--output-dir", str(out_dir), "--jobs", str(jobs)]


def _eval_workload(name: str, work: Path, rng: random.Random, counts: list[int], jobs: int) -> Workload:
    inputs = work / "inputs"
    truth_dir, pred_dir = inputs / "truth", inputs / "preds"
    truth_dir.mkdir(parents=True)
    pred_dir.mkdir()
    registry = inputs / "classes.txt"
    registry.write_text("".join(f"{i} {n}\n" for i, n in enumerate(CLASS_NAMES)), encoding="utf-8")
    images = []
    nbytes = 0
    for k, n in enumerate(counts):
        truths = _truths(rng, n)
        dets = _detections(rng, truths)
        nbytes += _write_rows(truth_dir / f"img{k:05d}.txt", truths)
        nbytes += _write_rows(pred_dir / f"img{k:05d}.txt", dets)
        images.append((truths, dets))
    expect = _expect_evaluation(images)

    def build(out_dir: Path) -> list[Command]:
        return [Command("evaluate", _cli_prefix(out_dir, jobs) + [
            "evaluate",
            "--ground-truth-dir", str(truth_dir),
            "--predictions-dir", str(pred_dir),
            "--class-registry", str(registry),
        ])]

    return Workload(
        name=name,
        build=build,
        images=len(images),
        input_files=2 * len(images) + 1,
        input_bytes=nbytes + registry.stat().st_size,
        input_objects=sum(len(t) + len(d) for t, d in images),
        candidate_pairs=expect["candidate_pairs"],
        expect={"evaluate": expect},
    )


def _tile_origins() -> list[tuple[int, int]]:
    """(x0, y0) of the anchor-to-edge grid, row by row: 4 x 4 at 416 px."""
    width, height = TILE_IMAGE_SIZE
    xs = [min(i * TILE_SIZE, width - TILE_SIZE) for i in range(math.ceil(width / TILE_SIZE))]
    ys = [min(j * TILE_SIZE, height - TILE_SIZE) for j in range(math.ceil(height / TILE_SIZE))]
    return [(x, y) for y in ys for x in xs]


def _expected_kept_tiles(objects: list[tuple]) -> list[int]:
    """Indices of the tiles that keep at least one clipped box of visibility
    >= 0.3, mirroring the tiling arithmetic."""
    width, height = TILE_IMAGE_SIZE
    kept = []
    for index, (tx, ty) in enumerate(_tile_origins()):
        tx1, ty1 = float(tx), float(ty)
        tx2, ty2 = tx1 + TILE_SIZE, ty1 + TILE_SIZE
        for _, cx, cy, w, h in objects:
            bx1, by1 = (cx - w / 2.0) * width, (cy - h / 2.0) * height
            bx2, by2 = (cx + w / 2.0) * width, (cy + h / 2.0) * height
            ix1, iy1, ix2, iy2 = max(bx1, tx1), max(by1, ty1), min(bx2, tx2), min(by2, ty2)
            if ix2 <= ix1 or iy2 <= iy1:
                continue
            if ((ix2 - ix1) * (iy2 - iy1)) / ((bx2 - bx1) * (by2 - by1)) >= TILE_MIN_VISIBILITY:
                kept.append(index)
                break
    return kept


def _largest_remainder(total: int, weights) -> list[int]:
    quotas = [total * w / sum(weights) for w in weights]
    sizes = [math.floor(q) for q in quotas]
    order = sorted(range(len(weights)), key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in order[: total - sum(sizes)]:
        sizes[i] += 1
    return sizes


def _f_ratio(groups: list[list[float]]) -> float:
    values = np.concatenate(groups)
    grand = values.mean()
    ssb = sum(len(g) * (np.mean(g) - grand) ** 2 for g in groups)
    ssw = sum(((np.asarray(g) - np.mean(g)) ** 2).sum() for g in groups)
    return float((ssb / (len(groups) - 1)) / (ssw / (len(values) - len(groups))))


def _study_workload(work: Path, rng: random.Random, repo: Path) -> Workload:
    inputs = work / "inputs"
    tile_src, aug_src, obs_dir = inputs / "tile_src", inputs / "aug_src", inputs / "obs"
    for d in (tile_src, aug_src, obs_dir):
        d.mkdir(parents=True)
    nbytes = objects = 0
    kept_tiles = []
    size_rows = ["image_id,width_px,height_px\n"]
    for k in range(TILE_IMAGES):
        image_id = f"field{k:04d}"
        boxes = _truths(rng, TILE_OBJECTS)
        nbytes += _write_rows(tile_src / f"{image_id}.txt", boxes)
        objects += len(boxes)
        size_rows.append(f"{image_id},{TILE_IMAGE_SIZE[0]},{TILE_IMAGE_SIZE[1]}\n")
        kept_tiles += [f"{image_id}_{i:03d}" for i in _expected_kept_tiles(boxes)]
    sizes_csv = inputs / "image_sizes.csv"
    sizes_csv.write_text("".join(size_rows), encoding="utf-8")
    nbytes += sizes_csv.stat().st_size
    for k in range(AUGMENT_SOURCES):
        boxes = _truths(rng, AUGMENT_OBJECTS)
        nbytes += _write_rows(aug_src / f"tile{k:02d}.txt", boxes)
        objects += len(boxes)
    f_ratios = {}
    stats_inputs = []
    for k in range(STATS_RESPONSES):
        response = f"resp{k:04d}"
        groups = []
        lines = ["stratum,observation\n"]
        for s, stratum in enumerate(STRATA):
            mean = rng.uniform(40.0, 90.0)
            group = [round(rng.gauss(mean, 5.0 + s), 4) for _ in range(STATS_PER_STRATUM)]
            groups.append(group)
            lines += [f"{stratum},{v}\n" for v in group]
        path = obs_dir / f"{response}.csv"
        path.write_text("".join(lines), encoding="utf-8")
        nbytes += path.stat().st_size
        stats_inputs.append(str(path))
        f_ratios[response] = _f_ratio(groups)
    fixtures = repo / "fixtures" / "desirability"
    profile, candidates = fixtures / "profile.json", fixtures / "candidates.csv"
    labels = {line.split(",")[0] for line in candidates.read_text(encoding="utf-8").splitlines()[1:] if line.strip()}
    nbytes += profile.stat().st_size + candidates.stat().st_size

    program_seed = str(rng.randrange(2**31))

    def build(out_dir: Path) -> list[Command]:
        return [
            Command("tile", _cli_prefix(out_dir, 2) + [
                "tile", "--ground-truth-dir", str(tile_src), "--image-sizes-csv", str(sizes_csv),
                "--tile-size", f"{TILE_SIZE}x{TILE_SIZE}",
            ]),
            Command("augment", _cli_prefix(out_dir, 2) + [
                "--seed", program_seed, "augment", "--ground-truth-dir", str(aug_src),
                "--samples", str(AUGMENT_SAMPLES),
            ]),
            Command("split", _cli_prefix(out_dir, 2) + [
                "--seed", program_seed, "split", "--ground-truth-dir", str(out_dir / "tiles"),
                "--ratio", ":".join(map(str, SPLIT_RATIO)),
            ]),
            Command("stats", _cli_prefix(out_dir, 2) + ["stats", "--inputs", *stats_inputs]),
            Command("desirability", _cli_prefix(out_dir, 2) + [
                "desirability", "--profile", str(profile), "--candidates", str(candidates),
            ]),
            Command("report", _cli_prefix(out_dir, 2) + ["report"]),
        ]

    return Workload(
        name="study",
        build=build,
        images=TILE_IMAGES + AUGMENT_SOURCES,
        input_files=TILE_IMAGES + AUGMENT_SOURCES + STATS_RESPONSES + 3,
        input_bytes=nbytes,
        input_objects=objects,
        expect={
            "tile": {"rows": TILE_IMAGES * len(_tile_origins()), "kept": sorted(kept_tiles)},
            "augment": {"sources": AUGMENT_SOURCES, "samples": AUGMENT_SAMPLES},
            "split": {"ids": sorted(kept_tiles), "sizes": _largest_remainder(len(kept_tiles), SPLIT_RATIO)},
            "stats": {"f_ratio": f_ratios},
            "desirability": {"labels": labels},
            "report": {"responses": STATS_RESPONSES, "candidates": len(labels)},
        },
    )


def generate(name: str, seed: int, work: Path, repo: Path) -> Workload:
    """Write the inputs of workload `name` under `work` and return the
    command sequence with its expected outcomes."""
    rng = random.Random(f"{name}:{seed}")
    if name == "eval-sparse":
        return _eval_workload(name, work, rng, [SPARSE_OBJECTS] * SPARSE_IMAGES, jobs=1)
    if name == "eval-dense":
        counts = [DENSE_OBJECTS] * DENSE_IMAGES + [CROWDED_OBJECTS] * CROWDED_IMAGES
        return _eval_workload(name, work, rng, counts, jobs=2)
    if name == "study":
        return _study_workload(work, rng, repo)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
