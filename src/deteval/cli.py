"""Command-line pipeline: tile, augment, split, evaluate, stats,
desirability, and the consolidated report, each declared once in `_COMMANDS`.
A command reads its inputs through `_read` and returns its artifacts and the
summary it prints (or the CliError it exits with); `main` writes them, within
the entries the command owns, and the run manifest. Each command imports the
modules it uses beyond annotations and config itself, so that it pays start-up
only for what it runs."""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from fnmatch import fnmatchcase
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .annotations import (
    ClassRegistry,
    decode_text,
    format_yolo_rows,
    integer,
    number,
    read_csv,
    read_yolo,
    split_lines,
    yolo_rows,
)
from .config import (
    SCHEMA_VERSION,
    InputKindError,
    digest_inputs,
    json_text,
    load_config,
    read_input,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_OUTPUT = 3

TN_CONVENTION = (
    "true negatives are undefined for open-scene detection and counted as 0; "
    "accuracy = TP / (TP + FP + FN)"
)

class CliError(Exception):
    """User-facing input/configuration failure (exit status 2)."""

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}


def _emit_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, CliError) and exc.context:
        record["context"] = exc.context
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _parse_file(parse, path: Path, data: bytes, *args):
    """`parse(text, *args)` on the text of `data`, the bytes of `path`.
    Parsers report bad input as ValueError (AnnotationError, RegistryError,
    JSONDecodeError and UnicodeDecodeError are ones), and JSON nested too
    deeply as RecursionError; either becomes a CliError naming the file."""
    try:
        return parse(decode_text(data), *args)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _read(inputs: dict, key: str, value, parse=None, *args, name: str = "", output_dir=None):
    """The one way a command reads an input: the path `value` of config key
    `name` (default `key`), a directory when `parse` is None and a file
    otherwise, read once by `read_input`, with its digest recorded as
    `inputs[key]` for `_manifest`. Returns the directory's `*.txt` bytes by
    image id, or the file's `parse(text, *args)` as `_parse_file` gives it.
    An unset `value`, one missing or of the other kind, or a directory that is
    `output_dir`, whose artifacts it would read back, is a CliError naming the key."""
    if value is None:
        raise CliError(f"config key {name or key!r} is required for this command")
    try:
        data = read_input(value, "directory" if parse is None else "file")
    except InputKindError as exc:
        raise CliError(f"{name or key}: {exc}") from None
    if output_dir and os.path.isdir(output_dir) and os.path.samefile(value, output_dir):
        raise CliError(f"{name or key} and output_dir are one directory, whose outputs it would read: {value}")
    inputs[key] = digest_inputs(data)
    return data if parse is None else _parse_file(parse, Path(value), data, *args)


def _registry(config: dict, inputs: dict) -> ClassRegistry:
    return _read(inputs, "class_registry", config["class_registry"], ClassRegistry.from_text)


def _jsonable_float(value: float):
    return value if math.isfinite(value) else repr(float(value))


def _csv_text(header, rows) -> str:
    """The text of one CSV artifact; every CSV the toolkit writes has this format."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def _manifest(command: str, config: dict, inputs: dict) -> dict:
    """The run manifest, with the digests `_read` recorded of the inputs;
    `_write_outputs` adds the time it writes the manifest as `created_utc`."""
    return {"schema_version": SCHEMA_VERSION, "toolkit_version": __version__, "command": command,
            "config": config, "input_digests": dict(inputs)}


def _write_outputs(out_dir: Path, artifacts: dict[str, str], manifest: dict, owns: tuple[str, ...]) -> None:
    """Every file a command writes: the artifacts, `{path under out_dir: text}`,
    as UTF-8 bytes in order, then the run manifest, so that a manifest is only
    ever written after its artifacts. Each artifact must fall under one of
    the top-level entries `owns` (see `Command`), or nothing is written; each
    owned directory is made, even when nothing is written into it."""
    for rel in artifacts:
        head, sep, _ = rel.partition("/")
        if not any(fnmatchcase(head + sep, entry) for entry in owns):
            raise RuntimeError(f"{manifest['command']} does not own {rel!r}")
    created_utc = datetime.now(timezone.utc).isoformat()
    artifacts = {**artifacts, "run_manifest.json": json_text({**manifest, "created_utc": created_utc})}
    paths = [out_dir / rel for rel in artifacts]
    for directory in dict.fromkeys([out_dir / e for e in owns if e.endswith("/")] + [p.parent for p in paths]):
        directory.mkdir(parents=True, exist_ok=True)
    for path, text in zip(paths, artifacts.values()):
        path.write_bytes(text.encode("utf-8"))


def _image_size_row(image_id: str, *cells: str) -> tuple[str, tuple[int, int]]:
    """One `image_id,width_px,height_px` row of an image-sizes CSV."""
    width, height = map(integer, cells)
    if width <= 0 or height <= 0:
        raise ValueError(f"width and height must be positive: {list(cells)}")
    return image_id, (width, height)


def _image_sizes(tile: dict, ids: list[str], inputs: dict) -> dict[str, tuple[int, int]]:
    if tile["image_sizes_csv"]:
        sizes: dict[str, tuple[int, int]] = {}

        def add(*row):  # a repeated id is refused on its line
            image_id, size = _image_size_row(*row)
            if sizes.setdefault(image_id, size) is not size:
                raise ValueError(f"image id {image_id!r} is listed twice")

        _read(inputs, "image_sizes_csv", tile["image_sizes_csv"], read_csv, 3, add)
        missing = [i for i in ids if i not in sizes]
        if missing:
            raise CliError(f"image_sizes_csv lacks entries for: {missing}")
        return {i: sizes[i] for i in ids}
    if tile["image_width"] and tile["image_height"]:
        return {i: (tile["image_width"], tile["image_height"]) for i in ids}
    raise CliError("image dimensions unknown: set tile.image_width/image_height or tile.image_sizes_csv")


def _ground_truth(config: dict, inputs: dict) -> dict[str, bytes]:
    """The ground-truth annotation files by image id; there must be at least one."""
    annotations = _read(inputs, "ground_truth_dir", config["ground_truth_dir"], output_dir=config["output_dir"])
    if not annotations:
        raise CliError(f"no annotation files (*.txt) under {Path(config['ground_truth_dir'])}")
    return annotations


def _ground_truth_rows(config: dict, inputs: dict) -> dict[str, list]:
    """The `yolo_rows` of each ground-truth annotation file by image id, in id
    order, with class ids checked against the registry when one is set."""
    registry = _registry(config, inputs) if config["class_registry"] else None
    gt_dir = Path(config["ground_truth_dir"])
    return {image_id: _parse_file(yolo_rows, gt_dir / f"{image_id}.txt", data, 5, registry)
            for image_id, data in _ground_truth(config, inputs).items()}


def cmd_tile(config: dict, inputs: dict) -> tuple[dict, str]:
    from .prep import TileSpec, plan_tiles, retile_annotations

    annotations = _ground_truth_rows(config, inputs)
    tile = config["tile"]
    spec = TileSpec(tile["width"], tile["height"], tile["edge_policy"], tile["min_visibility"])
    sizes = _image_sizes(tile, list(annotations), inputs)

    artifacts, manifest_rows, discarded = {}, [], []
    for image_id, rows in annotations.items():
        width, height = sizes[image_id]
        try:
            tiles = plan_tiles(width, height, spec)
        except ValueError as exc:
            raise CliError(f"image {image_id!r}: {exc}") from exc
        digits = max(3, len(str(len(tiles) - 1)))  # ids sort in tile order
        for index, (rect, tile_rows) in enumerate(zip(tiles, retile_annotations(rows, width, height, tiles, spec))):
            tile_id = f"{image_id}_{index:0{digits}d}"
            manifest_rows.append((tile_id, image_id, rect.x0, rect.y0, rect.w, rect.h))
            if tile_rows:
                artifacts[f"tiles/{tile_id}.txt"] = format_yolo_rows(tile_rows)
            else:
                discarded.append(tile_id)

    artifacts["tiles_manifest.csv"] = _csv_text(["tile_id", "src_image", "x0", "y0", "w", "h"], manifest_rows)
    artifacts["discarded_tiles.txt"] = "".join(f"{t}\n" for t in discarded)
    return artifacts, (
        f"tiled {len(annotations)} images into {len(manifest_rows)} tiles "
        f"({len(discarded)} discardable); manifest: {Path(config['output_dir']) / 'tiles_manifest.csv'}"
    )


def cmd_augment(config: dict, inputs: dict) -> tuple[dict, str]:
    from .prep import AugmentOp, AugmentPipeline, augment

    annotations = _ground_truth_rows(config, inputs)
    ops = tuple(map(AugmentOp.from_config, config["augment"]["operations"]))
    pipeline = AugmentPipeline(ops, config["seed"], config["augment"]["min_visibility"])

    artifacts, rows = {}, []
    for image_id, boxes in annotations.items():
        for k, sample in enumerate(augment(boxes, pipeline, config["augment"]["samples"])):
            sample_id = f"{image_id}_aug{k:04d}"
            artifacts[f"augmented/{sample_id}.txt"] = format_yolo_rows(sample)
            rows.append((sample_id, image_id, len(sample)))
    artifacts["augment_manifest.csv"] = _csv_text(["sample_id", "src_image", "objects"], rows)
    return artifacts, f"wrote {len(rows)} augmented annotation sets under {Path(config['output_dir']) / 'augmented'}"


def cmd_split(config: dict, inputs: dict) -> tuple[dict, str]:
    from .prep import SplitRatio, sample_ids, split_dataset

    split = config["split"]
    if split["ids_file"]:
        source, lines = "split.ids_file", _read(inputs, "ids_file", split["ids_file"], split_lines)
        ids = [line.strip() for line in lines if line.strip()]
    else:
        source, ids = "ground_truth_dir", list(_ground_truth(config, inputs))
    try:
        drawn = sample_ids(ids, split["sample_count"], config["seed"]) if split["sample_count"] else ids
        result = split_dataset(drawn, SplitRatio(*split["ratio"]), config["seed"])
    except ValueError as exc:
        raise CliError(f"{exc} (split.sample_count is {json.dumps(split['sample_count'])}, "
                       f"split.ratio is {json.dumps(split['ratio'])}, {len(ids)} ids in {source})") from exc
    partitions = ((image_id, part) for part in ("train", "val", "test") for image_id in getattr(result, part))
    artifacts = {"split_manifest.csv": _csv_text(["image_id", "partition"], partitions)}
    return artifacts, (f"split {len(drawn)} ids into train={len(result.train)} val={len(result.val)} "
                       f"test={len(result.test)}; manifest: {Path(config['output_dir']) / 'split_manifest.csv'}")


def _metric_entry(value) -> dict:
    entry = {"value": float(value)}
    if getattr(value, "degenerate", False):
        entry["degenerate"] = True
    return entry


def _evaluation_columns(registry: ClassRegistry, ids: list[str], *sides) -> EvalColumns:
    """Ground truth and predictions of the images `ids` as columns, from two
    sides of (directory, annotation files by image id, fields per row); an
    image without a file on one side is empty there. A malformed file raises
    the CliError of the first one in image order, ground truth before
    predictions, as `yolo_rows` words it."""
    from .metrics import EvalColumns

    try:
        return EvalColumns(*(read_yolo([files.get(i, b"") for i in ids], n_fields, registry)
                             for _, files, n_fields in sides))
    except ValueError:
        pass
    for image_id in ids:
        for directory, files, n_fields in sides:
            _parse_file(yolo_rows, directory / f"{image_id}.txt", files.get(image_id, b""), n_fields, registry)
    raise AssertionError("read_yolo rejected files that yolo_rows accepts")


def cmd_evaluate(config: dict, inputs: dict) -> tuple[dict, str]:
    from .metrics import evaluate_detections

    registry = _registry(config, inputs)
    truth_files = _ground_truth(config, inputs)
    pred_files = _read(inputs, "predictions_dir", config["predictions_dir"], output_dir=config["output_dir"])
    iou_threshold = config["iou_threshold"]

    missing = sorted(set(truth_files) - set(pred_files))
    extra = sorted(set(pred_files) - set(truth_files))
    if (missing or extra) and not config["allow_partial"]:
        raise CliError(
            "ground truth and predictions disagree on image ids "
            "(use --allow-partial to treat the missing side as empty)",
            context={"missing_predictions": missing, "unmatched_prediction_files": extra},
        )

    ids = sorted(set(truth_files) | set(pred_files))
    columns = _evaluation_columns(registry, ids, (Path(config["ground_truth_dir"]), truth_files, 5),
                                  (Path(config["predictions_dir"]), pred_files, 6))
    del truth_files, pred_files  # the columns hold what evaluation reads of them
    if not len(registry):  # which leaves no class AP to average into mAP
        raise CliError(f"class_registry lists no class: {config['class_registry']}")
    interpolation = config["ap_interpolation"]
    report = evaluate_detections(columns, registry, iou_threshold, interpolation=interpolation)

    scores = ("ap", "precision", "recall", "f1", "accuracy")
    per_class = {entry.name: {**{name: _metric_entry(getattr(entry, name)) for name in scores},
                              "tp": entry.tally.tp, "fp": entry.tally.fp, "fn": entry.tally.fn}
                 for entry in report.per_class}
    document = {
        "schema_version": SCHEMA_VERSION,
        "conventions": {
            "true_negatives": TN_CONVENTION,
            "ap_interpolation": interpolation,
            "values": "metrics are fractions in [0,1], not percentages",
        },
        "iou_threshold": iou_threshold,
        "image_count": len(ids),
        "missing_predictions": missing,
        "unmatched_prediction_files": extra,
        "per_class": per_class,
        "map50": report.map50,
        "confusion_matrix": {
            "classes": list(report.confusion.class_names),
            "rows": "predicted",
            "columns": "truth",
            "matrix": [list(row) for row in report.confusion.matrix],
        },
        "degenerate_flags": list(report.degenerate_flags),
    }
    artifacts = {"evaluation.json": json_text(document)}
    for entry in report.per_class:
        # `_csv_text`'s format: the cells need no quoting
        curve = entry.curve
        columns = zip(curve.threshold.tolist(), curve.precision.tolist(), curve.recall.tolist())
        rows = "".join(map("%.6f,%.6f,%.6f\n".__mod__, columns))
        artifacts[f"pr_curve_{entry.name}.csv"] = "threshold,precision,recall\n" + rows
    return artifacts, (
        f"evaluated {len(ids)} images: mAP@{round(iou_threshold * 100)} = "
        f"{report.map50:.4f}; report: {Path(config['output_dir']) / 'evaluation.json'}"
    )


def _observation_row(group: str, raw: str) -> tuple[str, float]:
    return group, number(raw)


def _stats_for_file(inputs: dict, i: int, path: Path) -> dict:
    """The entry of the `i`th stats input, `path`, read as `inputs["input_<i>"]`."""
    from .stats import ObservationTable, anova_oneway, shapiro_wilk, t_test_pairwise

    header, rows = _read(inputs, f"input_{i}", path, read_csv, 2, _observation_row, name="stats_inputs")
    response = path.stem
    entry: dict = {"response": response, "effect": header[0] or "group"}
    try:
        table = ObservationTable.from_rows(response, rows)
    except ValueError as exc:
        entry["error"] = str(exc)
        return entry

    normality = []
    for label, observations in table.groups:
        try:
            sw = shapiro_wilk(observations)
            normality.append(
                {"group": label, "n": sw.n, "W": sw.statistic, "p_value": sw.p_value}
            )
        except ValueError as exc:
            normality.append({"group": label, "error": str(exc)})
    entry["shapiro_wilk"] = normality

    try:
        anova = anova_oneway(table)
    except ValueError as exc:
        entry["error"] = str(exc)
        return entry
    entry["anova"] = {
        "f_ratio": _jsonable_float(anova.f_ratio),
        "prob_gt_f": anova.p_value,
        "df": list(anova.df),
        "ss_between": anova.ss_between,
        "ss_within": anova.ss_within,
        "ms_between": anova.ms_between,
        "ms_within": anova.ms_within,
        "grand_mean": anova.grand_mean,
        "effects": {label: eff for label, eff in zip(anova.group_labels, anova.effects)},
        "degenerate": anova.degenerate,
    }
    entry["pairwise_t"] = [
        {
            "groups": [t.group_a, t.group_b],
            "t": _jsonable_float(t.statistic),
            "df": t.df,
            "p_value": t.p_value,
            "degenerate": t.degenerate,
        }
        for t in t_test_pairwise(table)
    ]
    return entry


def cmd_stats(config: dict, inputs: dict) -> tuple[dict, str | CliError]:
    if not config["stats_inputs"]:
        raise CliError("no stats inputs: set stats_inputs in the config or pass --inputs")
    paths = sorted(map(Path, config["stats_inputs"]), key=str)
    stems = [path.stem for path in paths]
    repeated = [stem for stem in stems if stems.count(stem) > 1]
    if repeated:
        named = ", ".join(str(path) for path in paths if path.stem == repeated[0])
        raise CliError(f"stats_inputs: response {repeated[0]!r} is named by more than one input: {named}")
    entries = [_stats_for_file(inputs, i, path) for i, path in enumerate(paths)]
    summary = (
        [e["response"], e["effect"], e["anova"]["f_ratio"], e["anova"]["prob_gt_f"]]
        if "anova" in e
        else [e["response"], e["effect"], "error", "error"]
        for e in entries
    )
    artifacts = {
        "stats.json": json_text({"schema_version": SCHEMA_VERSION, "responses": entries}),
        "stats.csv": _csv_text(["response", "effect", "F_ratio", "prob_gt_F"], summary),
    }
    failed = [e["response"] for e in entries if "error" in e]
    if failed:  # the documents are written all the same, with each response's error
        return artifacts, CliError(f"stats failed for responses: {failed}", context={"responses": failed})
    return artifacts, f"analyzed {len(entries)} responses; report: {Path(config['output_dir']) / 'stats.json'}"


def cmd_desirability(config: dict, inputs: dict) -> tuple[dict, str]:
    from .desirability import DesirabilityProfile, load_candidates_csv, select_best

    profile = _read(inputs, "desirability_profile", config["desirability_profile"], DesirabilityProfile.from_json)
    candidates = _read(inputs, "candidates", config["candidates"], load_candidates_csv)
    try:
        ranking = select_best(candidates, profile)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    goal_names = [g.name for g in profile.goals]
    rows = (
        [entry.rank, entry.label, f"{entry.overall:.6f}"]
        + [f"{entry.components[name]:.6f}" for name in goal_names]
        + [str(entry.tied).lower()]
        for entry in ranking
    )
    header = ["rank", "label", "D"] + [f"d_{name}" for name in goal_names] + ["tied"]
    best = ranking[0]
    return {"desirability_ranking.csv": _csv_text(header, rows)}, (
        f"ranked {len(ranking)} candidates: best {best.label!r} (D={best.overall:.4f}); "
        f"ranking: {Path(config['output_dir']) / 'desirability_ranking.csv'}"
    )


def _load_json(text: str):
    """A prior JSON output; `NaN` and `Infinity`, which no artifact may hold, are a ValueError."""
    return json.loads(text, parse_constant=number)


def _load_ranking_csv(text: str) -> list[dict]:
    """A prior ranking's rows as {header cell: cell}; a row not as wide as the header is a ValueError."""
    header, rows = read_csv(text, len(next(csv.reader(split_lines(text)), ())), lambda *cells: cells)
    return [dict(zip(header, cells)) for cells in rows]


def _evaluation_lines(evaluation: dict) -> list[str]:
    lines = [
        f"IoU threshold: {evaluation['iou_threshold']}",
        f"note: {evaluation['conventions']['true_negatives']}",
    ]
    for name, row in sorted(evaluation["per_class"].items()):
        lines.append(
            f"  {name}: AP {row['ap']['value'] * 100:.2f}%  "
            f"P {row['precision']['value'] * 100:.2f}%  "
            f"R {row['recall']['value'] * 100:.2f}%  "
            f"F1 {row['f1']['value'] * 100:.2f}%  "
            f"acc {row['accuracy']['value'] * 100:.2f}%  "
            f"(tp {row['tp']}, fp {row['fp']}, fn {row['fn']})"
        )
    lines.append(f"  mAP@50: {evaluation['map50'] * 100:.2f}%")
    if evaluation["degenerate_flags"]:
        lines.append(f"  degenerate: {', '.join(evaluation['degenerate_flags'])}")
    return lines


def _stats_lines(stats: dict) -> list[str]:
    lines = []
    for entry in stats["responses"]:
        if "error" in entry:
            lines.append(f"  {entry['response']}: error: {entry['error']}")
            continue
        anova = entry["anova"]
        lines.append(
            f"  {entry['response']} ~ {entry['effect']}: "
            f"F = {anova['f_ratio']}  Prob>F = {anova['prob_gt_f']:.6g}  "
            f"df = {tuple(anova['df'])}"
        )
    return lines


def _ranking_lines(ranking: list[dict]) -> list[str]:
    return [f"  {row['rank']}. {row['label']}  D = {row['D']}" for row in ranking]


def _report_section(text: str, load, render) -> tuple:
    """A prior output as `load` parses it and the lines `render` makes of it
    for `report.txt`; an output that lacks what `render` reads is a ValueError."""
    section = load(text)
    try:
        return section, render(section)
    except (LookupError, TypeError, AttributeError) as exc:
        raise ValueError(f"not a document the report can read: {type(exc).__name__}: {exc}") from None


def cmd_report(config: dict, inputs: dict) -> tuple[dict, str]:
    out_dir = Path(config["output_dir"])
    if not out_dir.is_dir():
        raise CliError(f"output dir with prior command outputs not found: {out_dir}")
    sections, text = {}, [f"deteval run report (toolkit {__version__})", ""]
    if config["run_metadata"]:
        text += [f"metadata: {config['run_metadata']}", ""]
    for name, filename, load, heading, render in (c.section for c in _COMMANDS.values() if c.section):
        sections[name], lines = "absent", ["absent"]
        if (out_dir / filename).is_file():
            sections[name], lines = _read(inputs, name, out_dir / filename, _report_section, load, render)
        text += [f"== {heading} ==", *lines, ""]
    document = {
        "schema_version": SCHEMA_VERSION,
        "run_metadata": config["run_metadata"],
        "sections": sections,
        # the manifest `main` writes, but for created_utc, which is added
        # only to run_manifest.json, so identical inputs reproduce this
        # document byte for byte.
        "manifest": _manifest("report", config, inputs),
    }
    artifacts = {"report.json": json_text(document), "report.txt": "\n".join(text)}
    return artifacts, f"report: {out_dir / 'report.json'} and {out_dir / 'report.txt'}"


class Command(NamedTuple):
    """A command's handler, `--help` text, the top-level entries of the output
    dir it owns and alone may write (a file name, a directory `name/` or a glob
    family such as `pr_curve_*.csv`), and the `report` section it feeds:
    (section name, file, loader, heading in report.txt, renderer)."""

    run: Callable
    help: str
    owns: tuple[str, ...]
    section: tuple | None = None


_COMMANDS = {
    "tile": Command(cmd_tile, "plan a tile grid and remap annotations per tile",
                    ("tiles/", "tiles_manifest.csv", "discarded_tiles.txt")),
    "augment": Command(cmd_augment, "generate augmented annotation samples", ("augmented/", "augment_manifest.csv")),
    "split": Command(cmd_split, "allocate images to train/val/test", ("split_manifest.csv",)),
    "evaluate": Command(cmd_evaluate, "match predictions to ground truth and report metrics",
                        ("evaluation.json", "pr_curve_*.csv"),
                        ("evaluation", "evaluation.json", _load_json, "detection evaluation", _evaluation_lines)),
    "stats": Command(cmd_stats, "normality, ANOVA, and pairwise t per response CSV", ("stats.json", "stats.csv"),
                     ("stats", "stats.json", _load_json, "effect tests", _stats_lines)),
    "desirability": Command(cmd_desirability, "rank candidates by overall desirability", ("desirability_ranking.csv",),
                            ("desirability", "desirability_ranking.csv", _load_ranking_csv, "desirability ranking",
                             _ranking_lines)),
    "report": Command(cmd_report, "combine prior outputs into one document", ("report.json", "report.txt")),
}


def _path(text: str) -> str:
    return text and str(Path(text))  # "" stays "", which is no path, not "."


def _parse_wxh(flag: str, text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return integer(w), integer(h)
    except ValueError:
        raise CliError(f"{flag}: expected WxH (e.g. 416x416), got {text!r}") from None


def _parse_ratio(text: str) -> list[int]:
    try:
        return [integer(part) for part in text.split(":")]
    except ValueError:
        raise CliError(f"expected ratio A:B:C, got {text!r}") from None


# Every flag that overrides a config key: (subcommands that take it, or None
# for a flag given before the subcommand; flag; dotted config path, or a
# tuple of paths that a tuple value is spread over; argparse options). A
# number is read as every number in text is, by `integer` or `number`, whose
# ValueError argparse reports as a usage error; argparse passes a CliError on,
# so that of a malformed WxH or ratio reaches `main` as a JSON error record.
_FLAGS = (
    (None, "--jobs", "jobs", {"type": integer, "help": "accepted for compatibility, at least 1"}),
    (None, "--seed", "seed", {"type": integer, "help": "RNG seed for augment/split"}),
    (None, "--allow-partial", "allow_partial", {"action": "store_true", "default": None, "help": (
        "evaluate: treat images missing on one side as empty instead of failing")}),
    (None, "--output-dir", "output_dir", {"type": _path, "help": "directory for outputs"}),
    (("tile", "augment", "split", "evaluate"), "--ground-truth-dir", "ground_truth_dir", {"type": _path}),
    (("tile", "augment", "evaluate"), "--class-registry", "class_registry", {"type": _path}),
    (("tile",), "--tile-size", ("tile.width", "tile.height"), {
        "type": partial(_parse_wxh, "--tile-size"), "help": "WxH, e.g. 416x416"}),
    (("tile",), "--image-size", ("tile.image_width", "tile.image_height"), {
        "type": partial(_parse_wxh, "--image-size"), "help": "WxH applied to every image"}),
    (("tile",), "--image-sizes-csv", "tile.image_sizes_csv", {
        "type": _path, "help": "CSV image_id,width_px,height_px"}),
    (("tile",), "--edge-policy", "tile.edge_policy", {"help": "anchor-to-edge or pad"}),
    (("tile",), "--min-visibility", "tile.min_visibility", {"type": number}),
    (("augment",), "--samples", "augment.samples", {"type": integer}),
    (("split",), "--ids-file", "split.ids_file", {"type": _path, "help": "one image id per line"}),
    (("split",), "--ratio", "split.ratio", {"type": _parse_ratio, "help": "A:B:C, e.g. 15:3:2"}),
    (("split",), "--sample-count", "split.sample_count", {
        "type": integer, "help": "draw this many ids before splitting"}),
    (("evaluate",), "--predictions-dir", "predictions_dir", {"type": _path}),
    (("evaluate",), "--iou-threshold", "iou_threshold", {"type": number}),
    (("stats",), "--inputs", "stats_inputs", {
        "type": _path, "nargs": "+", "help": "group,observation CSV files"}),
    (("desirability",), "--profile", "desirability_profile", {
        "type": _path, "help": "goal definitions (JSON)"}),
    (("desirability",), "--candidates", "candidates", {
        "type": _path, "help": "label,response,value CSV"}),
)


@cache  # built once per process: it reads only the names and help of `_COMMANDS`
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deteval",
        description=(
            "dataset preparation, detection evaluation, effect-test statistics, "
            "and desirability-based model selection"
        ),
    )
    parser.add_argument("--version", action="version", version=f"deteval {__version__}")
    parser.add_argument("--config", type=Path, help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=command.help) for name, command in _COMMANDS.items()}
    for commands, flag, _, options in _FLAGS:
        for target in [parser] if commands is None else [parsers[c] for c in commands]:
            target.add_argument(flag, **options)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    """Nested config overrides from the flags given on the command line."""
    overrides: dict = {}
    for _, flag, paths, _ in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None:
            continue
        if isinstance(paths, str):
            paths, value = (paths,), (value,)
        for path, part in zip(paths, value):
            *parents, key = path.split(".")
            node = overrides
            for name in parents:
                node = node.setdefault(name, {})
            node[key] = part
    return overrides


def main(argv=None) -> int:
    # deteval makes no BLAS call big enough for threads; OpenBLAS starts its pool on import
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = _build_parser().parse_args(argv)
        config = load_config(args.config, _overrides(args))
        inputs: dict = {}
        command = _COMMANDS[args.command]
        artifacts, outcome = command.run(config, inputs)
        _write_outputs(Path(config["output_dir"]), artifacts, _manifest(args.command, config, inputs), command.owns)
        if isinstance(outcome, CliError):
            raise outcome
        print(outcome)
        return EXIT_OK
    except (CliError, ValueError) as exc:  # ConfigError, InputError and the parse errors are ValueErrors
        _emit_error(exc)
        return EXIT_INPUT
    except OSError as exc:  # inputs that cannot be read raise InputError, so this is a write
        _emit_error(exc)
        return EXIT_OUTPUT
    except Exception as exc:  # an internal failure, such as an artifact the command does not own
        _emit_error(exc)
        return EXIT_FAILURE


def run() -> int:
    """`main` as the `deteval` process runs it: with no cyclic collection, during
    the run or over what is left at exit (`--version` and usage errors exit
    from inside `main`). `main` itself keeps the collector."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
