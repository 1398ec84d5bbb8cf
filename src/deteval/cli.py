"""Command-line pipeline: tile, augment, split, evaluate, stats,
desirability, and the consolidated report."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from . import __version__
from .annotations import (
    AnnotatedImage,
    ClassRegistry,
    decode_text,
    format_yolo_annotation,
    number,
    parse_yolo_annotation,
    read_csv,
    read_yolo,
)
from .config import (
    SCHEMA_VERSION,
    RunManifest,
    augment_pipeline_from,
    digest_inputs,
    load_config,
    read_input,
    split_ratio_from,
    tile_spec_from,
    write_json,
)
from .desirability import DesirabilityProfile, load_candidates_csv, select_best
from .metrics import EvalColumns, evaluate_detections
from .prep import augment, plan_tiles, retile_annotations, sample_ids, split_dataset
from .stats import ObservationTable, anova_oneway, shapiro_wilk, t_test_pairwise

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2

TN_CONVENTION = (
    "true negatives are undefined for open-scene detection and counted as 0; "
    "accuracy = TP / (TP + FP + FN)"
)

_IMAGE_SUFFIXES = (".png", ".jpg", ".jpeg", ".tif", ".tiff", ".bmp")


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


def _require_path(config: dict, key: str, kind: str = "dir") -> Path:
    value = config.get(key)
    if not value:
        raise CliError(f"config key {key!r} is required for this command")
    path = Path(value)
    if kind == "dir" and not path.is_dir():
        raise CliError(f"{key}: not a directory: {path}")
    if kind == "file" and not path.is_file():
        raise CliError(f"{key}: not a file: {path}")
    return path


def _parse_file(parse, path: Path, data: bytes, *args):
    """`parse(text, *args)` on the text of `data`, the bytes of `path`.
    Parsers report bad input as ValueError (AnnotationError, RegistryError,
    JSONDecodeError and UnicodeDecodeError are ones), which becomes a
    CliError naming the file."""
    try:
        return parse(decode_text(data), *args)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _annotation_files(tree: dict[str, bytes]) -> dict[str, bytes]:
    """The bytes of the `<image_id>.txt` files directly in a directory that
    `read_input` read, by image id, in id order."""
    return dict(sorted(
        (name[: -len(".txt")], data)
        for name, data in tree.items()
        if "/" not in name and name.endswith(".txt")
    ))


def _jsonable_float(value: float):
    return value if math.isfinite(value) else repr(float(value))


def _write_csv(path: Path, header, rows) -> None:
    """Write one CSV artifact; every CSV the toolkit writes has this format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict) -> None:
    """The run manifest, with digests of the inputs as `read_input` read them."""
    manifest = RunManifest(command=command, config=config, input_digests=digest_inputs(inputs))
    write_json(out_dir / "run_manifest.json", manifest.to_dict())


def _image_size_row(image_id: str, *cells: str) -> tuple[str, tuple[int, int]]:
    """One `image_id,width_px,height_px` row of an image-sizes CSV."""
    try:
        width, height = (int(cell) for cell in cells)
    except ValueError:
        raise ValueError(f"width and height must be integers: {list(cells)}") from None
    if width <= 0 or height <= 0:
        raise ValueError(f"width and height must be positive: {list(cells)}")
    return image_id, (width, height)


def _image_sizes(config: dict, ids: list[str]) -> dict[str, tuple[int, int]]:
    tile_cfg = config["tile"]
    if tile_cfg.get("image_sizes_csv"):
        path = _require_path(tile_cfg, "image_sizes_csv", "file")
        sizes = dict(_parse_file(read_csv, path, read_input(path), 3, _image_size_row)[1])
        missing = [i for i in ids if i not in sizes]
        if missing:
            raise CliError(f"image_sizes_csv lacks entries for: {missing}")
        return {i: sizes[i] for i in ids}
    if tile_cfg.get("images_dir"):
        from . import rasters

        images_dir = Path(tile_cfg["images_dir"])
        return {i: rasters.image_size(_find_image(images_dir, i)) for i in ids}
    if tile_cfg.get("image_width") and tile_cfg.get("image_height"):
        size = (int(tile_cfg["image_width"]), int(tile_cfg["image_height"]))
        return {i: size for i in ids}
    raise CliError(
        "image dimensions unknown: set tile.image_width/image_height, "
        "tile.image_sizes_csv, or tile.images_dir"
    )


def _find_image(images_dir: Path, image_id: str) -> Path:
    for suffix in _IMAGE_SUFFIXES:
        candidate = images_dir / f"{image_id}{suffix}"
        if candidate.is_file():
            return candidate
    raise CliError(f"no raster found for {image_id!r} under {images_dir}")


def _ground_truth(config: dict) -> tuple[Path, ClassRegistry | None, dict[str, bytes], dict]:
    """The ground-truth dir, the class registry if one is configured, the
    annotation files by image id, of which there must be at least one, and
    the ground-truth dir and registry as read, for the manifest."""
    gt_dir = _require_path(config, "ground_truth_dir")
    registry = registry_data = None
    if config.get("class_registry"):
        registry_path = _require_path(config, "class_registry", "file")
        registry_data = read_input(registry_path)
        registry = _parse_file(ClassRegistry.from_text, registry_path, registry_data)
    tree = read_input(gt_dir)
    annotations = _annotation_files(tree)
    if not annotations:
        raise CliError(f"no annotation files (*.txt) under {gt_dir}")
    return gt_dir, registry, annotations, {"ground_truth_dir": tree, "class_registry": registry_data}


def cmd_tile(config: dict) -> int:
    gt_dir, registry, annotations, inputs = _ground_truth(config)
    ids = list(annotations)
    out_dir = Path(config["output_dir"])
    spec = tile_spec_from(config)
    sizes = _image_sizes(config, ids)
    images_dir = config["tile"].get("images_dir")

    tiles_dir = out_dir / "tiles"
    tiles_dir.mkdir(parents=True, exist_ok=True)
    manifest_rows = []
    discarded = []
    for image_id, data in annotations.items():
        objects = _parse_file(parse_yolo_annotation, gt_dir / f"{image_id}.txt", data, registry)
        width, height = sizes[image_id]
        image = AnnotatedImage(image_id, width, height, tuple(objects))
        tiles = plan_tiles(width, height, spec)
        tiled = retile_annotations(image, tiles, spec)
        kept_rects, kept_ids = [], []
        for rect, tile_image in zip(tiles, tiled):
            manifest_rows.append(
                (tile_image.image_id, image_id, rect.x0, rect.y0, rect.w, rect.h)
            )
            if tile_image.objects:
                (tiles_dir / f"{tile_image.image_id}.txt").write_text(
                    format_yolo_annotation(tile_image.objects), encoding="utf-8"
                )
                kept_rects.append(rect)
                kept_ids.append(tile_image.image_id)
            else:
                discarded.append(tile_image.image_id)
        if images_dir and kept_rects:
            from . import rasters

            rasters.write_tile_crops(
                _find_image(Path(images_dir), image_id), kept_rects, kept_ids, tiles_dir
            )

    _write_csv(
        out_dir / "tiles_manifest.csv", ["tile_id", "src_image", "x0", "y0", "w", "h"], manifest_rows
    )
    (out_dir / "discarded_tiles.txt").write_text(
        "".join(f"{t}\n" for t in discarded), encoding="utf-8"
    )
    _write_manifest(out_dir, "tile", config, inputs)
    print(
        f"tiled {len(ids)} images into {len(manifest_rows)} tiles "
        f"({len(discarded)} discardable); manifest: {out_dir / 'tiles_manifest.csv'}"
    )
    return EXIT_OK


def cmd_augment(config: dict) -> int:
    gt_dir, registry, annotations, inputs = _ground_truth(config)
    out_dir = Path(config["output_dir"])
    pipeline = augment_pipeline_from(config)
    samples = int(config["augment"]["samples"])
    # Augmentation acts on normalized coordinates; pixel dimensions are
    # carried through unchanged and default to the tile size.
    width = int(config["tile"].get("image_width") or config["tile"]["width"])
    height = int(config["tile"].get("image_height") or config["tile"]["height"])

    aug_dir = out_dir / "augmented"
    aug_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for image_id, data in annotations.items():
        objects = _parse_file(parse_yolo_annotation, gt_dir / f"{image_id}.txt", data, registry)
        image = AnnotatedImage(image_id, width, height, tuple(objects))
        for k, variant in enumerate(augment(image, pipeline, samples)):
            sample_id = f"{image_id}_aug{k:04d}"
            (aug_dir / f"{sample_id}.txt").write_text(
                format_yolo_annotation(variant.objects), encoding="utf-8"
            )
            rows.append((sample_id, image_id, len(variant.objects)))
    _write_csv(out_dir / "augment_manifest.csv", ["sample_id", "src_image", "objects"], rows)
    _write_manifest(out_dir, "augment", config, {"ground_truth_dir": inputs["ground_truth_dir"]})
    print(f"wrote {len(rows)} augmented annotation sets under {aug_dir}")
    return EXIT_OK


def cmd_split(config: dict) -> int:
    out_dir = Path(config["output_dir"])
    if config["split"].get("ids_file"):
        data = read_input(_require_path(config["split"], "ids_file", "file"))
        ids = [line.strip() for line in decode_text(data).splitlines() if line.strip()]
        digest_source: dict = {"ids_file": data}
    else:
        tree = read_input(_require_path(config, "ground_truth_dir"))
        ids = list(_annotation_files(tree))
        digest_source = {"ground_truth_dir": tree}
    if not ids:
        raise CliError("no image ids to split")
    seed = int(config["seed"])
    if config["split"].get("sample_count"):
        ids = sample_ids(ids, int(config["split"]["sample_count"]), seed)
    ratio = split_ratio_from(config)
    result = split_dataset(ids, ratio, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "split_manifest.csv",
        ["image_id", "partition"],
        ((image_id, part) for part in ("train", "val", "test") for image_id in getattr(result, part)),
    )
    _write_manifest(out_dir, "split", config, digest_source)
    print(
        f"split {len(ids)} ids into train={len(result.train)} "
        f"val={len(result.val)} test={len(result.test)}; "
        f"manifest: {out_dir / 'split_manifest.csv'}"
    )
    return EXIT_OK


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
    predictions, which is the one a file-by-file parse would meet first."""
    columns, errors = [], []
    for side, (directory, files, n_fields) in enumerate(sides):
        try:
            columns.append(read_yolo([files.get(i, b"") for i in ids], n_fields, registry))
        except ValueError as exc:
            errors.append((exc.file_index, side, directory / f"{ids[exc.file_index]}.txt", exc))
    if errors:
        *_, path, exc = min(errors, key=lambda error: error[:2])
        raise CliError(f"{path}: {exc}") from exc
    return EvalColumns(*columns)


def cmd_evaluate(config: dict) -> int:
    gt_dir = _require_path(config, "ground_truth_dir")
    pred_dir = _require_path(config, "predictions_dir")
    registry_path = _require_path(config, "class_registry", "file")
    registry_data = read_input(registry_path)
    registry = _parse_file(ClassRegistry.from_text, registry_path, registry_data)
    out_dir = Path(config["output_dir"])
    iou_threshold = float(config["iou_threshold"])
    allow_partial = bool(config["allow_partial"])

    truth_tree, pred_tree = read_input(gt_dir), read_input(pred_dir)
    truth_files, pred_files = _annotation_files(truth_tree), _annotation_files(pred_tree)
    if not truth_files:
        raise CliError(f"no annotation files (*.txt) under {gt_dir}")
    missing = sorted(set(truth_files) - set(pred_files))
    extra = sorted(set(pred_files) - set(truth_files))
    if (missing or extra) and not allow_partial:
        raise CliError(
            "ground truth and predictions disagree on image ids "
            "(use --allow-partial to treat the missing side as empty)",
            context={"missing_predictions": missing, "unmatched_prediction_files": extra},
        )

    ids = sorted(set(truth_files) | set(pred_files))
    columns = _evaluation_columns(registry, ids, (gt_dir, truth_files, 5), (pred_dir, pred_files, 6))
    interpolation = config.get("ap_interpolation", "all-point")
    report = evaluate_detections(columns, registry, iou_threshold, interpolation=interpolation)

    per_class = {}
    for entry in report.per_class:
        per_class[entry.name] = {
            "ap": _metric_entry(entry.ap),
            "precision": _metric_entry(entry.precision),
            "recall": _metric_entry(entry.recall),
            "f1": _metric_entry(entry.f1),
            "accuracy": _metric_entry(entry.accuracy),
            "tp": entry.tally.tp,
            "fp": entry.tally.fp,
            "fn": entry.tally.fn,
        }
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
    write_json(out_dir / "evaluation.json", document)
    for entry in report.per_class:
        _write_csv(
            out_dir / f"pr_curve_{entry.name}.csv",
            ["threshold", "precision", "recall"],
            (
                (f"{p.threshold:.6f}", f"{p.precision:.6f}", f"{p.recall:.6f}")
                for p in entry.curve.points
            ),
        )
    _write_manifest(
        out_dir, "evaluate", config,
        {"ground_truth_dir": truth_tree, "predictions_dir": pred_tree, "class_registry": registry_data},
    )
    print(
        f"evaluated {len(ids)} images: mAP@{int(round(iou_threshold * 100))} = "
        f"{report.map50:.4f}; report: {out_dir / 'evaluation.json'}"
    )
    return EXIT_OK


def _observation_row(group: str, raw: str) -> tuple[str, float]:
    return group, number(raw)


def _stats_for_file(path: Path, data: bytes) -> dict:
    header, rows = _parse_file(read_csv, path, data, 2, _observation_row)
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


def cmd_stats(config: dict) -> int:
    inputs = [Path(p) for p in config.get("stats_inputs") or []]
    if not inputs:
        raise CliError("no stats inputs: set stats_inputs in the config or pass --inputs")
    for path in inputs:
        if not path.is_file():
            raise CliError(f"stats input not found: {path}")
    inputs = sorted(inputs, key=lambda p: str(p))
    data = [read_input(path) for path in inputs]
    out_dir = Path(config["output_dir"])
    entries = [_stats_for_file(path, blob) for path, blob in zip(inputs, data)]
    document = {"schema_version": SCHEMA_VERSION, "responses": entries}
    write_json(out_dir / "stats.json", document)
    _write_csv(
        out_dir / "stats.csv",
        ["response", "effect", "F_ratio", "prob_gt_F"],
        (
            [e["response"], e["effect"], e["anova"]["f_ratio"], e["anova"]["prob_gt_f"]]
            if "anova" in e
            else [e["response"], e["effect"], "error", "error"]
            for e in entries
        ),
    )
    _write_manifest(out_dir, "stats", config, {f"input_{i}": blob for i, blob in enumerate(data)})
    failed = [e["response"] for e in entries if "error" in e]
    if failed:
        raise CliError(f"stats failed for responses: {failed}", context={"responses": failed})
    print(f"analyzed {len(entries)} responses; report: {out_dir / 'stats.json'}")
    return EXIT_OK


def cmd_desirability(config: dict) -> int:
    profile_path = _require_path(config, "desirability_profile", "file")
    candidates_path = _require_path(config, "candidates", "file")
    out_dir = Path(config["output_dir"])
    inputs = {"desirability_profile": read_input(profile_path), "candidates": read_input(candidates_path)}
    profile = _parse_file(DesirabilityProfile.from_json, profile_path, inputs["desirability_profile"])
    candidates = _parse_file(load_candidates_csv, candidates_path, inputs["candidates"])
    try:
        ranking = select_best(candidates, profile)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    goal_names = [g.name for g in profile.goals]
    _write_csv(
        out_dir / "desirability_ranking.csv",
        ["rank", "label", "D"] + [f"d_{name}" for name in goal_names] + ["tied"],
        (
            [entry.rank, entry.label, f"{entry.overall:.6f}"]
            + [f"{entry.components[name]:.6f}" for name in goal_names]
            + [str(entry.tied).lower()]
            for entry in ranking
        ),
    )
    _write_manifest(out_dir, "desirability", config, inputs)
    best = ranking[0]
    print(
        f"ranked {len(ranking)} candidates: best {best.label!r} (D={best.overall:.4f}); "
        f"ranking: {out_dir / 'desirability_ranking.csv'}"
    )
    return EXIT_OK


def _load_ranking_csv(data: bytes) -> list[dict]:
    return [dict(row) for row in csv.DictReader(io.StringIO(data.decode("utf-8"), newline=""))]


def _load_json(data: bytes):
    return json.loads(decode_text(data))


# (section name, the file a prior command wrote into the output dir, loader)
_REPORT_SECTIONS = (
    ("evaluation", "evaluation.json", _load_json),
    ("stats", "stats.json", _load_json),
    ("desirability", "desirability_ranking.csv", _load_ranking_csv),
)


def cmd_report(config: dict) -> int:
    out_dir = Path(config["output_dir"])
    if not out_dir.is_dir():
        raise CliError(f"output dir with prior command outputs not found: {out_dir}")
    section_data = {
        name: read_input(out_dir / filename)
        for name, filename, _ in _REPORT_SECTIONS
        if (out_dir / filename).is_file()
    }
    sections = {
        name: load(section_data[name]) if name in section_data else "absent"
        for name, _, load in _REPORT_SECTIONS
    }
    manifest = RunManifest(
        command="report", config=config, input_digests=digest_inputs(section_data)
    )
    document = {
        "schema_version": SCHEMA_VERSION,
        "run_metadata": config.get("run_metadata", ""),
        "sections": sections,
        # Timestamps live only in run_manifest.json so identical inputs
        # reproduce this document byte for byte.
        "manifest": manifest.to_dict(with_timestamps=False),
    }
    write_json(out_dir / "report.json", document)
    (out_dir / "report.txt").write_text(_render_text_report(document), encoding="utf-8")
    write_json(out_dir / "run_manifest.json", manifest.to_dict())
    print(f"report: {out_dir / 'report.json'} and {out_dir / 'report.txt'}")
    return EXIT_OK


def _render_text_report(document: dict) -> str:
    lines = [f"deteval run report (toolkit {__version__})", ""]
    if document.get("run_metadata"):
        lines += [f"metadata: {document['run_metadata']}", ""]
    evaluation = document["sections"]["evaluation"]
    lines.append("== detection evaluation ==")
    if evaluation == "absent":
        lines.append("absent")
    else:
        lines.append(f"IoU threshold: {evaluation['iou_threshold']}")
        lines.append(f"note: {evaluation['conventions']['true_negatives']}")
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
    lines.append("")
    stats = document["sections"]["stats"]
    lines.append("== effect tests ==")
    if stats == "absent":
        lines.append("absent")
    else:
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
    lines.append("")
    ranking = document["sections"]["desirability"]
    lines.append("== desirability ranking ==")
    if ranking == "absent":
        lines.append("absent")
    else:
        for row in ranking:
            lines.append(f"  {row['rank']}. {row['label']}  D = {row['D']}")
    lines.append("")
    return "\n".join(lines)


_COMMANDS = {
    "tile": (cmd_tile, "plan a tile grid and remap annotations per tile"),
    "augment": (cmd_augment, "generate augmented annotation samples"),
    "split": (cmd_split, "allocate images to train/val/test"),
    "evaluate": (cmd_evaluate, "match predictions to ground truth and report metrics"),
    "stats": (cmd_stats, "normality, ANOVA, and pairwise t per response CSV"),
    "desirability": (cmd_desirability, "rank candidates by overall desirability"),
    "report": (cmd_report, "combine prior outputs into one document"),
}


def _path(text: str) -> str:
    return str(Path(text))


def _parse_wxh(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise CliError(f"expected WxH (e.g. 416x416), got {text!r}") from None


def _parse_ratio(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(":")]
    except ValueError:
        raise CliError(f"expected ratio A:B:C, got {text!r}") from None


# Every flag that overrides a config key: (subcommands that take it, or None
# for a flag given before the subcommand; flag; dotted config path, or a
# tuple of paths that a tuple value is spread over; argparse options).
# argparse turns only ValueError, TypeError and ArgumentTypeError from a
# `type` into a usage error, so the CliError of a malformed WxH or ratio
# reaches `main` and is reported as a JSON error record like any input error.
_FLAGS = (
    (None, "--jobs", "jobs", {"type": int, "help": "accepted for compatibility, at least 1"}),
    (None, "--seed", "seed", {"type": int, "help": "RNG seed for augment/split"}),
    (None, "--allow-partial", "allow_partial", {"action": "store_true", "default": None, "help": (
        "evaluate: treat images missing on one side as empty instead of failing")}),
    (None, "--output-dir", "output_dir", {"type": _path, "help": "directory for outputs"}),
    (("tile", "augment", "split", "evaluate"), "--ground-truth-dir", "ground_truth_dir", {"type": _path}),
    (("tile", "augment", "evaluate"), "--class-registry", "class_registry", {"type": _path}),
    (("tile",), "--tile-size", ("tile.width", "tile.height"), {
        "type": _parse_wxh, "help": "WxH, e.g. 416x416"}),
    (("tile",), "--image-size", ("tile.image_width", "tile.image_height"), {
        "type": _parse_wxh, "help": "WxH applied to every image"}),
    (("tile",), "--image-sizes-csv", "tile.image_sizes_csv", {
        "type": _path, "help": "CSV image_id,width_px,height_px"}),
    (("tile",), "--images-dir", "tile.images_dir", {
        "type": _path, "help": "optional rasters (enables tile crops)"}),
    (("tile",), "--edge-policy", "tile.edge_policy", {"choices": ["anchor-to-edge", "pad"]}),
    (("tile",), "--min-visibility", "tile.min_visibility", {"type": float}),
    (("augment",), "--samples", "augment.samples", {"type": int}),
    (("split",), "--ids-file", "split.ids_file", {"type": _path, "help": "one image id per line"}),
    (("split",), "--ratio", "split.ratio", {"type": _parse_ratio, "help": "A:B:C, e.g. 15:3:2"}),
    (("split",), "--sample-count", "split.sample_count", {
        "type": int, "help": "draw this many ids before splitting"}),
    (("evaluate",), "--predictions-dir", "predictions_dir", {"type": _path}),
    (("evaluate",), "--iou-threshold", "iou_threshold", {"type": float}),
    (("stats",), "--inputs", "stats_inputs", {
        "type": _path, "nargs": "+", "help": "group,observation CSV files"}),
    (("desirability",), "--profile", "desirability_profile", {
        "type": _path, "help": "goal definitions (JSON)"}),
    (("desirability",), "--candidates", "candidates", {
        "type": _path, "help": "label,response,value CSV"}),
)


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
    parsers = {name: sub.add_parser(name, help=text) for name, (_, text) in _COMMANDS.items()}
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
    try:
        args = _build_parser().parse_args(argv)
        config = load_config(args.config, _overrides(args))
        return _COMMANDS[args.command][0](config)
    except (CliError, ValueError, OSError) as exc:  # ConfigError and the parse errors are ValueErrors
        _emit_error(exc)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        _emit_error(exc)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
