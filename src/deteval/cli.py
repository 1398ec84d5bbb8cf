"""Command-line pipeline: tile, augment, split, evaluate, stats,
desirability, and the consolidated report."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__
from .annotations import (
    AnnotatedImage,
    AnnotationError,
    ClassRegistry,
    RegistryError,
    format_yolo_annotation,
    parse_yolo_annotation,
    parse_yolo_prediction,
)
from .config import (
    SCHEMA_VERSION,
    ConfigError,
    RunManifest,
    augment_pipeline_from,
    digest_inputs,
    load_config,
    split_ratio_from,
    tile_spec_from,
    write_json,
)
from .desirability import DesirabilityProfile, load_candidates_csv, select_best
from .metrics import EvalSample, evaluate_detections
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


def _read_registry(path: Path) -> ClassRegistry:
    try:
        return ClassRegistry.from_text(path.read_text(encoding="utf-8"))
    except RegistryError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _parse_annotation_file(path: Path, registry: ClassRegistry | None):
    try:
        return parse_yolo_annotation(path.read_text(encoding="utf-8"), registry)
    except (AnnotationError, RegistryError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _parse_prediction_file(path: Path, registry: ClassRegistry | None):
    try:
        return parse_yolo_prediction(path.read_text(encoding="utf-8"), registry)
    except (AnnotationError, RegistryError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _annotation_ids(directory: Path) -> list[str]:
    return sorted(p.stem for p in directory.glob("*.txt"))


def _jsonable_float(value: float):
    return value if math.isfinite(value) else repr(float(value))


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict) -> RunManifest:
    manifest = RunManifest(
        command=command, config=config, input_digests=digest_inputs(inputs)
    )
    write_json(out_dir / "run_manifest.json", manifest.to_dict())
    return manifest


def _parse_wxh(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise CliError(f"expected WxH (e.g. 416x416), got {text!r}") from None


def _image_sizes(config: dict, gt_dir: Path, ids: list[str]) -> dict[str, tuple[int, int]]:
    tile_cfg = config["tile"]
    if tile_cfg.get("image_sizes_csv"):
        path = Path(tile_cfg["image_sizes_csv"])
        if not path.is_file():
            raise CliError(f"image_sizes_csv: not a file: {path}")
        sizes = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or len(header) != 3:
                raise CliError(f"{path}: expected header image_id,width_px,height_px")
            for row in reader:
                if row and any(cell.strip() for cell in row):
                    sizes[row[0].strip()] = (int(row[1]), int(row[2]))
        missing = [i for i in ids if i not in sizes]
        if missing:
            raise CliError(f"image_sizes_csv lacks entries for: {missing}")
        return {i: sizes[i] for i in ids}
    if tile_cfg.get("images_dir"):
        from . import rasters

        images_dir = Path(tile_cfg["images_dir"])
        sizes = {}
        for image_id in ids:
            path = _find_image(images_dir, image_id)
            sizes[image_id] = rasters.image_size(path)
        return sizes
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


def cmd_tile(config: dict) -> int:
    gt_dir = _require_path(config, "ground_truth_dir")
    out_dir = Path(config["output_dir"])
    registry = None
    if config.get("class_registry"):
        registry = _read_registry(_require_path(config, "class_registry", "file"))
    ids = _annotation_ids(gt_dir)
    if not ids:
        raise CliError(f"no annotation files (*.txt) under {gt_dir}")
    spec = tile_spec_from(config)
    sizes = _image_sizes(config, gt_dir, ids)
    images_dir = config["tile"].get("images_dir")

    tiles_dir = out_dir / "tiles"
    tiles_dir.mkdir(parents=True, exist_ok=True)
    manifest_rows = []
    discarded = []
    for image_id in ids:
        objects = _parse_annotation_file(gt_dir / f"{image_id}.txt", registry)
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

    with open(out_dir / "tiles_manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tile_id", "src_image", "x0", "y0", "w", "h"])
        writer.writerows(manifest_rows)
    (out_dir / "discarded_tiles.txt").write_text(
        "".join(f"{t}\n" for t in discarded), encoding="utf-8"
    )
    _write_manifest(
        out_dir, "tile", config,
        {"ground_truth_dir": gt_dir, "class_registry": config.get("class_registry")},
    )
    print(
        f"tiled {len(ids)} images into {len(manifest_rows)} tiles "
        f"({len(discarded)} discardable); manifest: {out_dir / 'tiles_manifest.csv'}"
    )
    return EXIT_OK


def cmd_augment(config: dict) -> int:
    gt_dir = _require_path(config, "ground_truth_dir")
    out_dir = Path(config["output_dir"])
    registry = None
    if config.get("class_registry"):
        registry = _read_registry(_require_path(config, "class_registry", "file"))
    ids = _annotation_ids(gt_dir)
    if not ids:
        raise CliError(f"no annotation files (*.txt) under {gt_dir}")
    pipeline = augment_pipeline_from(config)
    samples = int(config["augment"]["samples"])
    # Augmentation acts on normalized coordinates; pixel dimensions are
    # carried through unchanged and default to the tile size.
    width = int(config["tile"].get("image_width") or config["tile"]["width"])
    height = int(config["tile"].get("image_height") or config["tile"]["height"])

    aug_dir = out_dir / "augmented"
    aug_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for image_id in ids:
        objects = _parse_annotation_file(gt_dir / f"{image_id}.txt", registry)
        image = AnnotatedImage(image_id, width, height, tuple(objects))
        for k, variant in enumerate(augment(image, pipeline, samples)):
            sample_id = f"{image_id}_aug{k:04d}"
            (aug_dir / f"{sample_id}.txt").write_text(
                format_yolo_annotation(variant.objects), encoding="utf-8"
            )
            rows.append((sample_id, image_id, len(variant.objects)))
    with open(out_dir / "augment_manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "src_image", "objects"])
        writer.writerows(rows)
    _write_manifest(out_dir, "augment", config, {"ground_truth_dir": gt_dir})
    print(f"wrote {len(rows)} augmented annotation sets under {aug_dir}")
    return EXIT_OK


def cmd_split(config: dict) -> int:
    out_dir = Path(config["output_dir"])
    ids_file = config["split"].get("ids_file")
    if ids_file:
        path = Path(ids_file)
        if not path.is_file():
            raise CliError(f"ids file not found: {path}")
        ids = [line.strip() for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        digest_source: dict = {"ids_file": path}
    else:
        gt_dir = _require_path(config, "ground_truth_dir")
        ids = _annotation_ids(gt_dir)
        digest_source = {"ground_truth_dir": gt_dir}
    if not ids:
        raise CliError("no image ids to split")
    seed = int(config["seed"])
    if config["split"].get("sample_count"):
        ids = sample_ids(
            ids,
            int(config["split"]["sample_count"]),
            seed,
            with_replacement=bool(config["split"].get("with_replacement")),
        )
    ratio = split_ratio_from(config)
    result = split_dataset(ids, ratio, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "split_manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["image_id", "partition"])
        for partition, members in (("train", result.train), ("val", result.val), ("test", result.test)):
            writer.writerows((image_id, partition) for image_id in members)
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


def cmd_evaluate(config: dict) -> int:
    gt_dir = _require_path(config, "ground_truth_dir")
    pred_dir = _require_path(config, "predictions_dir")
    registry = _read_registry(_require_path(config, "class_registry", "file"))
    out_dir = Path(config["output_dir"])
    iou_threshold = float(config["iou_threshold"])
    allow_partial = bool(config["allow_partial"])

    truth_ids = _annotation_ids(gt_dir)
    pred_ids = _annotation_ids(pred_dir)
    if not truth_ids:
        raise CliError(f"no annotation files (*.txt) under {gt_dir}")
    missing = sorted(set(truth_ids) - set(pred_ids))
    extra = sorted(set(pred_ids) - set(truth_ids))
    if (missing or extra) and not allow_partial:
        raise CliError(
            "ground truth and predictions disagree on image ids "
            "(use --allow-partial to treat the missing side as empty)",
            context={"missing_predictions": missing, "unmatched_prediction_files": extra},
        )

    samples = []
    for image_id in sorted(set(truth_ids) | set(pred_ids)):
        truth_path = gt_dir / f"{image_id}.txt"
        pred_path = pred_dir / f"{image_id}.txt"
        truths = _parse_annotation_file(truth_path, registry) if truth_path.is_file() else []
        dets = _parse_prediction_file(pred_path, registry) if pred_path.is_file() else []
        samples.append(EvalSample(image_id, tuple(dets), tuple(truths)))

    interpolation = config.get("ap_interpolation", "all-point")
    report = evaluate_detections(
        samples, registry, iou_threshold, jobs=int(config["jobs"]), interpolation=interpolation
    )

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
        "image_count": len(samples),
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
        curve_path = out_dir / f"pr_curve_{entry.name}.csv"
        with open(curve_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["threshold", "precision", "recall"])
            for point in entry.curve.points:
                writer.writerow(
                    [f"{point.threshold:.6f}", f"{point.precision:.6f}", f"{point.recall:.6f}"]
                )
    _write_manifest(
        out_dir, "evaluate", config,
        {
            "ground_truth_dir": gt_dir,
            "predictions_dir": pred_dir,
            "class_registry": config["class_registry"],
        },
    )
    print(
        f"evaluated {len(samples)} images: mAP@{int(round(iou_threshold * 100))} = "
        f"{report.map50:.4f}; report: {out_dir / 'evaluation.json'}"
    )
    return EXIT_OK


def _read_observation_csv(path: Path) -> tuple[str, list[tuple[str, float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) != 2:
            raise CliError(f"{path}: expected a 2-column header like 'group,observation'")
        effect = header[0].strip() or "group"
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise CliError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                value = float(row[1])
            except ValueError:
                raise CliError(f"{path}:{lineno}: not a number: {row[1]!r}") from None
            if not math.isfinite(value):
                raise CliError(f"{path}:{lineno}: not a finite number: {row[1]!r}")
            rows.append((row[0].strip(), value))
    return effect, rows


def _stats_for_file(path: Path) -> dict:
    effect, rows = _read_observation_csv(path)
    response = path.stem
    entry: dict = {"response": response, "effect": effect}
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
    out_dir = Path(config["output_dir"])

    jobs = int(config["jobs"])
    if jobs > 1 and len(inputs) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(_stats_for_file, inputs))
    else:
        entries = [_stats_for_file(path) for path in inputs]

    document = {"schema_version": SCHEMA_VERSION, "responses": entries}
    write_json(out_dir / "stats.json", document)
    with open(out_dir / "stats.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["response", "effect", "F_ratio", "prob_gt_F"])
        for entry in entries:
            anova = entry.get("anova")
            if anova:
                writer.writerow(
                    [entry["response"], entry["effect"], anova["f_ratio"], anova["prob_gt_f"]]
                )
            else:
                writer.writerow([entry["response"], entry["effect"], "error", "error"])
    _write_manifest(
        out_dir, "stats", config, {f"input_{i}": p for i, p in enumerate(inputs)}
    )
    failed = [e["response"] for e in entries if "error" in e]
    if failed:
        raise CliError(f"stats failed for responses: {failed}", context={"responses": failed})
    print(f"analyzed {len(entries)} responses; report: {out_dir / 'stats.json'}")
    return EXIT_OK


def cmd_desirability(config: dict) -> int:
    profile_path = _require_path(config, "desirability_profile", "file")
    candidates_path = _require_path(config, "candidates", "file")
    out_dir = Path(config["output_dir"])
    try:
        profile = DesirabilityProfile.from_json(profile_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{profile_path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        candidates = load_candidates_csv(candidates_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CliError(f"{candidates_path}: {exc}") from exc
    try:
        ranking = select_best(candidates, profile)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    goal_names = [g.name for g in profile.goals]
    with open(out_dir / "desirability_ranking.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rank", "label", "D"] + [f"d_{name}" for name in goal_names] + ["tied"])
        for entry in ranking:
            writer.writerow(
                [entry.rank, entry.label, f"{entry.overall:.6f}"]
                + [f"{entry.components[name]:.6f}" for name in goal_names]
                + [str(entry.tied).lower()]
            )
    _write_manifest(
        out_dir, "desirability", config,
        {"desirability_profile": profile_path, "candidates": candidates_path},
    )
    best = ranking[0]
    print(
        f"ranked {len(ranking)} candidates: best {best.label!r} (D={best.overall:.4f}); "
        f"ranking: {out_dir / 'desirability_ranking.csv'}"
    )
    return EXIT_OK


def _load_section_json(path: Path):
    if not path.is_file():
        return "absent"
    return json.loads(path.read_text(encoding="utf-8"))


def _load_ranking_csv(path: Path):
    if not path.is_file():
        return "absent"
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [dict(row) for row in reader]


def cmd_report(config: dict) -> int:
    out_dir = Path(config["output_dir"])
    if not out_dir.is_dir():
        raise CliError(f"output dir with prior command outputs not found: {out_dir}")
    sections = {
        "evaluation": _load_section_json(out_dir / "evaluation.json"),
        "stats": _load_section_json(out_dir / "stats.json"),
        "desirability": _load_ranking_csv(out_dir / "desirability_ranking.csv"),
    }
    section_files = {
        name: out_dir / filename
        for name, filename in (
            ("evaluation", "evaluation.json"),
            ("stats", "stats.json"),
            ("desirability", "desirability_ranking.csv"),
        )
        if (out_dir / filename).is_file()
    }
    manifest = RunManifest(
        command="report", config=config, input_digests=digest_inputs(section_files)
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
    "tile": cmd_tile,
    "augment": cmd_augment,
    "split": cmd_split,
    "evaluate": cmd_evaluate,
    "stats": cmd_stats,
    "desirability": cmd_desirability,
    "report": cmd_report,
}


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
    parser.add_argument("--jobs", type=int, help="worker count, at least 1 (never changes results)")
    parser.add_argument("--seed", type=int, help="RNG seed for augment/split")
    parser.add_argument(
        "--allow-partial",
        action="store_true",
        default=None,
        help="evaluate: treat images missing on one side as empty instead of failing",
    )
    parser.add_argument("--output-dir", type=Path, help="directory for outputs")

    sub = parser.add_subparsers(dest="command", required=True)

    tile = sub.add_parser("tile", help="plan a tile grid and remap annotations per tile")
    tile.add_argument("--ground-truth-dir", type=Path)
    tile.add_argument("--class-registry", type=Path)
    tile.add_argument("--tile-size", help="WxH, e.g. 416x416")
    tile.add_argument("--image-size", help="WxH applied to every image")
    tile.add_argument("--image-sizes-csv", type=Path, help="CSV image_id,width_px,height_px")
    tile.add_argument("--images-dir", type=Path, help="optional rasters (enables tile crops)")
    tile.add_argument("--edge-policy", choices=["anchor-to-edge", "pad"])
    tile.add_argument("--min-visibility", type=float)

    aug = sub.add_parser("augment", help="generate augmented annotation samples")
    aug.add_argument("--ground-truth-dir", type=Path)
    aug.add_argument("--class-registry", type=Path)
    aug.add_argument("--samples", type=int)

    split = sub.add_parser("split", help="allocate images to train/val/test")
    split.add_argument("--ground-truth-dir", type=Path)
    split.add_argument("--ids-file", type=Path, help="one image id per line")
    split.add_argument("--ratio", help="A:B:C, e.g. 15:3:2")
    split.add_argument("--sample-count", type=int, help="draw this many ids before splitting")
    split.add_argument("--with-replacement", action="store_true", default=None)

    ev = sub.add_parser("evaluate", help="match predictions to ground truth and report metrics")
    ev.add_argument("--ground-truth-dir", type=Path)
    ev.add_argument("--predictions-dir", type=Path)
    ev.add_argument("--class-registry", type=Path)
    ev.add_argument("--iou-threshold", type=float)

    st = sub.add_parser("stats", help="normality, ANOVA, and pairwise t per response CSV")
    st.add_argument("--inputs", type=Path, nargs="+", help="group,observation CSV files")

    des = sub.add_parser("desirability", help="rank candidates by overall desirability")
    des.add_argument("--profile", type=Path, help="goal definitions (JSON)")
    des.add_argument("--candidates", type=Path, help="label,response,value CSV")

    sub.add_parser("report", help="combine prior outputs into one document")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides: dict = {}

    def set_if(key, value):
        if value is not None:
            overrides[key] = value

    set_if("jobs", args.jobs)
    set_if("seed", args.seed)
    set_if("allow_partial", args.allow_partial)
    if args.output_dir is not None:
        overrides["output_dir"] = str(args.output_dir)
    for key in ("ground_truth_dir", "predictions_dir", "class_registry"):
        if getattr(args, key, None) is not None:
            overrides[key] = str(getattr(args, key))

    tile: dict = {}
    if getattr(args, "tile_size", None):
        tile["width"], tile["height"] = _parse_wxh(args.tile_size)
    if getattr(args, "image_size", None):
        tile["image_width"], tile["image_height"] = _parse_wxh(args.image_size)
    if getattr(args, "image_sizes_csv", None):
        tile["image_sizes_csv"] = str(args.image_sizes_csv)
    if getattr(args, "images_dir", None):
        tile["images_dir"] = str(args.images_dir)
    if getattr(args, "edge_policy", None):
        tile["edge_policy"] = args.edge_policy
    if getattr(args, "min_visibility", None) is not None:
        tile["min_visibility"] = args.min_visibility
    if tile:
        overrides["tile"] = tile

    if getattr(args, "samples", None) is not None:
        overrides["augment"] = {"samples": args.samples}

    split: dict = {}
    if getattr(args, "ratio", None):
        try:
            split["ratio"] = [int(part) for part in args.ratio.split(":")]
        except ValueError:
            raise CliError(f"expected ratio A:B:C, got {args.ratio!r}") from None
    if getattr(args, "sample_count", None) is not None:
        split["sample_count"] = args.sample_count
    if getattr(args, "with_replacement", None) is not None:
        split["with_replacement"] = args.with_replacement
    if getattr(args, "ids_file", None):
        split["ids_file"] = str(args.ids_file)
    if split:
        overrides["split"] = split

    if getattr(args, "iou_threshold", None) is not None:
        overrides["iou_threshold"] = args.iou_threshold
    if getattr(args, "inputs", None):
        overrides["stats_inputs"] = [str(p) for p in args.inputs]
    if getattr(args, "profile", None):
        overrides["desirability_profile"] = str(args.profile)
    if getattr(args, "candidates", None):
        overrides["candidates"] = str(args.candidates)
    return overrides


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = _overrides_from_args(args)
        config = load_config(args.config, overrides)
        return _COMMANDS[args.command](config)
    except CliError as exc:
        _emit_error(exc)
        return EXIT_INPUT
    except (AnnotationError, RegistryError, ConfigError, ValueError, OSError) as exc:
        _emit_error(exc)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        _emit_error(exc)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
