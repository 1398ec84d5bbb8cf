"""Run configuration, defaults, and the per-run provenance manifest."""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .prep import AugmentOp, AugmentPipeline, SplitRatio, TileSpec

SCHEMA_VERSION = 1

# Augmentation defaults mirror the study pipeline this toolkit reproduces:
# rotate p=0.7, flip_left_right p=0.4, zoom_random p=0.4 at 80% area,
# flip_top_bottom p=0.4.
DEFAULT_AUGMENT_OPERATIONS = (
    {"op": "rotate", "probability": 0.7, "angles": [90, 180, 270]},
    {"op": "flip_left_right", "probability": 0.4},
    {"op": "zoom_random", "probability": 0.4, "percentage_area": 0.8},
    {"op": "flip_top_bottom", "probability": 0.4},
)

DEFAULTS = {
    "ground_truth_dir": None,
    "predictions_dir": None,
    "class_registry": None,
    "output_dir": "out",
    "iou_threshold": 0.5,
    "tile": {
        "width": 416,
        "height": 416,
        "edge_policy": "anchor-to-edge",
        "min_visibility": 0.3,
        "image_width": None,
        "image_height": None,
        "image_sizes_csv": None,
        "images_dir": None,
    },
    "augment": {
        "samples": 1000,
        "min_visibility": 0.3,
        "operations": list(DEFAULT_AUGMENT_OPERATIONS),
    },
    "split": {
        "ratio": [15, 3, 2],
        "sample_count": None,
        "ids_file": None,
    },
    "stats_inputs": [],
    "ap_interpolation": "all-point",
    "desirability_profile": None,
    "candidates": None,
    "run_metadata": "",
    "seed": 0,
    "jobs": 1,
    "allow_partial": False,
}


class ConfigError(ValueError):
    """Bad or missing run configuration."""


def _merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key: {key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            merged[key] = _merge(base[key], value)
        else:
            merged[key] = value
    return merged


def load_config(path: Path | None, overrides: dict | None = None) -> dict:
    """Defaults <- config file <- CLI overrides, in increasing precedence."""
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config root must be a JSON object: {path}")
        config = _merge(config, loaded)
    if overrides:
        config = _merge(config, overrides)
    jobs = config["jobs"]
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ConfigError(f"jobs must be an integer of at least 1, got {jobs!r}")
    return config


def tile_spec_from(config: dict) -> TileSpec:
    tile = config["tile"]
    return TileSpec(
        tile_w=int(tile["width"]),
        tile_h=int(tile["height"]),
        edge_policy=tile["edge_policy"],
        min_visibility=float(tile["min_visibility"]),
    )


def augment_pipeline_from(config: dict) -> AugmentPipeline:
    aug = config["augment"]
    ops = []
    for op in aug["operations"]:
        kwargs = {"name": op["op"], "probability": float(op["probability"])}
        if "angles" in op:
            kwargs["angles"] = tuple(float(a) for a in op["angles"])
        if "percentage_area" in op:
            kwargs["percentage_area"] = float(op["percentage_area"])
        ops.append(AugmentOp(**kwargs))
    return AugmentPipeline(
        operations=tuple(ops),
        rng_seed=int(config["seed"]),
        min_visibility=float(aug["min_visibility"]),
    )


def split_ratio_from(config: dict) -> SplitRatio:
    ratio = config["split"]["ratio"]
    if len(ratio) != 3:
        raise ConfigError(f"split ratio needs 3 weights, got {ratio}")
    return SplitRatio(int(ratio[0]), int(ratio[1]), int(ratio[2]))


def read_input(path: Path) -> bytes | dict[str, bytes]:
    """The bytes of an input file, or of every file under an input directory
    and its subdirectories (symbolic links to directories are not entered),
    keyed by relative path with `/` between parts, in the order of the parts.
    Each file is opened once; its bytes serve both parsing and the digest."""
    path = Path(path)
    if not path.is_dir():
        return path.read_bytes()
    files = {}
    for parts, file_path in sorted(_tree_files(path, ())):
        with open(file_path, "rb") as fh:
            files["/".join(parts)] = fh.read()
    return files


def _tree_files(directory, parts: tuple[str, ...]):
    """(relative parts, path) of every file under `directory`."""
    with os.scandir(directory) as entries:
        for entry in entries:
            if entry.is_file():
                yield (*parts, entry.name), entry.path
            elif entry.is_dir(follow_symlinks=False):
                yield from _tree_files(entry.path, (*parts, entry.name))


def digest_inputs(inputs: dict[str, bytes | dict[str, bytes] | None]) -> dict[str, str]:
    """SHA-256 of each input `read_input` read, by name; None is skipped. A
    directory's digest covers each file's relative path, a NUL byte and the
    SHA-256 of its bytes, file by file in `read_input` order."""
    digests = {}
    for name, data in sorted(inputs.items()):
        if data is None:
            continue
        if isinstance(data, dict):
            digest = hashlib.sha256()
            for rel, blob in data.items():
                digest.update(rel.encode("utf-8") + b"\x00" + hashlib.sha256(blob).digest())
        else:
            digest = hashlib.sha256(data)
        digests[name] = f"sha256:{digest.hexdigest()}"
    return digests


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: dict
    input_digests: dict[str, str]
    toolkit_version: str = __version__
    created_utc: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )

    def to_dict(self, with_timestamps: bool = True) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "toolkit_version": self.toolkit_version,
            "command": self.command,
            "config": self.config,
            "input_digests": self.input_digests,
        }
        if with_timestamps:
            doc["created_utc"] = self.created_utc
        return doc


def write_json(path: Path, document: dict) -> None:
    """Canonical JSON serialization: sorted keys, two-space indent, newline
    at EOF. Identical documents serialize byte-identically. NaN and infinity
    have no JSON form, so a document holding one raises ValueError before
    anything is written."""
    text = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")
