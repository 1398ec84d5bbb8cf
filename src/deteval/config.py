"""Run configuration, defaults, and the reading and digesting of inputs."""

from __future__ import annotations

import copy
import hashlib
import json
import os
from pathlib import Path

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


class InputError(ValueError):
    """An input file or directory that cannot be read."""


def _kind(value) -> str:
    return {dict: "an object", list: "an array", type(None): "null"}.get(type(value), "a scalar")


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    """`override` over `base`; a key whose default is not null takes only a
    value of its default's JSON kind: object, array or scalar, where a
    true/false default takes only true or false."""
    merged = dict(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key: {key!r}")
        default = base[key]
        if isinstance(default, bool) and not isinstance(value, bool):
            raise ConfigError(f"config key {prefix}{key} must be true or false, got {json.dumps(value)}")
        if default is not None and _kind(value) != _kind(default):
            raise ConfigError(f"config key {prefix}{key} must be {_kind(default)}, got {json.dumps(value)}")
        merged[key] = _merge(default, value, f"{prefix}{key}.") if isinstance(default, dict) else value
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
    from .prep import TileSpec

    tile = config["tile"]
    return TileSpec(
        tile_w=int(tile["width"]),
        tile_h=int(tile["height"]),
        edge_policy=tile["edge_policy"],
        min_visibility=float(tile["min_visibility"]),
    )


def augment_pipeline_from(config: dict) -> AugmentPipeline:
    from .prep import AugmentOp, AugmentPipeline

    aug = config["augment"]
    ops = []
    for i, op in enumerate(aug["operations"]):
        try:
            kwargs = {"name": op["op"], "probability": float(op["probability"])}
            if "angles" in op:
                kwargs["angles"] = tuple(float(a) for a in op["angles"])
            if "percentage_area" in op:
                kwargs["percentage_area"] = float(op["percentage_area"])
            ops.append(AugmentOp(**kwargs))
        except (LookupError, TypeError, ValueError) as exc:
            raise ConfigError(f"augment.operations[{i}]: {type(exc).__name__}: {exc}") from None
    return AugmentPipeline(
        operations=tuple(ops),
        rng_seed=int(config["seed"]),
        min_visibility=float(aug["min_visibility"]),
    )


def split_ratio_from(config: dict) -> SplitRatio:
    from .prep import SplitRatio

    ratio = config["split"]["ratio"]
    if len(ratio) != 3:
        raise ConfigError(f"split ratio needs 3 weights, got {ratio}")
    try:
        weights = [int(weight) for weight in ratio]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"split.ratio: {type(exc).__name__}: {exc}") from None
    return SplitRatio(*weights)


def read_input(path: Path) -> bytes | dict[str, bytes]:
    """The bytes of an input file, or of every file under an input directory
    and its subdirectories (symbolic links to directories are not entered),
    keyed by relative path with `/` between parts, in the order of the parts.
    Each file is opened once; its bytes serve both parsing and the digest.
    A path that cannot be read raises InputError."""
    path = Path(path)
    try:
        if not path.is_dir():
            return _read_file(path)
        return {"/".join(parts): _read_file(file) for parts, file in sorted(_tree_files(path, ()))}
    except OSError as exc:
        raise InputError(f"cannot read input {path}: {exc}") from exc


def _read_file(path) -> bytes:
    """The bytes of one file, read by system calls on an unbuffered descriptor."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:  # `os.read` names no file; in a directory the file is what failed
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)
    return b"".join(chunks)


def _tree_files(directory, parts: tuple[str, ...]):
    """(relative parts, path) of every file under `directory`."""
    with os.scandir(directory) as entries:
        for entry in entries:
            if entry.is_file():
                yield (*parts, entry.name), entry.path
            elif entry.is_dir(follow_symlinks=False):
                yield from _tree_files(entry.path, (*parts, entry.name))


def digest_inputs(inputs: dict[str, bytes | dict[str, bytes]]) -> dict[str, str]:
    """SHA-256 of each input `read_input` read, by name. A directory's digest
    covers each file's relative path, a NUL byte and the SHA-256 of its
    bytes, file by file in `read_input` order."""
    digests = {}
    for name, data in sorted(inputs.items()):
        if isinstance(data, dict):
            digest = hashlib.sha256()
            for rel, blob in data.items():
                digest.update(rel.encode("utf-8") + b"\x00" + hashlib.sha256(blob).digest())
        else:
            digest = hashlib.sha256(data)
        digests[name] = f"sha256:{digest.hexdigest()}"
    return digests


def json_text(document: dict) -> str:
    """Canonical JSON serialization: sorted keys, two-space indent, newline
    at EOF. Identical documents serialize byte-identically. NaN and infinity
    have no JSON form, so a document holding one raises ValueError."""
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"
