"""Run configuration: every key with its default and kind, and the reading
and digesting of inputs."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import stat
import sys
from pathlib import Path

from .annotations import decode_text

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Bad or missing run configuration."""


class InputError(ValueError):
    """An input file or directory that cannot be read."""


class InputKindError(InputError):
    """An input path that is missing or not of the kind it is read as."""


def _kind(what: str, ok, convert=None):
    """A kind of value: one that `ok` holds of, as `convert(value, name)` makes it, or as given without
    `convert`. Any other is a ConfigError: `name` (`config key seed`, `tile_w`) must be `what`, got its JSON or repr."""

    def kind(value, name: str):
        if not ok(value):
            try:
                shown = json.dumps(value)
            except (TypeError, ValueError):
                shown = repr(value)
            raise ConfigError(f"{name} must be {what}, got {shown}")
        return convert(value, name) if convert else value

    return kind


def _number(what: str, ok):
    """An integer or float that `ok` holds of, as a float; true and false are not numbers."""
    return _kind(what, lambda value: isinstance(value, (int, float)) and not isinstance(value, bool) and ok(value),
                 lambda value, _: float(value))


def _array(item, length: int | None = None):
    """A list or tuple, of `length` items when that is set, each of kind `item`, as a list."""
    return _kind(f"an array of {length} items" if length else "an array",
                 lambda value: isinstance(value, (list, tuple)) and length in (None, len(value)),
                 lambda value, name: [item(entry, f"{name}[{i}]") for i, entry in enumerate(value)])


def _one_of(*choices: str):
    return _kind("one of " + ", ".join(map(json.dumps, choices)),
                 lambda value: isinstance(value, str) and value in choices)


def _object(fields: dict, required: tuple, then=lambda entry: entry):
    """An object that has each `required` key and no key outside `fields`, as `then` makes the dict of each field
    as its kind in `fields` converts it, named `<name>.<key>`; a ValueError of `then` is a ConfigError naming it."""
    optional = " and ".join(json.dumps(key) for key in fields if key not in required)
    what = f"an object of {', '.join(map(json.dumps, required))}" + (f" and optionally {optional}" if optional else "")

    def convert(value: dict, name: str):
        entry = {key: fields[key](field, f"{name}.{key}") for key, field in value.items()}
        try:
            return then(entry)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None

    return _kind(what, lambda value: isinstance(value, dict) and set(required) <= value.keys() <= fields.keys(),
                 convert)


def _utf8(value: str, name: str) -> str:
    """`value`, if UTF-8 can hold it. A lone surrogate, which a JSON `\\ud800` escape or an undecodable byte
    of an OS name makes, could not be written to the run manifest."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"{name} must be text that UTF-8 can hold, got {json.dumps(value)}") from None
    return value


PATH = _kind("a path", lambda value: isinstance(value, str) and value != "", _utf8)
STRING = _kind("a string", lambda value: isinstance(value, str), _utf8)
BOOLEAN = _kind("true or false", lambda value: isinstance(value, bool))
OBJECT = _kind("an object", lambda value: isinstance(value, dict))
# `augment` names sample k of a source `_aug{k:04d}`, four digits up to 10,000 samples
SAMPLES = _kind("an integer in [0, 10000]", lambda value: type(value) is int and 0 <= value <= 10_000)
POSITIVE = _kind("an integer of at least 1", lambda value: type(value) is int and value >= 1)
SEED = _kind("an integer in [0, 2**64 - 1]", lambda value: type(value) is int and 0 <= value < 2**64)
# The library's counts and seeds, in a wider range than SAMPLES and SEED: any count, and any integer seed
COUNT = _kind("an integer of at least 0", lambda value: type(value) is int and value >= 0)
INTEGER = _kind("an integer", lambda value: type(value) is int)
NUMBER = _number("a finite number", lambda value: abs(value) <= sys.float_info.max)
FRACTION = _number("a number in [0, 1]", lambda value: 0 <= value <= 1)
SHARE = _number("a number in (0, 1]", lambda value: 0 < value <= 1)

# The edge policy, AP interpolation and augment op names, which prep and metrics import, and kinds.
EDGE_ANCHOR, EDGE_PAD = "anchor-to-edge", "pad"
EDGE_POLICY = _one_of(EDGE_ANCHOR, EDGE_PAD)
AP_ALL_POINT, AP_11_POINT = "all-point", "11-point"
AP_INTERPOLATION = _one_of(AP_ALL_POINT, AP_11_POINT)
OP_ROTATE, OP_FLIP_LR, OP_FLIP_TB, OP_ZOOM = "rotate", "flip_left_right", "flip_top_bottom", "zoom_random"
# The kind of each field of an `augment.operations` entry (and `AugmentOp`), and of the entry.
_OPERATION = {
    "op": _one_of(OP_ROTATE, OP_FLIP_LR, OP_FLIP_TB, OP_ZOOM),
    "probability": FRACTION,
    "angles": _array(NUMBER),
    "percentage_area": SHARE,
}


def _augment_op(entry: dict) -> dict:
    """The entry, if `prep.AugmentOp`, which holds the rules across fields, takes it; prep is loaded only here."""
    from .prep import AugmentOp

    AugmentOp.from_config(entry)
    return entry


_operation = _object(_OPERATION, ("op", "probability"), _augment_op)


# Every config key once: (default, kind), or an object of keys. A key whose
# default is null also takes null. Augmentation defaults mirror the study
# pipeline this toolkit reproduces: rotate p=0.7, flip_left_right p=0.4,
# zoom_random p=0.4 at 80% area, flip_top_bottom p=0.4.
SCHEMA = {
    "ground_truth_dir": (None, PATH),
    "predictions_dir": (None, PATH),
    "class_registry": (None, PATH),
    "output_dir": ("out", PATH),
    "iou_threshold": (0.5, SHARE),
    "tile": {
        "width": (416, POSITIVE),
        "height": (416, POSITIVE),
        "edge_policy": (EDGE_ANCHOR, EDGE_POLICY),
        "min_visibility": (0.3, FRACTION),
        "image_width": (None, POSITIVE),
        "image_height": (None, POSITIVE),
        "image_sizes_csv": (None, PATH),
    },
    "augment": {
        "samples": (1000, SAMPLES),
        "min_visibility": (0.3, FRACTION),
        "operations": ([
            {"op": OP_ROTATE, "probability": 0.7, "angles": [90, 180, 270]},
            {"op": OP_FLIP_LR, "probability": 0.4},
            {"op": OP_ZOOM, "probability": 0.4, "percentage_area": 0.8},
            {"op": OP_FLIP_TB, "probability": 0.4},
        ], _array(_operation)),
    },
    "split": {
        "ratio": ([15, 3, 2], _array(POSITIVE, 3)),
        "sample_count": (None, POSITIVE),
        "ids_file": (None, PATH),
    },
    "stats_inputs": ([], _array(PATH)),
    "ap_interpolation": (AP_ALL_POINT, AP_INTERPOLATION),
    "desirability_profile": (None, PATH),
    "candidates": (None, PATH),
    "run_metadata": ("", STRING),
    "seed": (0, SEED),
    "jobs": (1, POSITIVE),
    "allow_partial": (False, BOOLEAN),
}


def _defaults(schema: dict) -> dict:
    return {name: _defaults(node) if isinstance(node, dict) else node[0] for name, node in schema.items()}


DEFAULTS = _defaults(SCHEMA)


def _merge(config: dict, schema: dict, values: dict, prefix: str = "") -> None:
    """Set each of `values` in `config` as its kind in `schema` converts it;
    null is taken only where the default is null."""
    for name, value in values.items():
        if name not in schema:
            raise ConfigError(f"unknown config key: {name!r}")
        node, key = schema[name], prefix + name
        if isinstance(node, dict):
            _merge(config[name], node, OBJECT(value, f"config key {key}"), f"{key}.")
        else:
            default, kind = node
            config[name] = None if value is None and default is None else kind(value, f"config key {key}")


def load_config(path: Path | None, overrides: dict | None = None) -> dict:
    """Defaults <- config file <- CLI overrides, in increasing precedence;
    each value given is converted and checked by its kind in SCHEMA. The
    file is read by `read_input` and decoded by `decode_text`, as every input is."""
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            loaded = json.loads(decode_text(read_input(path, "file")))
        except (ValueError, RecursionError) as exc:  # unreadable, undecodable, bad or too deeply nested JSON
            # an InputError's cause, where it has one, is the OSError, which names the path once
            raise ConfigError(f"cannot read config {path}: {exc.__cause__ or exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config root must be a JSON object: {path}")
        _merge(config, SCHEMA, loaded)
    _merge(config, SCHEMA, overrides or {})
    return config


def read_input(path: Path, kind: str) -> bytes | dict[str, bytes]:
    """The bytes of an input of `kind` "file", or of each regular `*.txt` file directly
    in one of kind "directory", by image id (the name without `.txt`) in id order;
    each file is opened once, and nothing else. A path its one `stat` finds missing
    or of the other kind raises InputKindError; a file that cannot be read, InputError."""
    path = Path(path)
    cause = None  # why the path cannot be stat'ed, if it cannot
    try:
        mode = path.stat().st_mode
    except (OSError, ValueError) as exc:  # missing, or a name the OS cannot hold
        mode, cause = 0, exc
    if not (stat.S_ISDIR(mode) if kind == "directory" else stat.S_ISREG(mode)):
        raise InputKindError(f"not a {kind}: {path}") from cause
    try:
        if kind == "file":
            return _read_file(path)
        with os.scandir(path) as entries:
            files = sorted((e.name[:-4], e.path) for e in entries if e.name.endswith(".txt") and e.is_file())
        return {image_id: _read_file(file) for image_id, file in files}
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


def digest_inputs(data: bytes | dict[str, bytes]) -> str:
    """The `sha256:` digest of one input as `read_input` read it: a file's
    SHA-256, or for a directory the SHA-256 of each file's name, a NUL byte
    and the SHA-256 of its bytes, file by file in name order."""
    if isinstance(data, dict):
        digest = hashlib.sha256()
        for name in sorted(f"{image_id}.txt" for image_id in data):
            digest.update(name.encode("utf-8") + b"\x00" + hashlib.sha256(data[name.removesuffix(".txt")]).digest())
    else:
        digest = hashlib.sha256(data)
    return f"sha256:{digest.hexdigest()}"


def json_text(document: dict) -> str:
    """Canonical JSON serialization: sorted keys, two-space indent, newline
    at EOF. Identical documents serialize byte-identically. NaN and infinity
    have no JSON form, so a document holding one raises ValueError."""
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"
