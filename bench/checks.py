"""Artifact checks: each returns the names of the commands whose outputs are
wrong, so a fast wrong answer counts as a failed operation."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import CLASS_NAMES, Workload

MANIFEST = "run_manifest.json"


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON value {token}")


def load_json(path: Path):
    """Parse a JSON artifact, rejecting NaN and Infinity (RFC 8259)."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# Output-dir path prefixes of the artifacts each command writes.
_OWNERS = {
    "evaluate": ("evaluation.json", "pr_curve_"),
    "tile": ("tiles", "discarded_tiles.txt"),
    "augment": ("augment",),
    "split": ("split_manifest.csv",),
    "stats": ("stats.",),
    "desirability": ("desirability_ranking.csv",),
    "report": ("report.",),
}


def artifact_digests(workload: Workload) -> dict[str, str]:
    """One SHA-256 per command over the names and bytes of its artifacts,
    with the output dir's path, which report.json records, made neutral so
    passes into different dirs compare. The run manifest is left out: it
    carries a timestamp by design."""
    digests = {c.name: hashlib.sha256() for c in workload.commands}
    out = workload.out_dir
    out_path = str(out).encode()
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != MANIFEST):
        rel = path.relative_to(out).as_posix()
        for name, digest in digests.items():
            if rel.startswith(_OWNERS[name]):
                data = path.read_bytes().replace(out_path, b"<output-dir>")
                digest.update(rel.encode() + b"\0" + data)
    return {name: d.hexdigest() for name, d in digests.items()}


def matched_pairs(workload: Workload) -> int:
    """Pairs the same-class and cross-class matching passes returned, read
    from evaluation.json: the per-class true positives plus the class x
    class block of the confusion matrix."""
    doc = load_json(workload.out_dir / "evaluation.json")
    n = len(CLASS_NAMES)
    same = sum(doc["per_class"][name]["tp"] for name in CLASS_NAMES)
    cross = sum(sum(row[:n]) for row in doc["confusion_matrix"]["matrix"][:n])
    return same + cross


def _check_evaluate(out: Path, expect: dict) -> bool:
    doc = load_json(out / "evaluation.json")
    if doc["image_count"] != expect["image_count"] or not math.isfinite(doc["map50"]):
        return False
    for name in CLASS_NAMES:
        got = doc["per_class"][name]
        want = expect["per_class"][name]
        if any(got[k] != want[k] for k in ("tp", "fp", "fn")):
            return False
        if got["tp"] + got["fn"] != expect["truths"][name]:
            return False
        if got["tp"] + got["fp"] != expect["detections"][name]:
            return False
        if not (out / f"pr_curve_{name}.csv").is_file():
            return False
    matrix = doc["confusion_matrix"]["matrix"]
    n = len(CLASS_NAMES)
    rows_ok = all(sum(matrix[c]) == expect["detections"][CLASS_NAMES[c]] for c in range(n))
    cols_ok = all(sum(row[c] for row in matrix) == expect["truths"][CLASS_NAMES[c]] for c in range(n))
    return rows_ok and cols_ok and matrix == expect["confusion"]


def _check_tile(out: Path, expect: dict) -> bool:
    rows = _csv_rows(out / "tiles_manifest.csv")[1:]
    written = sorted(p.stem for p in (out / "tiles").glob("*.txt"))
    discarded = (out / "discarded_tiles.txt").read_text(encoding="utf-8").split()
    manifest_ids = {r[0] for r in rows}
    return (
        len(rows) == expect["rows"]
        and written == expect["kept"]
        and len(written) + len(discarded) == len(rows)
        and manifest_ids == set(written) | set(discarded)
    )


def _check_augment(out: Path, expect: dict) -> bool:
    rows = _csv_rows(out / "augment_manifest.csv")[1:]
    aug_dir = out / "augmented"
    if len(rows) != expect["sources"] * expect["samples"]:
        return False
    if len(list(aug_dir.glob("*.txt"))) != len(rows):
        return False
    for sample_id, _, objects in rows:
        text = (aug_dir / f"{sample_id}.txt").read_text(encoding="utf-8")
        if len(text.splitlines()) != int(objects):
            return False
    return True


def _check_split(out: Path, expect: dict) -> bool:
    rows = _csv_rows(out / "split_manifest.csv")[1:]
    ids = [r[0] for r in rows]
    sizes = [sum(1 for r in rows if r[1] == part) for part in ("train", "val", "test")]
    return sorted(ids) == expect["ids"] and sizes == expect["sizes"]


def _check_stats(out: Path, expect: dict) -> bool:
    doc = load_json(out / "stats.json")
    want = expect["f_ratio"]
    got = {e["response"]: e.get("anova", {}).get("f_ratio") for e in doc["responses"]}
    if set(got) != set(want):
        return False
    for response, f_ratio in want.items():
        value = got[response]
        if not isinstance(value, float) or not math.isclose(value, f_ratio, rel_tol=1e-9):
            return False
    return len(_csv_rows(out / "stats.csv")) == len(want) + 1


def _check_desirability(out: Path, expect: dict) -> bool:
    rows = _csv_rows(out / "desirability_ranking.csv")[1:]
    scores = [float(r[2]) for r in rows]
    return (
        {r[1] for r in rows} == expect["labels"]
        and [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        and scores == sorted(scores, reverse=True)
    )


def _check_report(out: Path, expect: dict) -> bool:
    doc = load_json(out / "report.json")
    sections = doc["sections"]
    return (
        sections["evaluation"] == "absent"
        and len(sections["stats"]["responses"]) == expect["responses"]
        and len(sections["desirability"]) == expect["candidates"]
        and (out / "report.txt").is_file()
    )


_CHECKS = {
    "evaluate": _check_evaluate,
    "tile": _check_tile,
    "augment": _check_augment,
    "split": _check_split,
    "stats": _check_stats,
    "desirability": _check_desirability,
    "report": _check_report,
}


def failed_commands(workload: Workload) -> set[str]:
    """Commands of `workload` whose artifacts under its output dir are
    missing, malformed or disagree with the expected values."""
    failed = set()
    for command in workload.commands:
        name = command.name
        try:
            ok = _CHECKS[name](workload.out_dir, workload.expect[name])
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            ok = False
        if not ok:
            failed.add(name)
    return failed
