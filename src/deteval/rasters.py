"""Optional pixel-raster adapter. The annotation-geometry pipeline never
needs image data; these helpers exist so the tile command can also read raw
image dimensions and write cropped tiles when rasters are on disk."""

from __future__ import annotations

from pathlib import Path

from .config import InputError


def _read_raster(path: Path, pixels: bool):
    """The open image at `path`, its pixels read too if `pixels`, through
    Pillow; a file that cannot be read raises InputError."""
    try:
        from PIL import Image
    except ImportError as exc:  # pragma: no cover - environment dependent
        raise RuntimeError("raster support needs Pillow (pip install deteval[raster])") from exc
    img = None
    try:
        img = Image.open(path)
        if pixels:
            img.load()
        return img
    except OSError as exc:
        if img is not None:
            img.close()
        raise InputError(f"cannot read raster {path}: {exc}") from exc


def image_size(path: Path) -> tuple[int, int]:
    """(width, height) of an image file, read via Pillow."""
    with _read_raster(path, pixels=False) as img:
        return img.width, img.height


def write_tile_crops(path: Path, tiles, tile_ids, out_dir: Path) -> None:
    """Crop each tile rectangle out of the source raster and write it as
    <tile_id>.png under out_dir. Tiles extending past the image edge
    (pad policy) come out padded with black."""
    with _read_raster(path, pixels=True) as img:
        out_dir.mkdir(parents=True, exist_ok=True)
        for tile, tile_id in zip(tiles, tile_ids):
            img.crop((tile.x0, tile.y0, tile.x0 + tile.w, tile.y0 + tile.h)).save(out_dir / f"{tile_id}.png")
