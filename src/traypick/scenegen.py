"""Procedural generation of cluttered tray scenes as 2.5-D heightfields.

A scene is a per-pixel heightmap plus an owner map recording which piece is
topmost at each pixel. Pieces are dropped one at a time and settle by
max-composition: a piece comes to rest at the lowest elevation where its
(flat) bottom touches the current support surface, and the heightmap is the
pointwise maximum of the piece tops. This is deterministic, exact, and
orders of magnitude faster than rigid-body settling while preserving the
occlusion and height statistics the planner consumes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .archetypes import DEFAULT_ARCHETYPES, FoodArchetype, load_archetypes, save_archetypes
from .errors import ParameterError, PlacementError, check_number, check_type
from .grids import heights_to_levels, write_pgm16

DEFAULT_TRAY_DIMS = (424.0, 308.0, 160.0)  # mm, industry-standard food tray
RASTER_WIDTH_PX = 600  # tray width maps to 600 px


def mm_per_pixel(
    tray_dims: tuple[float, float, float] = DEFAULT_TRAY_DIMS, resolution: float | None = None
) -> float:
    """A raster's mm per pixel: resolution when given, else the tray width
    over RASTER_WIDTH_PX."""
    return tray_dims[0] / RASTER_WIDTH_PX if resolution is None else resolution


@dataclass
class PieceStamp:
    """A single piece's rasterized geometry, relative to its own base plane."""

    top: np.ndarray  # mm above the piece base plane, whose bottom is flat
    mask: np.ndarray  # boolean footprint
    rotation: float  # rad
    scale: float
    params: dict  # jittered shape parameters, enough to re-rasterize

    @property
    def center(self) -> tuple[int, int]:
        # square raster with odd side; the nominal center pixel
        return self.top.shape[0] // 2, self.top.shape[1] // 2


@dataclass
class PieceInstance:
    id: int
    archetype: str
    stamp: PieceStamp
    position: tuple[float, float]  # (x, y) mm in tray frame
    rest_height: float = 0.0  # mm, base plane above tray floor
    fully_occluded: bool = False
    damaged: bool = False
    damage_magnitude: float = 0.0


@dataclass
class TrayScene:
    tray_dims: tuple[float, float, float]
    resolution: float  # mm per pixel
    heightmap: np.ndarray  # float64 mm, shape (ny, nx)
    owner_map: np.ndarray  # int32 instance ids, 0 = tray floor
    pieces: dict[int, PieceInstance]
    archetypes: dict[str, FoodArchetype]
    randomization: dict
    seed: int
    next_id: int = 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.heightmap.shape


def empty_scene(
    archetypes: dict[str, FoodArchetype] | None = None,
    tray_dims: tuple[float, float, float] = DEFAULT_TRAY_DIMS,
    resolution: float | None = None,
    seed: int = 0,
) -> TrayScene:
    res = mm_per_pixel(tray_dims, resolution)
    nx = int(round(tray_dims[0] / res))
    ny = int(round(tray_dims[1] / res))
    return TrayScene(
        tray_dims=tray_dims,
        resolution=res,
        heightmap=np.zeros((ny, nx)),
        owner_map=np.zeros((ny, nx), dtype=np.int32),
        pieces={},
        archetypes=dict(archetypes or DEFAULT_ARCHETYPES),
        randomization={},
        seed=seed,
    )


def rasterize_stamp(
    semi_a: float,
    semi_b: float,
    exponent: float,
    peak: float,
    rotation: float,
    resolution: float,
) -> PieceStamp:
    """Rasterize a superellipse footprint with a dome top.

    The footprint is |u/a|^n + |v/b|^n < 1 in the piece frame (u along the
    rotation direction); the top surface is peak * sqrt(1 - f), so height
    tapers to zero at the boundary. Bottoms are flat.
    """
    half_mm = max(semi_a, semi_b)
    half_px = int(math.ceil(half_mm / resolution)) + 1
    side = 2 * half_px + 1
    coords = (np.arange(side) - half_px) * resolution
    # coords[side - 1 - i] == -coords[i] exactly, so u and v negate exactly
    # at the mirrored pixel: evaluate rows 0..half_px and mirror the rest
    xs, ys = coords[np.newaxis, :], coords[: half_px + 1, np.newaxis]
    c, s = math.cos(rotation), math.sin(rotation)
    au = np.abs((xs * c + ys * s) / semi_a)
    av = np.abs((ys * c - xs * s) / semi_b)
    # a pixel with |u/a| >= 1 or |v/b| >= 1 has f >= 1 for every exponent > 0
    box = (au < 1.0) & (av < 1.0)
    f = au[box] ** exponent + av[box] ** exponent
    inside = f < 1.0
    mask = np.zeros((side, side), dtype=bool)
    mask[: half_px + 1][box] = inside
    top = np.zeros((side, side))
    top[: half_px + 1][mask[: half_px + 1]] = peak * np.sqrt(1.0 - f[inside])
    mask[half_px + 1 :] = mask[half_px - 1 :: -1, ::-1]
    top[half_px + 1 :] = top[half_px - 1 :: -1, ::-1]
    return PieceStamp(
        top=top,
        mask=mask,
        rotation=rotation,
        scale=1.0,
        params={
            "semi_a": semi_a,
            "semi_b": semi_b,
            "exponent": exponent,
            "peak": peak,
            "rotation": rotation,
        },
    )


def make_stamp(
    archetype: FoodArchetype,
    scale: float,
    rotation: float,
    rng: np.random.Generator,
    resolution: float | None = None,
) -> PieceStamp:
    """Draw one piece from the archetype's family: scale, rotate, jitter.

    Consumes exactly three rng draws (axis-a, axis-b, dome jitter) so scene
    generation stays reproducible.
    """
    lo, hi = archetype.scale_range
    if not (lo <= scale <= hi):
        raise ParameterError(
            f"scale {scale} outside {archetype.name} range [{lo}, {hi}]"
        )
    res = mm_per_pixel(resolution=resolution)
    j = archetype.jitter
    ja, jb, jd = 1.0 + rng.uniform(-j, j, 3)
    semi_a = archetype.semi_axes_mm[0] * scale * ja
    semi_b = archetype.semi_axes_mm[1] * scale * jb
    peak = archetype.dome_ratio * 0.5 * (semi_a + semi_b) * jd
    stamp = rasterize_stamp(semi_a, semi_b, archetype.exponent, peak, rotation, res)
    stamp.scale = scale
    return stamp


def stamp_window(
    scene: TrayScene,
    stamp: PieceStamp,
    position: tuple[float, float],
    region: tuple[slice, slice] | None = None,
) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """Raster and stamp slices of a stamp centred at position (x, y) mm,
    clipped to region (default: the tray interior, whose window holds every
    pixel of the piece). A stamp outside the region gives empty slices."""
    rows, cols = region or (slice(0, scene.shape[0]), slice(0, scene.shape[1]))
    cy = int(round(position[1] / scene.resolution))
    cx = int(round(position[0] / scene.resolution))
    hy, hx = stamp.center
    r0, r1 = cy - hy, cy + hy + 1
    c0, c1 = cx - hx, cx + hx + 1
    sr0, sc0 = max(0, rows.start - r0), max(0, cols.start - c0)
    sr1 = stamp.top.shape[0] - max(0, r1 - rows.stop)
    sc1 = stamp.top.shape[1] - max(0, c1 - cols.stop)
    win = (slice(max(r0, rows.start), min(r1, rows.stop)),
           slice(max(c0, cols.start), min(c1, cols.stop)))
    return win, (slice(sr0, sr1), slice(sc0, sc1))


def drop_piece(
    scene: TrayScene,
    stamp: PieceStamp,
    x: float,
    y: float,
    archetype_name: str = "",
) -> PieceInstance:
    """Drop a stamp at (x, y) mm and settle it by max-composition.

    The footprint is clipped to the tray interior. Rest height is the lowest
    elevation at which the stamp bottom clears the current support everywhere,
    floored at the tray floor. Returns the registered piece.
    """
    if not (0 <= x < scene.tray_dims[0] and 0 <= y < scene.tray_dims[1]):
        raise PlacementError(f"drop position ({x}, {y}) outside tray")
    win, st = stamp_window(scene, stamp, (x, y))
    if win[0].stop <= win[0].start or win[1].stop <= win[1].start:
        raise PlacementError("stamp footprint entirely outside tray")
    mask = stamp.mask[st]
    window = scene.heightmap[win]
    support = window[mask]
    if not support.size:
        raise PlacementError("clipped footprint is empty")
    top = stamp.top[st]
    rest = float(max(0.0, support.max()))
    new_top = rest + top
    raised = mask & (new_top > window)

    piece_id = scene.next_id
    scene.next_id += 1
    window[raised] = new_top[raised]
    scene.owner_map[win][raised] = piece_id

    piece = PieceInstance(
        id=piece_id,
        archetype=archetype_name,
        stamp=stamp,
        position=(x, y),
        rest_height=rest,
    )
    piece.fully_occluded = not raised.any()
    scene.pieces[piece_id] = piece
    return piece


@dataclass
class SceneConfig:
    archetype: str = "fried_chicken"
    tray_dims: tuple[float, float, float] = DEFAULT_TRAY_DIMS
    resolution: float | None = None
    archetypes: dict[str, FoodArchetype] = field(
        default_factory=lambda: dict(DEFAULT_ARCHETYPES)
    )
    max_placement_retries: int = 100

    def validate(self) -> None:
        check_type("archetypes", self.archetypes, dict)
        if not isinstance(self.archetype, str) or self.archetype not in self.archetypes:
            raise ParameterError(f"unknown archetype {self.archetype!r}")
        check_type("tray_dims", self.tray_dims, (tuple, list))
        if len(self.tray_dims) != 3:
            raise ParameterError(f"tray_dims must hold 3 numbers, got {self.tray_dims!r}")
        for dim in self.tray_dims:
            check_number("tray_dims", dim, low=0, low_open=True, finite=True)
        if self.resolution is not None:
            check_number("resolution", self.resolution, low=0, low_open=True, finite=True)
        check_number("max_placement_retries", self.max_placement_retries, integral=True, low=1)


def generate_scene(config: SceneConfig, seed: int) -> TrayScene:
    """Generate one domain-randomized cluttered tray; pure in (config, seed)."""
    config.validate()
    arch = config.archetypes[config.archetype]
    rng = np.random.default_rng(seed)
    scene = empty_scene(config.archetypes, config.tray_dims, config.resolution, seed)

    # appearance metadata only; masks and depth are rendered directly
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    elevation = rng.uniform(math.pi / 6, math.pi / 2)
    scene.randomization = {
        "tray_color": [round(v, 6) for v in rng.uniform(0.5, 1.0, 3)],
        "light_direction": [
            round(math.cos(azimuth) * math.cos(elevation), 6),
            round(math.sin(azimuth) * math.cos(elevation), 6),
            round(math.sin(elevation), 6),
        ],
        "shadows": bool(rng.random() < 0.5),
    }

    count = int(rng.integers(arch.count_range[0], arch.count_range[1] + 1))
    for _ in range(count):
        scale = float(rng.uniform(*arch.scale_range))
        rotation = float(rng.uniform(0.0, math.pi))
        stamp = make_stamp(arch, scale, rotation, rng, scene.resolution)
        # a piece that cannot be placed within the retry budget is skipped
        for _ in range(config.max_placement_retries):
            x = float(rng.uniform(0.0, config.tray_dims[0]))
            y = float(rng.uniform(0.0, config.tray_dims[1]))
            try:
                drop_piece(scene, stamp, x, y, arch.name)
            except PlacementError:
                continue
            break

    _refresh_occlusion_flags(scene)
    return scene


def _refresh_occlusion_flags(scene: TrayScene, pieces: list[PieceInstance] | None = None) -> None:
    for piece in scene.pieces.values() if pieces is None else pieces:
        win, _ = stamp_window(scene, piece.stamp, piece.position)
        piece.fully_occluded = not (scene.owner_map[win] == piece.id).any()


def recompose(scene: TrayScene, region: tuple[slice, slice] | None = None) -> None:
    """Rebuild heightmap and owner map from the registry, in id (drop) order,
    inside region (default: the whole raster), and refresh the occlusion
    flags of the pieces that reach into it.

    Pieces keep their recorded rest heights; nothing resettles. Outside the
    region the maps must already be the composition of the registry, as
    they are after pieces whose stamp windows lie inside it are removed.
    """
    region = region or (slice(0, scene.shape[0]), slice(0, scene.shape[1]))
    scene.heightmap[region] = 0.0
    scene.owner_map[region] = 0
    touched: list[PieceInstance] = []
    for pid in sorted(scene.pieces):
        piece = scene.pieces[pid]
        win, st = stamp_window(scene, piece.stamp, piece.position, region)
        if win[0].stop <= win[0].start or win[1].stop <= win[1].start:
            continue
        touched.append(piece)
        mask = piece.stamp.mask[st]
        new_top = piece.rest_height + piece.stamp.top[st]
        window = scene.heightmap[win]
        raised = mask & (new_top > window)
        window[raised] = new_top[raised]
        scene.owner_map[win][raised] = pid
    _refresh_occlusion_flags(scene, touched)


# ---------------------------------------------------------------------------
# scene files: JSON manifest + two 16-bit PGM rasters


def save_scene(scene: TrayScene, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "tray_dims": list(scene.tray_dims),
        "resolution": scene.resolution,
        "seed": scene.seed,
        "next_id": scene.next_id,
        "randomization": scene.randomization,
        "pieces": [
            {
                "id": p.id,
                "archetype": p.archetype,
                "position": [p.position[0], p.position[1]],
                "rest_height": p.rest_height,
                "scale": p.stamp.scale,
                "stamp": p.stamp.params,
                "fully_occluded": p.fully_occluded,
                "damaged": p.damaged,
                "damage_magnitude": p.damage_magnitude,
            }
            for p in (scene.pieces[i] for i in sorted(scene.pieces))
        ],
    }
    (out / "scene.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    save_archetypes(scene.archetypes, out / "archetypes.json")
    write_pgm16(out / "heightmap.pgm", heights_to_levels(scene.heightmap))
    write_pgm16(out / "owner_map.pgm", scene.owner_map.astype(np.uint16))


def load_scene(in_dir: str | Path) -> TrayScene:
    src = Path(in_dir)
    doc = json.loads((src / "scene.json").read_text())
    archetypes = load_archetypes(src / "archetypes.json")
    scene = empty_scene(
        archetypes,
        tuple(doc["tray_dims"]),
        doc["resolution"],
        doc["seed"],
    )
    scene.randomization = doc["randomization"]
    for pd in doc["pieces"]:
        sp = pd["stamp"]
        stamp = rasterize_stamp(
            sp["semi_a"], sp["semi_b"], sp["exponent"], sp["peak"],
            sp["rotation"], scene.resolution,
        )
        stamp.scale = pd["scale"]
        piece = PieceInstance(
            id=pd["id"],
            archetype=pd["archetype"],
            stamp=stamp,
            position=tuple(pd["position"]),
            rest_height=pd["rest_height"],
            fully_occluded=pd["fully_occluded"],
            damaged=pd["damaged"],
            damage_magnitude=pd["damage_magnitude"],
        )
        scene.pieces[piece.id] = piece
    scene.next_id = doc["next_id"]
    recompose(scene)
    return scene
