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
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .archetypes import DEFAULT_ARCHETYPES, FoodArchetype, load_archetypes, save_archetypes
from .errors import ParameterError, PlacementError, check_number, check_type, read_json, read_object
from .grids import heights_to_levels, write_pgm16

DEFAULT_TRAY_DIMS = (424.0, 308.0, 160.0)  # mm, industry-standard food tray
RASTER_WIDTH_PX = 600  # tray width maps to 600 px
MAX_PLACEMENT_RETRIES = 100  # positions drawn for a piece before it is skipped
MAX_RASTER_SIDE = 4096  # px on either side of a raster; a float64 raster stays within 128 MiB


def mm_per_pixel(
    tray_dims: tuple[float, float, float] = DEFAULT_TRAY_DIMS, resolution: float | None = None
) -> float:
    """A raster's mm per pixel: resolution when given, else the tray width
    over RASTER_WIDTH_PX."""
    return tray_dims[0] / RASTER_WIDTH_PX if resolution is None else resolution


def raster_shape(tray_dims, resolution: float | None) -> tuple[int, int]:
    """(ny, nx) of a tray's raster at mm_per_pixel(tray_dims, resolution)."""
    res = mm_per_pixel(tray_dims, resolution)
    return int(round(tray_dims[1] / res)), int(round(tray_dims[0] / res))


@dataclass
class PieceStamp:
    """A single piece's rasterized geometry, relative to its own base plane."""

    top: np.ndarray  # mm above the piece base plane, whose bottom is flat
    mask: np.ndarray  # boolean footprint
    params: dict  # jittered shape parameters, enough to re-rasterize
    resolution: float  # mm per pixel it was rasterized at, which its scene's must equal

    @property
    def center(self) -> tuple[int, int]:
        # square raster with odd side; the nominal center pixel
        return self.top.shape[0] // 2, self.top.shape[1] // 2


# (raster slices, stamp slices): scene.heightmap[raster] lies under stamp.top[stamp]
StampWindow = tuple[tuple[slice, slice], tuple[slice, slice]]
# (raster slices, boolean array of their shape): heights[slices][local]
Window = tuple[tuple[slice, slice], np.ndarray]


@dataclass
class PieceInstance:
    id: int
    archetype: str
    stamp: PieceStamp
    position: tuple[float, float]  # (x, y) mm in tray frame
    window: StampWindow  # stamp_window at position, recorded when the piece is placed
    rest_height: float = 0.0  # mm, base plane above tray floor
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
    shape = raster_shape(tray_dims, resolution)
    return TrayScene(
        tray_dims=tray_dims,
        resolution=mm_per_pixel(tray_dims, resolution),
        heightmap=np.zeros(shape),
        owner_map=np.zeros(shape, dtype=np.int32),
        pieces={},
        archetypes=dict(archetypes or DEFAULT_ARCHETYPES),
        seed=seed,
    )


def copy_scene(scene: TrayScene) -> TrayScene:
    """A copy of scene with its own maps, piece registry and piece records,
    so that changing either leaves the other as it was. Stamps and
    archetypes, which no stage changes, are shared."""
    return replace(scene, heightmap=scene.heightmap.copy(), owner_map=scene.owner_map.copy(),
                   pieces={pid: replace(piece) for pid, piece in scene.pieces.items()})


def rasterize_stamps(
    shapes: list[tuple[float, float, float, float, float]], resolution: float
) -> list[PieceStamp]:
    """Rasterize superellipse footprints with dome tops, one stamp per
    (semi_a, semi_b, exponent, peak, rotation) in shapes.

    The footprint is |u/a|^n + |v/b|^n < 1 in the piece frame (u along the
    rotation direction); the top surface is peak * sqrt(1 - f), so height
    tapers to zero at the boundary. Bottoms are flat. Stamps that share a
    square side and an exponent are evaluated as one batch; every pixel gets
    the same arithmetic as when it is rasterized alone.
    """
    batches: dict[tuple[int, float], list[int]] = {}
    for i, (semi_a, semi_b, exponent, _, _) in enumerate(shapes):
        half_px = int(math.ceil(max(semi_a, semi_b) / resolution)) + 1
        batches.setdefault((half_px, exponent), []).append(i)
    stamps: list = [None] * len(shapes)
    for (half_px, exponent), members in batches.items():
        side = 2 * half_px + 1
        coords = (np.arange(side) - half_px) * resolution
        # coords[side - 1 - i] == -coords[i] exactly, so u and v negate exactly
        # at the mirrored pixel: evaluate rows 0..half_px and mirror the rest
        xs, ys = coords[np.newaxis, np.newaxis, :], coords[np.newaxis, : half_px + 1, np.newaxis]
        semi_a, semi_b, _, peak, rotation = (
            np.array(column)[:, np.newaxis, np.newaxis] for column in zip(*(shapes[i] for i in members))
        )
        c = np.array([math.cos(r) for r in rotation.flat])[:, np.newaxis, np.newaxis]
        s = np.array([math.sin(r) for r in rotation.flat])[:, np.newaxis, np.newaxis]
        au = np.abs((xs * c + ys * s) / semi_a)
        av = np.abs((ys * c - xs * s) / semi_b)
        # a pixel with |u/a| >= 1 or |v/b| >= 1 has f >= 1 for every exponent > 0
        box = (au < 1.0) & (av < 1.0)
        f = au[box] ** exponent + av[box] ** exponent
        inside = f < 1.0
        masks = np.zeros((len(members), side, side), dtype=bool)
        upper = masks[:, : half_px + 1]
        upper[box] = inside
        tops = np.zeros((len(members), side, side))
        peaks = np.repeat(peak.ravel(), np.count_nonzero(upper, axis=(1, 2)))
        tops[:, : half_px + 1][upper] = peaks * np.sqrt(1.0 - f[inside])
        masks[:, half_px + 1 :] = masks[:, half_px - 1 :: -1, ::-1]
        tops[:, half_px + 1 :] = tops[:, half_px - 1 :: -1, ::-1]
        for k, i in enumerate(members):
            a, b, n, pk, rot = shapes[i]
            stamps[i] = PieceStamp(
                top=tops[k],
                mask=masks[k],
                params={"semi_a": a, "semi_b": b, "exponent": n, "peak": pk, "rotation": rot},
                resolution=resolution,
            )
    return stamps


def _piece_shape(
    archetype: FoodArchetype, scale: float, rotation: float, jitter: tuple[float, float, float]
) -> tuple[float, float, float, float, float]:
    """The rasterize_stamps shape (semi_a, semi_b, exponent, peak, rotation)
    of one piece at scale, from its three jitter draws in [-j, j) (axis-a,
    axis-b and dome)."""
    ja, jb, jd = (1.0 + v for v in jitter)
    semi_a = archetype.semi_axes_mm[0] * scale * ja
    semi_b = archetype.semi_axes_mm[1] * scale * jb
    peak = archetype.dome_ratio * 0.5 * (semi_a + semi_b) * jd
    return semi_a, semi_b, archetype.exponent, peak, rotation


def _clip_window(window: StampWindow, region: tuple[slice, slice]) -> StampWindow:
    """window with its raster slices clipped to region and its stamp slices
    cut by as much. A window outside the region gets empty slices."""
    (rows, cols), (srows, scols) = window
    r0 = max(rows.start, region[0].start)
    r1 = max(r0, min(rows.stop, region[0].stop))
    c0 = max(cols.start, region[1].start)
    c1 = max(c0, min(cols.stop, region[1].stop))
    return ((slice(r0, r1), slice(c0, c1)),
            (slice(srows.start + r0 - rows.start, srows.stop - rows.stop + r1),
             slice(scols.start + c0 - cols.start, scols.stop - cols.stop + c1)))


def stamp_window(scene: TrayScene, stamp: PieceStamp, position: tuple[float, float]) -> StampWindow:
    """Raster and stamp slices of a stamp centred at position (x, y) mm,
    clipped to the raster, which holds every pixel of the piece. A stamp
    off the raster gives empty slices."""
    cy = int(round(position[1] / scene.resolution))
    cx = int(round(position[0] / scene.resolution))
    hy, hx = stamp.center
    side_y, side_x = stamp.top.shape
    return _clip_window(
        ((slice(cy - hy, cy + hy + 1), slice(cx - hx, cx + hx + 1)), (slice(0, side_y), slice(0, side_x))),
        (slice(0, scene.shape[0]), slice(0, scene.shape[1])),
    )


def _placement(scene: TrayScene, stamp: PieceStamp, position: tuple[float, float]) -> StampWindow:
    """The stamp_window of a stamp placed at position (x, y) mm. Raises
    ParameterError unless the stamp was rasterized at the scene's
    resolution, and PlacementError unless the position is in the tray and
    the clipped window and clipped footprint are not empty."""
    if stamp.resolution != scene.resolution:
        raise ParameterError(
            f"stamp rasterized at {stamp.resolution} mm/px, the scene is {scene.resolution} mm/px"
        )
    x, y = position
    if not (0 <= x < scene.tray_dims[0] and 0 <= y < scene.tray_dims[1]):
        raise PlacementError(f"drop position ({x}, {y}) outside tray")
    win, st = stamp_window(scene, stamp, position)
    if win[0].stop <= win[0].start or win[1].stop <= win[1].start:
        raise PlacementError("stamp footprint entirely outside tray")
    if not np.count_nonzero(stamp.mask[st]):  # cheaper than .any() on small masks
        raise PlacementError("clipped footprint is empty")
    return win, st


def _composite(scene: TrayScene, piece: PieceInstance, window: StampWindow) -> None:
    """Max-compose piece into the maps on window, its recorded window or a
    clip of it: a footprint pixel whose top, raised by the rest height, is
    above the heightmap takes that top and the piece's id."""
    win, st = window
    heights = scene.heightmap[win]
    top = piece.stamp.top[st] + piece.rest_height
    raised = top > heights
    raised &= piece.stamp.mask[st]
    np.copyto(heights, top, where=raised)
    scene.owner_map[win][raised] = piece.id


def visible_window(scene: TrayScene, pid: int) -> Window:
    """Visible pixels of piece pid, which must be in scene.pieces: the owner
    map tested on its recorded stamp window, which holds every pixel the
    piece can own."""
    win = scene.pieces[pid].window[0]
    return win, scene.owner_map[win] == pid


def drop_piece(
    scene: TrayScene,
    stamp: PieceStamp,
    x: float,
    y: float,
    archetype_name: str,
) -> PieceInstance:
    """Drop a stamp of the scene's archetype archetype_name at (x, y) mm and
    settle it by max-composition.

    The footprint is clipped to the tray interior. Rest height is the lowest
    elevation at which the stamp bottom clears the current support everywhere,
    floored at the tray floor. Returns the registered piece. A name not in
    scene.archetypes raises ParameterError, and so does a stamp of another
    resolution.
    """
    if archetype_name not in scene.archetypes:
        raise ParameterError(f"archetype {archetype_name!r} is not in the scene's archetypes")
    win, st = _placement(scene, stamp, (x, y))
    piece = PieceInstance(
        id=scene.next_id,
        archetype=archetype_name,
        stamp=stamp,
        position=(x, y),
        window=(win, st),
        rest_height=float(max(0.0, np.maximum.reduce(scene.heightmap[win][stamp.mask[st]]))),
    )
    scene.next_id += 1
    _composite(scene, piece, piece.window)
    scene.pieces[piece.id] = piece
    return piece


def check_tray(tray_dims, resolution) -> None:
    """Raise ParameterError unless tray_dims is three positive finite numbers,
    resolution None or a positive finite number, and each side of their
    raster at least 1 px and at most MAX_RASTER_SIDE."""
    check_type("tray_dims", tray_dims, (tuple, list))
    if len(tray_dims) != 3:
        raise ParameterError(f"tray_dims must hold 3 numbers, got {tray_dims!r}")
    for dim in tray_dims:
        check_number("tray_dims", dim, low=0, low_open=True, finite=True)
    if resolution is not None:
        check_number("resolution", resolution, low=0, low_open=True, finite=True)
    # raster_shape's sides before rounding: one above the cap + 0.5 rounds
    # above it, and an infinite one, which round() refuses, is caught too
    res = mm_per_pixel(tray_dims, resolution)
    ny, nx = tray_dims[1] / res, tray_dims[0] / res
    if max(ny, nx) > MAX_RASTER_SIDE + 0.5:
        raise ParameterError(f"raster of {ny:.0f} x {nx:.0f} px is over {MAX_RASTER_SIDE} px on a side; "
                             "raise resolution or shrink tray_dims")
    for i, px in ((0, nx), (1, ny)):
        if round(px) < 1:
            raise ParameterError(f"tray_dims[{i}] of {tray_dims[i]} mm rounds to 0 px at {res} mm per pixel; "
                                 "lower resolution or widen the tray")


def _max_semi_axis(tray_dims) -> float:
    """The tray's longer side in mm: the longest stamp semi-axis and finger
    breadth it takes."""
    return max(tray_dims[0], tray_dims[1])


@dataclass
class SceneConfig:
    archetype: str = "fried_chicken"
    tray_dims: tuple[float, float, float] = DEFAULT_TRAY_DIMS
    resolution: float | None = None
    archetypes: dict[str, FoodArchetype] = field(
        default_factory=lambda: dict(DEFAULT_ARCHETYPES)
    )

    def validate(self) -> None:
        check_type("archetypes", self.archetypes, dict)
        if not isinstance(self.archetype, str) or self.archetype not in self.archetypes:
            raise ParameterError(f"unknown archetype {self.archetype!r}")
        arch = self.archetypes[self.archetype]
        arch.validate()
        check_tray(self.tray_dims, self.resolution)
        # the largest semi-axis _piece_shape can draw, so every scene loads
        j = arch.jitter
        longest = max(_piece_shape(arch, arch.scale_range[1], 0.0, (j, j, j))[:2])
        bound = _max_semi_axis(self.tray_dims)
        if longest > bound:
            raise ParameterError(f"archetype {self.archetype!r} pieces reach a semi-axis of {longest:.2f} mm,"
                                 f" longer than the tray's {bound} mm side")


def _random_blocks(rng: np.random.Generator, block: int) -> Iterator[float]:
    """rng.random() values in stream order, drawn block at a time."""
    while True:
        yield from rng.random(block).tolist()


def generate_scene(config: SceneConfig, seed: int) -> TrayScene:
    """Generate one domain-randomized cluttered tray; pure in (config, seed).
    A seed that is not an integer >= 0 raises ParameterError, as in load_scene."""
    config.validate()
    check_number("seed", seed, integral=True, low=0)
    arch = config.archetypes[config.archetype]
    rng = np.random.default_rng(seed)
    scene = empty_scene(config.archetypes, config.tray_dims, config.resolution, seed)

    # skip the six doubles an RGB appearance record once drew, so every record stays put
    rng.random(6)

    # Three passes: draw every piece's shape and position in the stream's
    # order, rasterize the placed pieces' stamps in batches, drop them in order.
    # After count every draw is a uniform double, and Generator.uniform(low,
    # high) is low + (high - low) * random() bit for bit, so the draws are
    # read from blocks of rng.random, 7 per piece (scale, rotation, 3 jitters,
    # x, y). Rejected positions may use a block up; the next is drawn then.
    # No draw follows, so over-drawing moves nothing.
    width, depth = float(config.tray_dims[0]), float(config.tray_dims[1])
    lo, hi = float(arch.scale_range[0]), float(arch.scale_range[1])
    j = float(arch.jitter)
    ny, nx = scene.shape
    placed: list[tuple[tuple, float, float]] = []  # shape, x, y
    count = int(rng.integers(arch.count_range[0], arch.count_range[1] + 1))
    draws = _random_blocks(rng, 7 * count)
    for _ in range(count):
        scale = lo + (hi - lo) * next(draws)
        rotation = 0.0 + math.pi * next(draws)
        jitter = tuple(-j + (j + j) * next(draws) for _ in range(3))
        shape = _piece_shape(arch, scale, rotation, jitter)
        edge_stamp = None
        for _ in range(MAX_PLACEMENT_RETRIES):
            x = 0.0 + width * next(draws)
            y = 0.0 + depth * next(draws)
            # drop_piece's placement test, decided before any drop. The
            # position is in the tray: 0.0 + high * r with r < 1 rounds below
            # high. f(0, 0) = 0 puts the centre pixel in every footprint, so a
            # centre inside the raster always places; only a centre in row ny
            # or column nx needs the stamp.
            if int(round(y / scene.resolution)) >= ny or int(round(x / scene.resolution)) >= nx:
                if edge_stamp is None:
                    edge_stamp = rasterize_stamps([shape], scene.resolution)[0]
                try:
                    _placement(scene, edge_stamp, (x, y))
                except PlacementError:
                    continue
            placed.append((shape, x, y))
            break

    stamps = rasterize_stamps([shape for shape, _, _ in placed], scene.resolution)
    for (_, x, y), stamp in zip(placed, stamps):
        drop_piece(scene, stamp, x, y, arch.name)
    return scene


def recompose(scene: TrayScene, region: tuple[slice, slice] | None = None) -> None:
    """Rebuild heightmap and owner map from the registry, in id (drop) order,
    inside region (default: the whole raster).

    Pieces keep their recorded rest heights; nothing resettles. Outside the
    region the maps must already be the composition of the registry, as
    they are after pieces whose stamp windows lie inside it are removed.
    """
    region = region or (slice(0, scene.shape[0]), slice(0, scene.shape[1]))
    scene.heightmap[region] = 0.0
    scene.owner_map[region] = 0
    for pid in sorted(scene.pieces):
        piece = scene.pieces[pid]
        (rows, cols), st = _clip_window(piece.window, region)
        if rows.stop > rows.start and cols.stop > cols.start:
            _composite(scene, piece, ((rows, cols), st))


# ---------------------------------------------------------------------------
# scene files: JSON manifest + two 16-bit PGM rasters


def save_scene(scene: TrayScene, out_dir: str | Path) -> None:
    """Write scene.json, archetypes.json and the heightmap and owner-map PGMs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "tray_dims": list(scene.tray_dims),
        "resolution": scene.resolution,
        "seed": scene.seed,
        "next_id": scene.next_id,
        "pieces": [
            {
                "id": p.id,
                "archetype": p.archetype,
                "position": [p.position[0], p.position[1]],
                "rest_height": p.rest_height,
                "stamp": p.stamp.params,
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


_SCENE_KEYS = ("tray_dims", "resolution", "seed", "next_id", "pieces")
_PIECE_KEYS = ("id", "archetype", "position", "rest_height", "stamp", "damaged", "damage_magnitude")
_STAMP_KEYS = ("semi_a", "semi_b", "exponent", "peak", "rotation")


def _check_piece(pd, i: int, archetypes: dict[str, FoodArchetype], max_semi: float) -> None:
    """Check the keys and values of scene.json's pieces[i], its stamp's
    semi-axes at most max_semi mm; whether drop_piece would place it is left
    to the caller."""
    read_object(pd, f"scene.json pieces[{i}]", _PIECE_KEYS)
    check_number("piece id", pd["id"], integral=True, low=1, high=65535)
    where = f"scene.json piece {pd['id']}"
    if not (isinstance(pd["archetype"], str) and pd["archetype"] in archetypes):
        raise ParameterError(f"{where} archetype {pd['archetype']!r} is not in archetypes.json")
    if not (isinstance(pd["position"], list) and len(pd["position"]) == 2):
        raise ParameterError(f"{where} position must hold 2 numbers, got {pd['position']!r}")
    for v in pd["position"]:
        check_number(f"{where} position", v, finite=True)
    for key in ("rest_height", "damage_magnitude"):
        check_number(f"{where} {key}", pd[key], low=0, finite=True)
    check_type(f"{where} damaged", pd["damaged"], bool)
    stamp = read_object(pd["stamp"], f"{where} stamp", _STAMP_KEYS)
    # the ranges FoodArchetype.validate gives a footprint, and a dome above it;
    # a stamp's square grows with its semi-axes, so they are bounded too
    for key in ("semi_a", "semi_b", "exponent", "peak"):
        check_number(f"{where} stamp {key}", stamp[key], low=0, low_open=True, finite=True,
                     high=max_semi if key in ("semi_a", "semi_b") else None)
    check_number(f"{where} stamp rotation", stamp["rotation"], finite=True)


def load_scene(in_dir: str | Path) -> TrayScene:
    """Read a scene written by save_scene and recompose its maps. Besides
    read_object's key checks, a tray or resolution SceneConfig.validate would
    refuse, a seed that is not an integer >= 0, a piece id that is repeated or
    outside 1..65535 (the owner-map PGM holds 16 bits), a next_id not above
    every id, an archetype name not in archetypes.json, a NaN, infinite or
    out-of-range piece or stamp number (a stamp semi-axis is at most the
    tray's longer side), and a piece drop_piece would refuse raise ParameterError."""
    src = Path(in_dir)
    doc = read_object(read_json(src / "scene.json"), "scene.json", _SCENE_KEYS)
    check_tray(doc["tray_dims"], doc["resolution"])
    check_number("seed", doc["seed"], integral=True, low=0)
    check_type("scene.json pieces", doc["pieces"], list)
    archetypes = load_archetypes(src / "archetypes.json")
    ids: set[int] = set()
    for i, pd in enumerate(doc["pieces"]):
        _check_piece(pd, i, archetypes, _max_semi_axis(doc["tray_dims"]))
        if pd["id"] in ids:
            raise ParameterError(f"duplicate piece id {pd['id']}")
        ids.add(pd["id"])
    check_number("next_id", doc["next_id"], integral=True, low=max(ids, default=0), low_open=True)
    scene = empty_scene(
        archetypes,
        tuple(doc["tray_dims"]),
        doc["resolution"],
        doc["seed"],
    )
    stamps = rasterize_stamps(
        [tuple(pd["stamp"][k] for k in _STAMP_KEYS) for pd in doc["pieces"]], scene.resolution
    )
    for pd, stamp in zip(doc["pieces"], stamps):
        position = tuple(pd["position"])
        try:
            window = _placement(scene, stamp, position)
        except PlacementError as e:
            raise ParameterError(f"scene.json piece {pd['id']}: {e}") from None
        piece = PieceInstance(
            id=pd["id"],
            archetype=pd["archetype"],
            stamp=stamp,
            position=position,
            window=window,
            rest_height=pd["rest_height"],
            damaged=pd["damaged"],
            damage_magnitude=pd["damage_magnitude"],
        )
        scene.pieces[piece.id] = piece
    scene.next_id = doc["next_id"]
    recompose(scene)
    return scene
