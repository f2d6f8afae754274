"""Depth rendering, instance masks, mask corruption, and mask agreement.

The simulator supplies ground-truth visible-region masks straight from the
owner map; a parametric corruption model stands in for an imperfect
segmentation model. Agreement between two mask sets is the threshold-averaged
greedy-matched precision over IoU thresholds 0.50:0.95.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import ParameterError, check_number
from .grids import heights_to_levels, levels_to_heights, read_pgm16, write_pgm16
from .scenegen import TrayScene

IOU_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


@dataclass
class DepthImage:
    heights: np.ndarray  # mm above tray floor, orthographic top-down
    resolution: float  # mm per pixel
    sigma: float = 0.0  # noise record
    quant: float = 0.0


@dataclass
class InstanceMaskSet:
    masks: list[tuple[int, np.ndarray]]  # (instance id, boolean grid)
    source: str = "ground_truth"  # ground_truth | corrupted | external
    confidences: dict[int, float] = field(default_factory=dict)

    def ids(self) -> list[int]:
        return [i for i, _ in self.masks]


@dataclass
class AgreementScore:
    value: float
    per_threshold: dict[float, float]
    iou_thresholds: tuple[float, ...] = IOU_THRESHOLDS


def render_depth(
    scene: TrayScene,
    sigma: float = 0.0,
    quant: float = 0.0,
    rng: np.random.Generator | None = None,
) -> DepthImage:
    """Orthographic top-down depth: heightmap + Gaussian noise, quantized.

    Quantization rounds half-down: 12.5 mm at 1 mm steps yields 12 mm.
    sigma = quant = 0 returns the exact heightmap.
    """
    if sigma < 0 or quant < 0:
        raise ParameterError("sigma and quant must be >= 0")
    heights = scene.heightmap.copy()
    if sigma > 0:
        if rng is None:
            raise ParameterError("rng required when sigma > 0")
        heights += rng.normal(0.0, sigma, heights.shape)
    np.maximum(heights, 0.0, out=heights)
    if quant > 0:
        heights = np.ceil(heights / quant - 0.5) * quant
        np.maximum(heights, 0.0, out=heights)
    return DepthImage(heights, scene.resolution, sigma, quant)


def render_masks(scene: TrayScene) -> InstanceMaskSet:
    """Ground-truth visible-region masks, one per non-occluded piece."""
    masks: list[tuple[int, np.ndarray]] = []
    slices = ndimage.find_objects(scene.owner_map, max_label=scene.next_id - 1)
    for pid in sorted(scene.pieces):
        sl = slices[pid - 1] if pid - 1 < len(slices) else None
        if sl is None:
            scene.pieces[pid].fully_occluded = True
            continue
        full = np.zeros(scene.shape, dtype=bool)
        full[sl] = scene.owner_map[sl] == pid
        masks.append((pid, full))
    return InstanceMaskSet(masks, source="ground_truth")


@dataclass
class CorruptionParams:
    boundary_jitter: int = 0  # px; uniform dilation/erosion amplitude
    merge_prob: float = 0.0  # per adjacent pair
    drop_prob: float = 0.0  # per mask
    confidence_floor: float = 0.5  # emulated detector scores

    def validate(self) -> None:
        check_number("boundary_jitter", self.boundary_jitter, integral=True, low=0)
        for name in ("merge_prob", "drop_prob", "confidence_floor"):
            check_number(name, getattr(self, name), low=0, high=1)

    @property
    def is_identity(self) -> bool:
        return self.boundary_jitter == 0 and self.merge_prob == 0 and self.drop_prob == 0


def _bbox(mask: np.ndarray) -> tuple[int, int, int, int] | None:
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask[rows[0] : rows[-1] + 1].any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _adjacent(
    a: np.ndarray,
    b: np.ndarray,
    ba: tuple[int, int, int, int] | None,
    bb: tuple[int, int, int, int] | None,
) -> bool:
    """8-neighborhood adjacency, evaluated on the overlap of padded boxes."""
    if ba is None or bb is None:
        return False
    ny, nx = a.shape
    r0 = max(ba[0] - 1, bb[0] - 1, 0)
    r1 = min(ba[1] + 1, bb[1] + 1, ny)
    c0 = max(ba[2] - 1, bb[2] - 1, 0)
    c1 = min(ba[3] + 1, bb[3] + 1, nx)
    if r1 <= r0 or c1 <= c0:
        return False
    win = (slice(r0, r1), slice(c0, c1))
    return bool(
        (ndimage.binary_dilation(a[win], structure=np.ones((3, 3), bool)) & b[win]).any()
    )


def _morph_jitter(mask: np.ndarray, steps: int) -> np.ndarray:
    """Dilate (steps > 0) or erode (steps < 0) within a cropped window."""
    box = _bbox(mask)
    if box is None:
        return mask
    pad = abs(steps) + 1
    r0 = max(box[0] - pad, 0)
    r1 = min(box[1] + pad, mask.shape[0])
    c0 = max(box[2] - pad, 0)
    c1 = min(box[3] + pad, mask.shape[1])
    win = (slice(r0, r1), slice(c0, c1))
    out = np.zeros_like(mask)
    if steps > 0:
        out[win] = ndimage.binary_dilation(mask[win], iterations=steps)
    else:
        out[win] = ndimage.binary_erosion(mask[win], iterations=-steps)
    return out


def corrupt_masks(
    masks: InstanceMaskSet,
    params: CorruptionParams,
    rng: np.random.Generator,
) -> InstanceMaskSet:
    """Emulate segmentation error on ground-truth masks.

    Each mask is independently dilated or eroded by a uniform jitter, adjacent
    pairs are merged with merge_prob, and each surviving mask is dropped with
    drop_prob. Output is tagged "corrupted"; masks may overlap after dilation.
    """
    params.validate()
    if masks.source != "ground_truth":
        raise ParameterError("corrupt_masks expects ground-truth masks")
    jittered: list[tuple[int, np.ndarray]] = []
    for pid, mask in masks.masks:
        m = mask
        if params.boundary_jitter > 0:
            steps = int(rng.integers(-params.boundary_jitter, params.boundary_jitter + 1))
            if steps != 0:
                m = _morph_jitter(m, steps)
                if not m.any():
                    continue  # eroded away entirely
        jittered.append((pid, m))

    # union-find over pairwise merges, pairs visited in sorted id order
    parent = {pid: pid for pid, _ in jittered}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if params.merge_prob > 0 and jittered:
        by_id = dict(jittered)
        ids = sorted(by_id)
        boxes = [_bbox(by_id[pid]) for pid in ids]
        # only pairs whose padded boxes overlap inside the raster can be
        # adjacent; np.nonzero keeps the sorted pair order of the RNG draws
        b = np.array([box or (0, 0, 0, 0) for box in boxes]).reshape(-1, 4)
        lo = np.maximum(np.maximum(b[:, None, ::2], b[None, :, ::2]) - 1, 0)
        hi = np.minimum(np.minimum(b[:, None, 1::2], b[None, :, 1::2]) + 1, jittered[0][1].shape)
        for i_idx, j_idx in zip(*np.nonzero(np.triu((hi > lo).all(axis=2), 1))):
            i, j = ids[i_idx], ids[j_idx]
            if _adjacent(by_id[i], by_id[j], boxes[i_idx], boxes[j_idx]) and (
                rng.random() < params.merge_prob
            ):
                parent[find(j)] = find(i)

    groups: dict[int, list[np.ndarray]] = {}
    for pid, m in jittered:
        groups.setdefault(find(pid), []).append(m)

    out: list[tuple[int, np.ndarray]] = []
    confidences: dict[int, float] = {}
    for root in sorted(groups):
        merged = groups[root][0]
        for m in groups[root][1:]:
            merged = merged | m
        if params.drop_prob > 0 and rng.random() < params.drop_prob:
            continue
        out.append((root, merged))
        confidences[root] = float(rng.uniform(params.confidence_floor, 1.0))
    return InstanceMaskSet(out, source="corrupted", confidences=confidences)


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two boolean masks; 0 when both are empty."""
    if a.shape != b.shape:
        raise ParameterError(f"mask shape mismatch: {a.shape} vs {b.shape}")
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 0.0
    return int(np.count_nonzero(a & b)) / union


def agreement(
    pred: InstanceMaskSet,
    gt: InstanceMaskSet,
    iou_thresholds: tuple[float, ...] = IOU_THRESHOLDS,
) -> AgreementScore:
    """Threshold-averaged greedy-matched precision of pred against gt.

    At each threshold, (pred, gt) pairs are matched one-to-one greedily in
    descending IoU order (ties broken by lower pred id, then gt id);
    precision is matches / |pred|. Empty-vs-empty scores 1,
    empty-pred-vs-nonempty-gt scores 0. Not symmetric by design.
    """
    n_pred, n_gt = len(pred.masks), len(gt.masks)
    per_threshold: dict[float, float] = {}
    if n_pred == 0:
        p = 1.0 if n_gt == 0 else 0.0
        per_threshold = {t: p for t in iou_thresholds}
        return AgreementScore(p, per_threshold, iou_thresholds)

    ious = np.zeros((n_pred, n_gt))
    for i, (_, pm) in enumerate(pred.masks):
        for j, (_, gm) in enumerate(gt.masks):
            ious[i, j] = mask_iou(pm, gm)

    pred_ids = [pid for pid, _ in pred.masks]
    gt_ids = [gid for gid, _ in gt.masks]
    pairs = sorted(
        ((ious[i, j], i, j) for i in range(n_pred) for j in range(n_gt)),
        key=lambda t: (-t[0], pred_ids[t[1]], gt_ids[t[2]]),
    )
    for t in iou_thresholds:
        used_p: set[int] = set()
        used_g: set[int] = set()
        matches = 0
        for iou, i, j in pairs:
            if iou < t:
                break
            if i in used_p or j in used_g:
                continue
            used_p.add(i)
            used_g.add(j)
            matches += 1
        per_threshold[t] = matches / n_pred
    score = sum(per_threshold.values()) / len(iou_thresholds)
    return AgreementScore(score, per_threshold, iou_thresholds)


# ---------------------------------------------------------------------------
# mask and depth files


def save_depth(depth: DepthImage, path: str | Path) -> None:
    write_pgm16(path, heights_to_levels(depth.heights))


def load_depth(path: str | Path, resolution: float) -> DepthImage:
    return DepthImage(levels_to_heights(read_pgm16(path)), resolution)


def save_masks(masks: InstanceMaskSet, out_dir: str | Path, stem: str = "masks") -> Path:
    """Write a mask manifest: a 16-bit id map when masks are disjoint,
    otherwise one 8-bit-style PGM per instance."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"source": masks.source, "ids": masks.ids()}
    if masks.confidences:
        manifest["confidences"] = {str(k): v for k, v in masks.confidences.items()}
    union = np.zeros(masks.masks[0][1].shape, dtype=bool) if masks.masks else None
    disjoint = True
    for _, m in masks.masks:
        if (union & m).any():
            disjoint = False
            break
        union |= m
    if disjoint and masks.masks:
        id_map = np.zeros(masks.masks[0][1].shape, dtype=np.uint16)
        for pid, m in masks.masks:
            id_map[m] = pid
        write_pgm16(out / f"{stem}_idmap.pgm", id_map)
        manifest["id_map"] = f"{stem}_idmap.pgm"
    else:
        files = {}
        for pid, m in masks.masks:
            name = f"{stem}_{pid}.pgm"
            write_pgm16(out / name, m.astype(np.uint16) * 65535)
            files[str(pid)] = name
        manifest["files"] = files
    manifest_path = out / f"{stem}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest_path


def load_masks(manifest_path: str | Path) -> InstanceMaskSet:
    src = Path(manifest_path)
    manifest = json.loads(src.read_text())
    masks: list[tuple[int, np.ndarray]] = []
    if "id_map" in manifest:
        id_map = read_pgm16(src.parent / manifest["id_map"])
        for pid in manifest["ids"]:
            masks.append((pid, id_map == pid))
    else:
        for pid in manifest["ids"]:
            m = read_pgm16(src.parent / manifest["files"][str(pid)])
            masks.append((pid, m > 0))
    confidences = {int(k): v for k, v in manifest.get("confidences", {}).items()}
    return InstanceMaskSet(masks, source=manifest["source"], confidences=confidences)
