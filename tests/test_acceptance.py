"""End-to-end acceptance checks: accuracy, equivalence oracles, statistical
directions, determinism, throughput, and bulk invariants.

Each test prints a single summary line (visible with -s, or in the captured
output of a failing test) and asserts the stated tolerance.
"""
import copy
import dataclasses
import math
import time

import numpy as np
import pytest

from traypick.archetypes import DEFAULT_ARCHETYPES
from traypick.experiment import ExperimentConfig, FRESH, paired_success_pvalue, run_experiment
from traypick.graspsim import FingerKind, FingerModel, insert_fingers
from traypick.perception import (
    CorruptionParams,
    InstanceMaskSet,
    agreement,
    render_depth,
    render_masks,
)
from traypick.planner import (
    FingerGeometry,
    GraspCandidate,
    fit_ellipse,
    plan,
)
from traypick.scenegen import (
    SceneConfig,
    drop_piece,
    empty_scene,
    generate_scene,
    mm_per_pixel,
    rasterize_stamps,
)

# Wall-clock seconds of the three statistical-direction campaigns, so their
# combined budget can be asserted at the end.
CAMPAIGN_SECONDS: dict[str, float] = {}


def _report(line: str) -> None:
    print(line)


# ---------------------------------------------------------------------------
# 1. Ellipse-fit round trip
# ---------------------------------------------------------------------------


def rasterize_ellipse(cx, cy, phi, semi_major, semi_minor, shape):
    """Independent rasterization: pixel centers inside the analytic ellipse."""
    ys, xs = np.mgrid[0 : shape[0], 0 : shape[1]]
    dx = xs - cx
    dy = ys - cy
    u = dx * math.cos(phi) + dy * math.sin(phi)
    v = -dx * math.sin(phi) + dy * math.cos(phi)
    return (u / semi_major) ** 2 + (v / semi_minor) ** 2 <= 1.0


def angle_gap(a, b):
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def test_ellipse_fit_round_trip():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_center = worst_axis = worst_angle = 0.0
    for _ in range(500):
        semi_major = rng.uniform(24.0, 90.0)
        semi_minor = semi_major / rng.uniform(1.25, 2.5)
        phi = rng.uniform(0.0, math.pi)
        side = 2 * int(math.ceil(semi_major)) + 11
        cx = side / 2 + rng.uniform(-3, 3)
        cy = side / 2 + rng.uniform(-3, 3)
        mask = rasterize_ellipse(cx, cy, phi, semi_major, semi_minor, (side, side))
        fit = fit_ellipse(mask)
        worst_center = max(worst_center, math.hypot(fit.x - cx, fit.y - cy))
        worst_axis = max(
            worst_axis,
            abs(fit.axis_major - 2 * semi_major) / (2 * semi_major),
            abs(fit.axis_minor - 2 * semi_minor) / (2 * semi_minor),
        )
        # fit.theta is the minor-axis direction; the drawn phi is the major's
        worst_angle = max(worst_angle, angle_gap(fit.theta, phi + math.pi / 2))
    elapsed = time.perf_counter() - t0
    ok = worst_center <= 0.5 and worst_axis <= 0.02 and math.degrees(worst_angle) <= 2.0 and elapsed < 5.0
    _report(
        f"[1] ellipse round trip (500 shapes): {'PASS' if ok else 'FAIL'} "
        f"(center {worst_center:.3f} px <= 0.5; axes {100 * worst_axis:.2f}% <= 2%; "
        f"angle {math.degrees(worst_angle):.2f} deg <= 2; {elapsed:.1f} s < 5)"
    )
    assert worst_center <= 0.5
    assert worst_axis <= 0.02
    assert math.degrees(worst_angle) <= 2.0
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Filter decisions match a pixel-exhaustive median recomputation
# ---------------------------------------------------------------------------


def _window_coords(shape, cx, cy, radius):
    r0 = max(0, int(cy) - radius)
    r1 = min(shape[0], int(cy) + radius + 2)
    c0 = max(0, int(cx) - radius)
    c1 = min(shape[1], int(cx) + radius + 2)
    ys, xs = np.mgrid[r0:r1, c0:c1]
    return ys, xs, (r0, r1, c0, c1)


def oracle_rect_values(depth, center, theta, half_len_px, half_breadth_px):
    """Depth values inside a rotated rectangle, via direct dot products."""
    radius = int(math.ceil(math.hypot(half_len_px, half_breadth_px))) + 2
    ys, xs, (r0, r1, c0, c1) = _window_coords(depth.heights.shape, center[0], center[1], radius)
    if r1 <= r0 or c1 <= c0:
        return np.empty(0)
    dx = xs - center[0]
    dy = ys - center[1]
    u = dx * math.cos(theta) + dy * math.sin(theta)
    v = -dx * math.sin(theta) + dy * math.cos(theta)
    inside = (np.abs(u) <= half_len_px) & (np.abs(v) <= half_breadth_px)
    return depth.heights[r0:r1, c0:c1][inside]


def oracle_ellipse_values(depth, fit):
    a = fit.axis_minor / 2.0
    b = fit.axis_major / 2.0
    radius = int(math.ceil(max(a, b))) + 2
    ys, xs, (r0, r1, c0, c1) = _window_coords(depth.heights.shape, fit.x, fit.y, radius)
    dx = xs - fit.x
    dy = ys - fit.y
    u = dx * math.cos(fit.theta) + dy * math.sin(fit.theta)
    v = -dx * math.sin(fit.theta) + dy * math.cos(fit.theta)
    inside = (u / a) ** 2 + (v / b) ** 2 <= 1.0
    return depth.heights[r0:r1, c0:c1][inside]


def test_filter_matches_exhaustive_median_oracle():
    fg = FingerGeometry()
    names = sorted(DEFAULT_ARCHETYPES)
    mismatches = 0
    checked = 0
    for i in range(100):
        name = names[i % len(names)]
        scene = generate_scene(SceneConfig(archetype=name), 9000 + i)
        depth = render_depth(scene)
        masks = render_masks(scene)
        arch = DEFAULT_ARCHETYPES[name]
        p = plan(masks, depth, arch, fg, filtering_enabled=True)
        res = depth.resolution
        for c in p.candidates:
            checked += 1
            d_px = (c.w / 2.0 + fg.clearance + fg.width / 2.0) / res
            ux, uy = math.cos(c.theta), math.sin(c.theta)
            hl = fg.width / 2.0 / res
            hb = fg.breadth / 2.0 / res
            sides = []
            for sgn in (-1.0, 1.0):
                vals = oracle_rect_values(
                    depth, (c.x + sgn * d_px * ux, c.y + sgn * d_px * uy), c.theta, hl, hb
                )
                sides.append(vals)
            food_median = float(np.median(oracle_ellipse_values(depth, c)))
            if any(v.size == 0 for v in sides):
                expect_retained, expect_reason = False, "out-of-tray"
            else:
                meds = [float(np.median(v)) for v in sides]
                if all(m < food_median for m in meds):
                    expect_retained, expect_reason = True, ""
                else:
                    expect_retained, expect_reason = False, "contact-median-too-high"
            if (not c.filtered) != expect_retained or (c.filtered and c.filter_reason != expect_reason):
                mismatches += 1
    ok = mismatches == 0
    _report(
        f"[2] filter vs exhaustive median oracle ({checked} candidates / 100 scenes): "
        f"{'PASS' if ok else 'FAIL'} ({mismatches} mismatches; 0 required)"
    )
    assert mismatches == 0


# ---------------------------------------------------------------------------
# 3. Agreement metric fixtures
# ---------------------------------------------------------------------------


def square(shape, r, c, side):
    m = np.zeros(shape, dtype=bool)
    m[r : r + side, c : c + side] = True
    return m


def test_agreement_metric_fixtures():
    # (a) self-agreement on a rendered scene
    masks = render_masks(generate_scene(SceneConfig(), 77))
    self_score = agreement(masks, masks).value
    # (b) fully disjoint prediction
    shape = (60, 60)
    disjoint = agreement(
        InstanceMaskSet.from_rasters([(1, square(shape, 40, 40, 10))]),
        InstanceMaskSet.from_rasters([(1, square(shape, 5, 5, 10))]),
    ).value
    # (c) hand-computed 0.15 case: one of two predictions overlaps the single
    # ground-truth square at IoU 77/120 ~ 0.642, so precision is 0.5 at the
    # 0.50/0.55/0.60 thresholds and 0 above: mean = 3 * 0.5 / 10 = 0.15
    gt_mask = square(shape, 10, 10, 10)
    pred_hit = square(shape, 10, 12, 10)
    pred_hit[10:13, 12] = False
    assert 0.60 <= np.count_nonzero(pred_hit & gt_mask) / np.count_nonzero(pred_hit | gt_mask) < 0.65
    fixture = agreement(
        InstanceMaskSet.from_rasters([(1, pred_hit), (2, square(shape, 40, 40, 10))]),
        InstanceMaskSet.from_rasters([(1, gt_mask)]),
    ).value
    # (d) invariance under id relabeling
    relabeled = InstanceMaskSet.from_rasters(
        [(5000 + i, m) for i, (_, m) in enumerate(reversed(masks.masks))]
    )
    relabel_score = agreement(relabeled, masks).value
    ok = (
        self_score == 1.0
        and disjoint == 0.0
        and fixture == pytest.approx(0.15)
        and relabel_score == 1.0
    )
    _report(
        f"[3] agreement fixtures: {'PASS' if ok else 'FAIL'} "
        f"(self {self_score}; disjoint {disjoint}; hand-computed {fixture:.4f} vs 0.15; "
        f"relabeled {relabel_score})"
    )
    assert self_score == 1.0
    assert disjoint == 0.0
    assert fixture == pytest.approx(0.15)
    assert relabel_score == 1.0


# ---------------------------------------------------------------------------
# 4. Adaptive-finger hard bounds
# ---------------------------------------------------------------------------


def test_adaptive_finger_hard_bounds():
    rng = np.random.default_rng(4)
    names = sorted(DEFAULT_ARCHETYPES)
    scenes = [
        generate_scene(SceneConfig(archetype=names[i % len(names)]), 600 + i)
        for i in range(20)
    ]
    fm = FingerModel(kind=FingerKind.ADAPTIVE)
    violations = 0
    max_r = max_f = 0.0
    for _ in range(10_000):
        scene = scenes[rng.integers(len(scenes))]
        ny, nx = scene.shape
        c = GraspCandidate(
            instance_id=0,
            x=float(rng.uniform(0, nx)),
            y=float(rng.uniform(0, ny)),
            theta=float(rng.uniform(0, math.pi)),
            h=float(rng.uniform(0, 30)),
            w=float(rng.uniform(8, 40)),
            food_median=0.0,
            axis_minor=10.0,
            axis_major=20.0,
        )
        ins = insert_fingers(scene, c, fm)
        for fin in ins.fingers:
            forces = list(fin.contacts.values())
            max_r = max(max_r, fin.retraction)
            max_f = max(max_f, *forces) if forces else max_f
            if fin.retraction > 22.5 or any(f > 4.1 for f in forces):
                violations += 1
    ok = violations == 0
    _report(
        f"[4] adaptive bounds (10^4 random insertions): {'PASS' if ok else 'FAIL'} "
        f"(max retraction {max_r:.2f} <= 22.5 mm; max force {max_f:.2f} <= 4.1 N; "
        f"{violations} violations)"
    )
    assert violations == 0


# ---------------------------------------------------------------------------
# 5. Statistical directions over paired seeds (500 trials per condition)
# ---------------------------------------------------------------------------

N_TRIALS = 500


def paired_campaign(archetype, finger, base_seed, corruption=None):
    cfg = ExperimentConfig(
        archetype=archetype,
        finger=finger,
        filtering=True,
        n_attempts=N_TRIALS,
        base_seed=base_seed,
        refill_policy=FRESH,
        corruption=corruption or CorruptionParams(),
    )
    on = run_experiment(cfg)
    off = run_experiment(dataclasses.replace(cfg, filtering=False))
    return on, off


def test_filtering_improves_single_pick_success():
    t0 = time.perf_counter()
    pooled_on, pooled_off = [], []
    per = []
    for i, name in enumerate(("fried_chicken", "broccoli", "mushroom")):
        (_, rec_on), (_, rec_off) = paired_campaign(name, FingerKind.ADAPTIVE, 40_000 + 1000 * i)
        pooled_on += rec_on
        pooled_off += rec_off
        a = sum(
            x.classification == "success_single" and y.classification != "success_single"
            for x, y in zip(rec_on, rec_off)
        )
        b = sum(
            y.classification == "success_single" and x.classification != "success_single"
            for x, y in zip(rec_on, rec_off)
        )
        per.append(f"{name} +{a}/-{b}")
    # one-sided exact McNemar on the pooled paired attempts
    p = paired_success_pvalue(pooled_on, pooled_off)
    CAMPAIGN_SECONDS["single"] = time.perf_counter() - t0
    ok = p < 0.01
    _report(
        f"[5a] filtering raises single-pick success (adaptive, {N_TRIALS} paired trials "
        f"x 3 soft archetypes): {'PASS' if ok else 'FAIL'} "
        f"(discordant {'; '.join(per)}; pooled p = {p:.3g} < 0.01; "
        f"{CAMPAIGN_SECONDS['single']:.0f} s)"
    )
    assert p < 0.01


def test_filtering_reduces_multi_pick_rate():
    t0 = time.perf_counter()
    (s_on, _), (s_off, _) = paired_campaign(
        "mushroom",
        FingerKind.FIXED,
        50_000,
        corruption=CorruptionParams(merge_prob=0.3),
    )
    CAMPAIGN_SECONDS["multi"] = time.perf_counter() - t0
    ok = s_on.multi_pick_rate < s_off.multi_pick_rate
    _report(
        f"[5b] filtering lowers multi-pick rate (mushroom, fixed, merged masks, "
        f"{N_TRIALS} paired trials): {'PASS' if ok else 'FAIL'} "
        f"(on {s_on.multi_pick_rate:.3f} vs off {s_off.multi_pick_rate:.3f}; "
        f"{CAMPAIGN_SECONDS['multi']:.0f} s)"
    )
    assert s_on.multi_pick_rate < s_off.multi_pick_rate, (
        "filtering did not reduce the multi-pick rate: "
        f"on {s_on.multi_pick_rate:.3f} vs off {s_off.multi_pick_rate:.3f}"
    )


def test_adaptive_finger_reduces_damage():
    t0 = time.perf_counter()
    totals = {}
    for kind in (FingerKind.ADAPTIVE, FingerKind.FIXED):
        cfg = ExperimentConfig(
            archetype="gyoza",
            finger=kind,
            filtering=True,
            n_attempts=N_TRIALS,
            base_seed=60_000,
            refill_policy=FRESH,
        )
        summary, _ = run_experiment(cfg)
        totals[kind] = summary.damaged_piece_total
    CAMPAIGN_SECONDS["damage"] = time.perf_counter() - t0
    ok = totals[FingerKind.ADAPTIVE] < totals[FingerKind.FIXED]
    _report(
        f"[5c] adaptive damages fewer pieces (gyoza, {N_TRIALS} trials): "
        f"{'PASS' if ok else 'FAIL'} (adaptive {totals[FingerKind.ADAPTIVE]} < "
        f"fixed {totals[FingerKind.FIXED]}; {CAMPAIGN_SECONDS['damage']:.0f} s)"
    )
    assert totals[FingerKind.ADAPTIVE] < totals[FingerKind.FIXED]


def test_direction_campaigns_within_budget():
    assert set(CAMPAIGN_SECONDS) == {"single", "multi", "damage"}, (
        "runtime check must run after the three campaign tests"
    )
    total = sum(CAMPAIGN_SECONDS.values())
    ok = total < 600.0
    _report(
        f"[5 budget] campaign wall time: {'PASS' if ok else 'FAIL'} "
        f"({total:.0f} s < 600 s)"
    )
    assert total < 600.0


# ---------------------------------------------------------------------------
# 6. Campaign determinism
# ---------------------------------------------------------------------------


def test_campaign_rerun_byte_identical(tmp_path):
    base = ExperimentConfig(
        archetype="broccoli",
        n_attempts=10,
        base_seed=321,
        depth_sigma=0.5,
        depth_quant=0.25,
        corruption=CorruptionParams(boundary_jitter=1, merge_prob=0.2, drop_prob=0.05),
    )
    for sub in ("a", "b"):
        run_experiment(dataclasses.replace(base, output_dir=str(tmp_path / sub)))
    a = (tmp_path / "a" / "records.jsonl").read_bytes()
    b = (tmp_path / "b" / "records.jsonl").read_bytes()
    ok = a == b
    _report(f"[6] campaign rerun determinism: {'PASS' if ok else 'FAIL'} (records byte-identical: {ok})")
    assert a == b


# ---------------------------------------------------------------------------
# 7. Generation throughput
# ---------------------------------------------------------------------------


def test_generation_throughput_1200_scenes():
    # square tray -> square 600 x 600 raster
    cfg = SceneConfig(tray_dims=(424.0, 424.0, 160.0))
    probe = generate_scene(cfg, 0)
    assert probe.shape == (600, 600)
    t0 = time.perf_counter()
    for seed in range(1200):
        generate_scene(cfg, seed)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(
        f"[7] generation throughput: {'PASS' if ok else 'FAIL'} "
        f"(1200 scenes at 600x600 in {elapsed:.1f} s < 60 s single-threaded)"
    )
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. Scene invariants over bulk randomized drops
# ---------------------------------------------------------------------------


def test_drop_invariants_over_bulk_randomized_drops():
    rng = np.random.default_rng(8)
    # a 106-mm tray at the default 424-mm tray's resolution, the one its
    # stamps are rasterized at: 150 x 150 px, stamp sides 27-81 px
    tray = (106.0, 106.0, 160.0)
    res = mm_per_pixel()
    names = [("mushroom", "fried_chicken", "sausage")[i % 3] for i in range(200)]
    shapes = []
    for name in names:
        # a piece's shape as generate_scene draws it: scale, rotation, then
        # the axis-a, axis-b and dome jitters
        arch = DEFAULT_ARCHETYPES[name]
        scale = float(rng.uniform(*arch.scale_range))
        rotation = float(rng.uniform(0, math.pi))
        ja, jb, jd = 1.0 + rng.uniform(-arch.jitter, arch.jitter, 3)
        semi_a = arch.semi_axes_mm[0] * scale * ja
        semi_b = arch.semi_axes_mm[1] * scale * jb
        shapes.append((semi_a, semi_b, arch.exponent, arch.dome_ratio * 0.5 * (semi_a + semi_b) * jd,
                       rotation))
    stamps = rasterize_stamps(shapes, res)
    n_drops = 100_000
    violations = 0
    scene = empty_scene(tray_dims=tray, resolution=res)
    for k in range(n_drops):
        if k % 500 == 0:
            scene = empty_scene(tray_dims=tray, resolution=res)
        stamp = stamps[k % len(stamps)]
        x = float(rng.uniform(0, tray[0]))
        y = float(rng.uniform(0, tray[1]))
        before = scene.heightmap.copy()
        piece = drop_piece(scene, stamp, x, y, names[k % len(stamps)])
        # monotone composition: no pixel ever loses height
        if (scene.heightmap < before).any():
            violations += 1
        # contact: the settled base either touches the floor or touches the
        # previous surface somewhere under the (clipped) footprint
        ny, nx = scene.shape
        res = scene.resolution
        cy, cx = int(round(y / res)), int(round(x / res))
        hy, hx = stamp.center
        r0, c0 = cy - hy, cx - hx
        sr0, sc0 = max(0, -r0), max(0, -c0)
        sr1 = stamp.top.shape[0] - max(0, r0 + stamp.top.shape[0] - ny)
        sc1 = stamp.top.shape[1] - max(0, c0 + stamp.top.shape[1] - nx)
        mask = stamp.mask[sr0:sr1, sc0:sc1]
        window = before[max(r0, 0) : max(r0, 0) + mask.shape[0], max(c0, 0) : max(c0, 0) + mask.shape[1]]
        expect_rest = max(0.0, float(np.max(window[mask])))
        if piece.rest_height != expect_rest:
            violations += 1
        # ownership consistency, checked on the whole raster periodically
        if k % 1000 == 999:
            owners_ok = ((scene.owner_map != 0) == (scene.heightmap > 0)).all()
            ids_ok = set(np.unique(scene.owner_map)) <= set(scene.pieces) | {0}
            if not (owners_ok and ids_ok):
                violations += 1
    ok = violations == 0
    _report(
        f"[8] bulk drop invariants (10^5 drops): {'PASS' if ok else 'FAIL'} "
        f"({violations} violations; 0 required)"
    )
    assert violations == 0
