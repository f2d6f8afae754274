"""Ellipse fitting, grasp derivation, contact regions, and filtering."""
import dataclasses
import json
import math

import numpy as np
import pytest

from traypick.archetypes import DEFAULT_ARCHETYPES
from traypick.errors import FitError, ParameterError
from traypick.perception import DepthImage, InstanceMaskSet, render_depth, render_masks
from traypick.planner import (
    EllipseFit,
    FingerGeometry,
    GraspCandidate,
    _contact_rectangles,
    _ellipse_spans,
    _finger_half_sizes,
    _rectangle_pixels,
    _spans_to_flat,
    candidate_from_dict,
    derive_grasp,
    filter_grasps,
    fit_ellipse,
    plan,
    plan_to_dict,
    select_grasp,
)
from traypick.scenegen import SceneConfig, empty_scene, generate_scene, rasterize_stamps, drop_piece


def raster_ellipse(shape, x, y, theta, a_full, b_full):
    """Rasterize an ellipse mask: theta is the minor-axis direction."""
    ys, xs = np.mgrid[: shape[0], : shape[1]]
    dx = xs + 0.5 - x
    dy = ys + 0.5 - y
    c, s = math.cos(theta), math.sin(theta)
    u = dx * c + dy * s
    v = -dx * s + dy * c
    return (u / (a_full / 2)) ** 2 + (v / (b_full / 2)) ** 2 <= 1.0


def flat_depth(shape, value, resolution=1.0):
    return DepthImage(np.full(shape, float(value)), resolution)


def contact_regions(c, fg, resolution, shape):
    """The two contact rectangles of c as full boolean rasters."""
    regions = np.zeros((2, shape[0] * shape[1]), dtype=bool)
    flat, counts = _rectangle_pixels(shape, _contact_rectangles(c, fg, resolution),
                                     *_finger_half_sizes(fg, resolution))
    for region, pixels in zip(regions, (flat[: counts[0]], flat[counts[0] :])):
        region[pixels] = True
    return regions[0].reshape(shape), regions[1].reshape(shape)


class TestFitEllipse:
    def test_disk_recovers_radius(self):
        mask = raster_ellipse((100, 100), 50.0, 50.0, 0.0, 20.0, 20.0)
        fit = fit_ellipse(mask)
        assert fit.x == pytest.approx(49.5, abs=0.5)
        assert fit.y == pytest.approx(49.5, abs=0.5)
        assert fit.axis_minor == pytest.approx(20.0, rel=0.01)
        assert fit.axis_major == pytest.approx(20.0, rel=0.01)

    def test_known_ellipse_round_trip(self):
        x, y, theta, a, b = 100.0, 80.0, 0.6, 30.0, 70.0
        mask = raster_ellipse((200, 200), x, y, theta, a, b)
        fit = fit_ellipse(mask)
        assert fit.x == pytest.approx(x - 0.5, abs=0.5)
        assert fit.y == pytest.approx(y - 0.5, abs=0.5)
        assert fit.axis_minor == pytest.approx(a, rel=0.02)
        assert fit.axis_major == pytest.approx(b, rel=0.02)
        dtheta = abs(fit.theta - theta) % math.pi
        assert min(dtheta, math.pi - dtheta) < math.radians(2)

    def test_translation_equivariance(self):
        mask = raster_ellipse((200, 200), 80.0, 70.0, 1.1, 24.0, 50.0)
        base = fit_ellipse(mask)
        shifted = np.roll(np.roll(mask, 13, axis=0), -7, axis=1)
        fit = fit_ellipse(shifted)
        assert fit.x == pytest.approx(base.x - 7, abs=1e-9)
        assert fit.y == pytest.approx(base.y + 13, abs=1e-9)
        assert fit.theta == pytest.approx(base.theta, abs=1e-9)
        assert fit.axis_minor == pytest.approx(base.axis_minor, abs=1e-9)
        assert fit.axis_major == pytest.approx(base.axis_major, abs=1e-9)

    def test_quarter_turn_equivariance(self):
        mask = raster_ellipse((200, 200), 100.0, 100.0, 0.4, 30.0, 64.0)
        base = fit_ellipse(mask)
        rotated = np.rot90(mask).copy()
        fit = fit_ellipse(rotated)
        dtheta = abs((fit.theta - base.theta) % math.pi - math.pi / 2)
        assert min(dtheta, abs(dtheta - math.pi)) < math.radians(2)
        assert fit.axis_minor == pytest.approx(base.axis_minor, rel=0.01)
        assert fit.axis_major == pytest.approx(base.axis_major, rel=0.01)

    def test_minor_axis_never_exceeds_major(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mask = raster_ellipse(
                (160, 160), rng.uniform(60, 100), rng.uniform(60, 100),
                rng.uniform(0, math.pi), rng.uniform(14, 30), rng.uniform(30, 60),
            )
            fit = fit_ellipse(mask)
            assert fit.axis_minor <= fit.axis_major

    def test_tiny_mask_rejected(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[5, 5:9] = True
        with pytest.raises(FitError):
            fit_ellipse(mask)

    def test_degenerate_line_rejected(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[10, 2:18] = True
        with pytest.raises(FitError):
            fit_ellipse(mask)


class TestDeriveGrasp:
    def test_flat_piece_height_offset(self):
        fit = EllipseFit(50.0, 50.0, 0.0, 20.0, 30.0)
        depth = flat_depth((100, 100), 25.0)
        arch = DEFAULT_ARCHETYPES["fried_chicken"]
        c = derive_grasp(fit, depth, arch, 1)
        assert c.food_median == pytest.approx(25.0)
        assert c.h == pytest.approx(25.0 + arch.grasp_height_offset)

    def test_floor_clamp(self):
        import dataclasses

        fit = EllipseFit(50.0, 50.0, 0.0, 20.0, 30.0)
        depth = flat_depth((100, 100), 25.0)
        arch = dataclasses.replace(
            DEFAULT_ARCHETYPES["fried_chicken"], grasp_height_offset=-30.0
        )
        assert derive_grasp(fit, depth, arch, 1).h == 0.0

    def test_median_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        heights = rng.uniform(10.0, 40.0, (120, 120))
        depth = DepthImage(heights, 1.0)
        fit = EllipseFit(60.0, 55.0, 0.8, 26.0, 44.0)
        c = derive_grasp(fit, depth, DEFAULT_ARCHETYPES["fried_chicken"], 1)
        # independent membership test per pixel
        vals = []
        cth, sth = math.cos(fit.theta), math.sin(fit.theta)
        for yy in range(120):
            for xx in range(120):
                dx, dy = xx - fit.x, yy - fit.y
                u = dx * cth + dy * sth
                v = -dx * sth + dy * cth
                if (u / 13.0) ** 2 + (v / 22.0) ** 2 <= 1.0:
                    vals.append(heights[yy, xx])
        assert c.food_median == pytest.approx(float(np.median(vals)))

    def test_width_converted_to_mm(self):
        fit = EllipseFit(50.0, 50.0, 0.0, 20.0, 30.0)
        depth = flat_depth((100, 100), 25.0, resolution=0.5)
        c = derive_grasp(fit, depth, DEFAULT_ARCHETYPES["fried_chicken"], 1)
        assert c.w == pytest.approx(20.0 * 0.5)

    def test_ellipse_outside_raster_rejected(self):
        fit = EllipseFit(500.0, 500.0, 0.0, 20.0, 30.0)
        depth = flat_depth((100, 100), 25.0)
        with pytest.raises(ParameterError):
            derive_grasp(fit, depth, DEFAULT_ARCHETYPES["fried_chicken"], 1)


def make_candidate(x, y, theta, w_mm, food_median, instance_id=1, h=None):
    return GraspCandidate(
        instance_id=instance_id, x=x, y=y, theta=theta,
        h=h if h is not None else max(0.0, food_median - 10.0),
        w=w_mm, food_median=food_median, axis_minor=w_mm, axis_major=w_mm * 1.5,
    )


class TestContactRegions:
    def test_axis_aligned_centers(self):
        # w=20, clearance=2, width=4 -> centers at x +/- 14 mm
        c = make_candidate(100.0, 100.0, 0.0, 20.0, 30.0)
        fg = FingerGeometry(width=4.0, breadth=20.0, clearance=2.0)
        left, right = contact_regions(c, fg, 1.0, (200, 200))
        ys, xs = np.nonzero(left)
        assert xs.mean() == pytest.approx(100.0 - 14.0, abs=0.6)
        assert ys.mean() == pytest.approx(100.0, abs=0.6)
        ys, xs = np.nonzero(right)
        assert xs.mean() == pytest.approx(100.0 + 14.0, abs=0.6)

    def test_quarter_turn_displaces_along_y(self):
        c = make_candidate(100.0, 100.0, math.pi / 2, 20.0, 30.0)
        fg = FingerGeometry(width=4.0, breadth=20.0, clearance=2.0)
        left, right = contact_regions(c, fg, 1.0, (200, 200))
        ys, xs = np.nonzero(left)
        assert ys.mean() == pytest.approx(100.0 - 14.0, abs=0.6)
        assert xs.mean() == pytest.approx(100.0, abs=0.6)
        ys, _ = np.nonzero(right)
        assert ys.mean() == pytest.approx(100.0 + 14.0, abs=0.6)

    def test_rotated_centers_match_rotation_matrix_oracle(self):
        fg = FingerGeometry(width=4.0, breadth=20.0, clearance=2.0)
        for theta in (math.pi / 4, 1.0, 2.5):
            c = make_candidate(100.0, 100.0, theta, 20.0, 30.0)
            left, right = contact_regions(c, fg, 1.0, (200, 200))
            # independent: rotate the displacement vector (14, 0) by theta
            ex = 14.0 * math.cos(theta)
            ey = 14.0 * math.sin(theta)
            ys, xs = np.nonzero(right)
            assert xs.mean() == pytest.approx(100.0 + ex, abs=0.8)
            assert ys.mean() == pytest.approx(100.0 + ey, abs=0.8)
            ys, xs = np.nonzero(left)
            assert xs.mean() == pytest.approx(100.0 - ex, abs=0.8)
            assert ys.mean() == pytest.approx(100.0 - ey, abs=0.8)

    def test_region_area_matches_geometry(self):
        c = make_candidate(100.0, 100.0, 0.3, 24.0, 30.0)
        fg = FingerGeometry(width=4.0, breadth=20.0, clearance=2.0)
        left, right = contact_regions(c, fg, 1.0, (200, 200))
        for region in (left, right):
            assert region.sum() == pytest.approx(4.0 * 20.0, rel=0.25)

    def test_fully_outside_region_is_empty(self):
        c = make_candidate(2.0, 100.0, 0.0, 40.0, 30.0)
        fg = FingerGeometry()
        left, _ = contact_regions(c, fg, 1.0, (200, 200))
        assert not left.any()


class TestFilterGrasps:
    def test_lone_piece_retained(self):
        depth = flat_depth((200, 200), 0.0)
        c = make_candidate(100.0, 100.0, 0.0, 20.0, 25.0)
        retained = filter_grasps([c], depth, FingerGeometry())
        assert retained == [c]
        assert c.contact_medians == (0.0, 0.0)

    def test_taller_neighbor_removes(self):
        heights = np.zeros((200, 200))
        heights[80:120, 70:95] = 40.0  # under the left contact region
        depth = DepthImage(heights, 1.0)
        c = make_candidate(100.0, 100.0, 0.0, 30.0, 25.0)
        retained = filter_grasps([c], depth, FingerGeometry())
        assert retained == []
        assert c.filtered and c.filter_reason == "contact-median-too-high"

    def test_equal_median_rejected_by_strictness(self):
        depth = flat_depth((200, 200), 10.0)
        c = make_candidate(100.0, 100.0, 0.0, 20.0, 10.0)
        assert filter_grasps([c], depth, FingerGeometry()) == []

    def test_out_of_tray_reason(self):
        depth = flat_depth((200, 200), 0.0)
        c = make_candidate(2.0, 100.0, 0.0, 40.0, 25.0)
        assert filter_grasps([c], depth, FingerGeometry()) == []
        assert c.filter_reason == "out-of-tray"

    def test_refiltering_resets_annotations(self):
        """Filtering again with a wider finger gives what filtering fresh
        copies of the candidates gives: no stale filtered flag, reason or
        contact medians."""
        scene = generate_scene(SceneConfig(archetype="mushroom"), 21)
        depth = render_depth(scene)
        candidates = plan(render_masks(scene), depth, DEFAULT_ARCHETYPES["mushroom"]).candidates
        wide = FingerGeometry(width=8.0, breadth=40.0, clearance=12.0)
        fresh = [dataclasses.replace(c, contact_medians=None, filtered=False, filter_reason="")
                 for c in candidates]
        before = [(c.contact_medians, c.filtered, c.filter_reason) for c in candidates]
        retained = filter_grasps(candidates, depth, wide)
        fresh_retained = filter_grasps(fresh, depth, wide)
        after = [(c.contact_medians, c.filtered, c.filter_reason) for c in candidates]
        assert after == [(c.contact_medians, c.filtered, c.filter_reason) for c in fresh]
        assert [c.instance_id for c in retained] == [c.instance_id for c in fresh_retained]
        changed = {(b[1], a[1]) for b, a in zip(before, after) if b != a}
        assert (True, False) in changed  # filtered before, retained now
        assert any(a[2] == "out-of-tray" and b[0] is not None for b, a in zip(before, after))

    def test_depth_scale_invariance(self):
        rng = np.random.default_rng(1)
        heights = rng.uniform(0.0, 30.0, (200, 200))
        cands = [
            make_candidate(60.0 + 30 * i, 100.0, 0.4 * i, 20.0, 0.0, instance_id=i)
            for i in range(4)
        ]
        outcomes = []
        for scale in (1.0, 3.7):
            depth = DepthImage(heights * scale, 1.0)
            cs = []
            for c in cands:
                fit = EllipseFit(c.x, c.y, c.theta, c.axis_minor, c.axis_major)
                interior, _ = _spans_to_flat((200, 200), *_ellipse_spans((200, 200), [fit]))
                cs.append(make_candidate(c.x, c.y, c.theta, c.w,
                                         float(np.median((heights * scale).take(interior))),
                                         instance_id=c.instance_id))
            retained = filter_grasps(cs, depth, FingerGeometry())
            outcomes.append({c.instance_id for c in retained})
        assert outcomes[0] == outcomes[1]


class TestSelectGrasp:
    def test_empty_gives_none(self):
        assert select_grasp([]) is None

    def test_argmax_median(self):
        cands = [
            make_candidate(50.0, 50.0, 0.0, 20.0, m, instance_id=i)
            for i, m in enumerate((12.0, 30.0, 25.0))
        ]
        assert select_grasp(cands).food_median == 30.0

    def test_tie_break_by_lower_id(self):
        a = make_candidate(50.0, 50.0, 0.0, 20.0, 30.0, instance_id=7)
        b = make_candidate(80.0, 80.0, 0.0, 20.0, 30.0, instance_id=4)
        assert select_grasp([a, b]).instance_id == 4


class TestPlan:
    def test_empty_mask_set(self):
        depth = flat_depth((100, 100), 0.0)
        p = plan(InstanceMaskSet([], (100, 100)), depth, DEFAULT_ARCHETYPES["fried_chicken"])
        assert p.target is None
        assert p.candidates == []

    @pytest.mark.parametrize("depth_shape", [(80, 100), (100, 120), (100, 99)])
    def test_depth_of_another_raster_rejected(self, depth_shape):
        """Masks planned against a depth image of another size used to get
        candidates read on clipped windows."""
        masks = InstanceMaskSet.from_rasters([(3, raster_ellipse((100, 100), 50.0, 90.0, 0.3, 12.0, 20.0))])
        with pytest.raises(ParameterError, match=rf"depth is {depth_shape[0]} x {depth_shape[1]} px, "
                                                 r"the masks' raster 100 x 100 px"):
            plan(masks, flat_depth(depth_shape, 10.0), DEFAULT_ARCHETYPES["fried_chicken"])

    def test_filtering_disabled_takes_global_argmax(self):
        scene = generate_scene(SceneConfig(), 12)
        depth = render_depth(scene)
        masks = render_masks(scene)
        arch = scene.archetypes["fried_chicken"]
        p = plan(masks, depth, arch, filtering_enabled=False)
        best = max(p.candidates, key=lambda c: (c.food_median, -c.instance_id))
        assert p.target.instance_id == best.instance_id

    def test_filtering_never_increases_candidates(self):
        for seed in range(5):
            scene = generate_scene(SceneConfig(), seed)
            depth = render_depth(scene)
            masks = render_masks(scene)
            arch = scene.archetypes["fried_chicken"]
            p_on = plan(masks, depth, arch, filtering_enabled=True)
            retained = [c for c in p_on.candidates if not c.filtered]
            assert len(retained) <= len(p_on.candidates)
            if p_on.target is not None:
                assert not p_on.target.filtered

    def test_taller_neighbor_changes_target(self):
        # a tall slab at the wall obstructs the mid slab's right finger; with
        # filtering the planner falls back to the low clear slab instead
        def slab(w_px, h_px, thickness):
            s = rasterize_stamps([(1.0, 1.0, 2.0, 0.0, 0.0)], 1.0)[0]
            s.top = np.full((h_px, w_px), float(thickness))
            s.mask = np.ones((h_px, w_px), dtype=bool)
            return s

        scene = empty_scene(resolution=1.0, tray_dims=(200.0, 200.0, 120.0))
        mid = drop_piece(scene, slab(31, 41, 25.0), 160.0, 100.0, "fried_chicken")
        wall_piece = drop_piece(scene, slab(21, 31, 40.0), 190.0, 100.0, "fried_chicken")
        clear = drop_piece(scene, slab(31, 41, 10.0), 50.0, 50.0, "fried_chicken")
        depth = render_depth(scene)
        masks = render_masks(scene)
        arch = scene.archetypes["fried_chicken"]
        p_off = plan(masks, depth, arch, filtering_enabled=False)
        p_on = plan(masks, depth, arch, filtering_enabled=True)
        assert p_off.target.instance_id == wall_piece.id  # tallest wins unfiltered
        assert p_on.target.instance_id == clear.id
        reasons = {c.instance_id: c.filter_reason for c in p_on.candidates}
        assert reasons[mid.id] == "contact-median-too-high"
        assert reasons[wall_piece.id] == "out-of-tray"

    def test_deterministic(self):
        scene = generate_scene(SceneConfig(), 9)
        depth = render_depth(scene)
        masks = render_masks(scene)
        arch = scene.archetypes["fried_chicken"]
        a = plan_to_dict(plan(masks, depth, arch))
        b = plan_to_dict(plan(masks, depth, arch))
        assert a == b

    def test_plan_dict_round_trip(self):
        scene = generate_scene(SceneConfig(), 9)
        depth = render_depth(scene)
        masks = render_masks(scene)
        p = plan(masks, depth, scene.archetypes["fried_chicken"])
        doc = json.loads(json.dumps(plan_to_dict(p)))
        assert candidate_from_dict(doc["target"]) == p.target
        assert [candidate_from_dict(c) for c in doc["candidates"]] == p.candidates


# Every number plan_to_dict writes for a candidate; a plan document is
# outside input to `traypick grasp`.
PLAN_NUMBERS = ["instance_id", "x", "y", "theta", "h", "w", "food_median", "axis_minor", "axis_major"]


@pytest.fixture(scope="module")
def target_doc():
    scene = generate_scene(SceneConfig(), 9)
    p = plan(render_masks(scene), render_depth(scene), scene.archetypes["fried_chicken"])
    return plan_to_dict(p)["target"]


@pytest.mark.parametrize("bad", ["missing", "a", math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("key", PLAN_NUMBERS)
def test_plan_document_number_checked(target_doc, key, bad):
    """A target missing h used to raise KeyError, "x": "a" TypeError, and a
    NaN h ran to a failure with exit 0."""
    doc = dict(target_doc)
    if bad == "missing":
        del doc[key]
    else:
        doc[key] = bad
    with pytest.raises(ParameterError, match=rf"\b{key}\b"):
        candidate_from_dict(doc)


@pytest.mark.parametrize("key, bad", [
    ("instance_id", 3.5), ("instance_id", 0), ("instance_id", True), ("h", -0.5), ("w", -50.0),
    ("axis_minor", -1.0), ("axis_major", -1e-9), ("x", -math.inf), ("contact_medians", "ab"),
    ("contact_medians", [1.0]), ("contact_medians", [1.0, math.nan]), ("filtered", "no"),
    ("filter_reason", 3),
], ids=repr)
def test_plan_document_range_checked(target_doc, key, bad):
    """"instance_id": 3.5 used to raise IndexError, and "w": -50 ran."""
    with pytest.raises(ParameterError, match=rf"\b{key}\b"):
        candidate_from_dict({**target_doc, key: bad})


def test_plan_document_candidate_must_be_an_object():
    with pytest.raises(ParameterError, match="must be an object"):
        candidate_from_dict([1, 2])
