"""Grasp execution: insertion mechanics, capture, damage, scene updates."""
import copy
import math

import numpy as np
import pytest

from traypick.archetypes import DEFAULT_ARCHETYPES
from traypick.errors import ParameterError
from traypick import graspsim
from traypick.graspsim import (
    MAX_FORCE,
    RETRACTION_BUDGET,
    Classification,
    FingerKind,
    FingerModel,
    apply_outcome,
    close_and_lift,
    execute_grasp,
    grasp_outcome,
    insert_fingers,
)
from traypick.perception import render_depth, render_masks
from traypick.planner import FingerGeometry, GraspCandidate, filter_grasps, plan
from traypick.scenegen import (
    SceneConfig,
    copy_scene,
    empty_scene,
    generate_scene,
    drop_piece,
    rasterize_stamps,
    recompose,
)


def slab_stamp(w_px, h_px, thickness):
    s = rasterize_stamps([(1.0, 1.0, 2.0, 0.0, 0.0)], 1.0)[0]
    s.top = np.full((h_px, w_px), float(thickness))
    s.mask = np.ones((h_px, w_px), dtype=bool)
    return s


def candidate(x, y, theta=0.0, h=5.0, w=20.0, food_median=15.0, instance_id=1):
    return GraspCandidate(
        instance_id=instance_id, x=x, y=y, theta=theta, h=h, w=w,
        food_median=food_median, axis_minor=w, axis_major=w * 1.2,
    )


def lone_piece_scene(thickness=20.0):
    scene = empty_scene(resolution=1.0, tray_dims=(200.0, 200.0, 120.0))
    piece = drop_piece(scene, slab_stamp(25, 25, thickness), 100.0, 100.0,
                       "fried_chicken")
    return scene, piece


class TestFingerModel:
    def test_stiffness_from_paper_constants(self):
        assert (RETRACTION_BUDGET, MAX_FORCE) == (22.5, 4.1)
        assert MAX_FORCE / RETRACTION_BUDGET == pytest.approx(4.1 / 22.5)


class TestInsertFingers:
    def test_parameters_checked(self):
        """A finger kind given as a string used to run as adaptive."""
        scene, _ = lone_piece_scene()
        c = candidate(100.0, 100.0, h=5.0, w=30.0, food_median=20.0)
        with pytest.raises(ParameterError, match="kind"):
            insert_fingers(scene, c, FingerModel(kind="fixed"))

    def test_clear_floor_full_insertion(self):
        scene, piece = lone_piece_scene()
        c = candidate(100.0, 100.0, h=5.0, w=30.0, food_median=20.0)
        ins = insert_fingers(scene, c, FingerModel())
        for fin in ins.fingers:
            assert fin.achieved == 5.0
            assert fin.retraction == 0.0
            assert fin.contacts == {}
            assert not fin.blocked
        assert not ins.blocked

    def test_fixed_penetration_and_damage(self):
        # neighbor surface 10 mm above h, tolerance 3 -> damaged, penetration 10
        scene = empty_scene(resolution=1.0, tray_dims=(200.0, 200.0, 120.0))
        drop_piece(scene, slab_stamp(25, 25, 20.0), 100.0, 100.0, "fried_chicken")
        neighbor = drop_piece(scene, slab_stamp(15, 25, 15.0), 121.0, 100.0,
                              "fried_chicken")
        c = candidate(100.0, 100.0, h=5.0, w=26.0, food_median=20.0)
        fm = FingerModel(kind=FingerKind.FIXED)
        ins = insert_fingers(scene, c, fm)
        right = ins.fingers[1]
        assert right.contacts[neighbor.id] == pytest.approx(10.0)
        assert right.achieved == 5.0
        # fried_chicken damage_tolerance is 4 mm < 10 mm penetration
        assert neighbor.id in ins.damaged

    def test_adaptive_retracts_with_spring_force(self):
        # same obstruction handled by retraction: r=10, force ~1.82 N
        scene = empty_scene(resolution=1.0, tray_dims=(200.0, 200.0, 120.0))
        drop_piece(scene, slab_stamp(25, 25, 20.0), 100.0, 100.0, "fried_chicken")
        neighbor = drop_piece(scene, slab_stamp(15, 25, 15.0), 121.0, 100.0,
                              "fried_chicken")
        c = candidate(100.0, 100.0, h=5.0, w=26.0, food_median=20.0)
        ins = insert_fingers(scene, c, FingerModel(kind=FingerKind.ADAPTIVE))
        right = ins.fingers[1]
        assert right.retraction == pytest.approx(10.0)
        assert right.achieved == pytest.approx(15.0)
        assert right.contacts[neighbor.id] == pytest.approx((4.1 / 22.5) * 10.0)
        assert not right.blocked
        # fried_chicken fragility 3.0 N > 1.82 N: no damage
        assert ins.damaged == {}

    def test_fixed_blocked_beyond_pierce_threshold(self):
        scene = empty_scene(resolution=1.0, tray_dims=(200.0, 200.0, 120.0))
        drop_piece(scene, slab_stamp(25, 25, 30.0), 100.0, 100.0, "fried_chicken")
        drop_piece(scene, slab_stamp(15, 25, 25.0), 121.0, 100.0, "fried_chicken")
        c = candidate(100.0, 100.0, h=5.0, w=26.0, food_median=30.0)
        ins = insert_fingers(scene, c, FingerModel(kind=FingerKind.FIXED))
        assert ins.fingers[1].blocked  # 20 mm > PIERCE_BLOCK, 15 mm

    def test_adaptive_blocked_beyond_budget(self):
        scene = empty_scene(resolution=1.0, tray_dims=(200.0, 200.0, 120.0))
        drop_piece(scene, slab_stamp(25, 25, 30.0), 100.0, 100.0, "fried_chicken")
        drop_piece(scene, slab_stamp(15, 25, 29.0), 121.0, 100.0, "fried_chicken")
        c = candidate(100.0, 100.0, h=5.0, w=26.0, food_median=30.0)
        ins = insert_fingers(scene, c, FingerModel(kind=FingerKind.ADAPTIVE))
        assert ins.fingers[1].blocked  # obstruction 24 mm > 22.5 mm
        assert ins.fingers[1].retraction <= 22.5

    def test_wall_contact_blocks(self):
        scene, _ = lone_piece_scene()
        # grasp close to the x=0 wall: left finger rectangle leaves the tray
        c = candidate(10.0, 100.0, h=5.0, w=20.0, food_median=20.0)
        ins = insert_fingers(scene, c, FingerModel())
        assert ins.fingers[0].blocked
        assert not ins.fingers[1].blocked

    def test_adaptive_bounds_on_random_insertions(self):
        rng = np.random.default_rng(0)
        fm = FingerModel()
        for seed in range(5):
            scene = generate_scene(SceneConfig(), seed)
            for _ in range(20):
                c = candidate(
                    rng.uniform(50, 550), rng.uniform(50, 380),
                    theta=rng.uniform(0, math.pi), h=rng.uniform(0, 20),
                    w=rng.uniform(10, 40), food_median=rng.uniform(5, 40),
                )
                ins = insert_fingers(scene, c, fm)
                for fin in ins.fingers:
                    assert fin.retraction <= 22.5
                    for force in fin.contacts.values():
                        assert force <= 4.1 + 1e-12


@pytest.mark.parametrize("size", ["width", "breadth", "clearance"])
def test_finger_longer_than_the_tray_refused(size):
    """insert_fingers, close_and_lift and execute_grasp called from Python
    apply plan's finger bound: a finger size longer than the tray's longer
    side (200 mm here) raises ParameterError and leaves the scene as it
    was; the side itself is accepted."""
    scene, _ = lone_piece_scene()
    before = copy.deepcopy(scene)
    c = candidate(100.0, 100.0, h=5.0, w=30.0, food_median=20.0)
    ins = insert_fingers(scene, c, FingerModel())
    too_long = FingerModel(geometry=FingerGeometry(**{size: 200.5}))
    message = f"finger {size} of 200.5 mm is longer than the tray's 200.0 mm side"
    with pytest.raises(ParameterError, match=message):
        insert_fingers(scene, c, too_long)
    with pytest.raises(ParameterError, match=message):
        close_and_lift(scene, c, ins, too_long)
    with pytest.raises(ParameterError, match=message):
        execute_grasp(scene, c, too_long)
    assert list(scene.pieces) == list(before.pieces) and not any(p.damaged for p in scene.pieces.values())
    assert (scene.heightmap == before.heightmap).all() and (scene.owner_map == before.owner_map).all()
    insert_fingers(scene, c, FingerModel(geometry=FingerGeometry(**{size: 200.0})))


class TestCloseAndLift:
    def test_parameters_checked(self):
        """A finger kind given as a string used to run as adaptive."""
        scene, _ = lone_piece_scene()
        c = candidate(100.0, 100.0, h=5.0, w=30.0, food_median=20.0)
        ins = insert_fingers(scene, c, FingerModel())
        with pytest.raises(ParameterError, match="kind"):
            close_and_lift(scene, c, ins, FingerModel(kind="fixed"))

    def test_lone_piece_success_single(self):
        scene, piece = lone_piece_scene(thickness=20.0)
        c = candidate(100.0, 100.0, h=10.0, w=30.0, food_median=20.0,
                      instance_id=piece.id)
        fm = FingerModel()
        ins = insert_fingers(scene, c, fm)
        out = close_and_lift(scene, c, ins, fm)
        assert out.classification is Classification.SUCCESS_SINGLE
        assert out.picked == [piece.id]

    def test_blocked_finger_fails(self):
        scene = empty_scene(resolution=1.0, tray_dims=(200.0, 200.0, 120.0))
        target = drop_piece(scene, slab_stamp(25, 25, 30.0), 100.0, 100.0,
                            "fried_chicken")
        drop_piece(scene, slab_stamp(15, 25, 25.0), 121.0, 100.0, "fried_chicken")
        c = candidate(100.0, 100.0, h=5.0, w=26.0, food_median=30.0,
                      instance_id=target.id)
        fm = FingerModel(kind=FingerKind.FIXED)
        ins = insert_fingers(scene, c, fm)
        out = close_and_lift(scene, c, ins, fm)
        assert out.classification is Classification.FAILURE
        assert out.picked == []

    def test_shallow_insertion_fails_capture(self):
        scene, piece = lone_piece_scene(thickness=20.0)
        # bottoms at 18 mm, above food_median - 5 = 15 mm
        c = candidate(100.0, 100.0, h=18.0, w=30.0, food_median=20.0,
                      instance_id=piece.id)
        fm = FingerModel()
        ins = insert_fingers(scene, c, fm)
        out = close_and_lift(scene, c, ins, fm)
        assert out.classification is Classification.FAILURE

    def test_two_adjacent_pieces_multi_pick(self):
        scene = empty_scene(resolution=1.0, tray_dims=(200.0, 200.0, 120.0))
        a = drop_piece(scene, slab_stamp(11, 17, 20.0), 96.0, 100.0, "fried_chicken")
        b = drop_piece(scene, slab_stamp(11, 17, 20.0), 106.0, 100.0, "fried_chicken")
        c = candidate(101.0, 100.0, h=5.0, w=26.0, food_median=20.0,
                      instance_id=a.id)
        fm = FingerModel()
        ins = insert_fingers(scene, c, fm)
        out = close_and_lift(scene, c, ins, fm)
        assert out.classification is Classification.SUCCESS_MULTIPLE
        assert sorted(out.picked) == [a.id, b.id]

    def test_closure_sweep_damages_fragile_bystander(self):
        scene = empty_scene(resolution=1.0, tray_dims=(200.0, 200.0, 120.0))
        target = drop_piece(scene, slab_stamp(21, 21, 30.0), 100.0, 100.0, "gyoza")
        # bystander inside the outer corridor but not captured (tiny overlap
        # with the jaw, tall enough to be swept during closing)
        bystander = drop_piece(scene, slab_stamp(9, 41, 28.0), 119.0, 100.0, "gyoza")
        c = candidate(100.0, 100.0, h=5.0, w=24.0, food_median=30.0,
                      instance_id=target.id)
        fm = FingerModel(kind=FingerKind.FIXED)
        ins = insert_fingers(scene, c, fm)
        out = close_and_lift(scene, c, ins, fm)
        assert bystander.id not in out.picked
        # gyoza damage_tolerance 1 mm; the bystander stands far above the bottoms
        assert bystander.id in out.damaged

    @pytest.mark.parametrize("pieces", [0, 1])
    def test_the_floor_is_never_captured(self, pieces):
        """Id 0 used to be scored by the floor's share inside the jaw, so a
        grasp on it could succeed and pick [0]."""
        scene = (lone_piece_scene()[0] if pieces
                 else empty_scene(resolution=1.0, tray_dims=(200.0, 200.0, 120.0)))
        c = candidate(100.0, 100.0, h=5.0, w=30.0, food_median=20.0, instance_id=0)
        out = execute_grasp(scene, c, FingerModel())
        assert (out.classification, out.picked) == (Classification.FAILURE, [])
        assert len(scene.pieces) == pieces


class TestExecuteGrasp:
    def scene_and_plan(self, seed=3):
        scene = generate_scene(SceneConfig(), seed)
        depth = render_depth(scene)
        masks = render_masks(scene)
        p = plan(masks, depth, scene.archetypes["fried_chicken"])
        return scene, p

    def test_success_removes_picked_pieces(self):
        scene, p = self.scene_and_plan()
        before = len(scene.pieces)
        out = execute_grasp(scene, p.target, FingerModel())
        assert len(scene.pieces) == before - len(out.picked)
        for pid in out.picked:
            assert pid not in scene.pieces
            assert not (scene.owner_map == pid).any()

    def test_failure_leaves_registry_intact(self):
        scene = empty_scene(resolution=1.0, tray_dims=(200.0, 200.0, 120.0))
        target = drop_piece(scene, slab_stamp(25, 25, 30.0), 100.0, 100.0,
                            "fried_chicken")
        drop_piece(scene, slab_stamp(15, 25, 25.0), 121.0, 100.0, "fried_chicken")
        heightmap = scene.heightmap.copy()
        c = candidate(100.0, 100.0, h=5.0, w=26.0, food_median=30.0,
                      instance_id=target.id)
        out = execute_grasp(scene, c, FingerModel(kind=FingerKind.FIXED))
        assert out.classification is Classification.FAILURE
        assert len(scene.pieces) == 2
        np.testing.assert_array_equal(scene.heightmap, heightmap)

    def test_heightmap_never_increases(self):
        scene, p = self.scene_and_plan(seed=7)
        before = scene.heightmap.copy()
        execute_grasp(scene, p.target, FingerModel())
        assert (scene.heightmap <= before + 1e-12).all()

    def test_damaged_bystanders_keep_flags(self):
        scene = empty_scene(resolution=1.0, tray_dims=(200.0, 200.0, 120.0))
        target = drop_piece(scene, slab_stamp(21, 21, 30.0), 100.0, 100.0, "gyoza")
        bystander = drop_piece(scene, slab_stamp(9, 41, 28.0), 119.0, 100.0, "gyoza")
        c = candidate(100.0, 100.0, h=5.0, w=24.0, food_median=30.0,
                      instance_id=target.id)
        execute_grasp(scene, c, FingerModel(kind=FingerKind.FIXED))
        assert scene.pieces[bystander.id].damaged
        assert scene.pieces[bystander.id].damage_magnitude > 0

    def test_adaptive_damage_never_exceeds_fixed(self):
        # rule-level dominance when fragility_force >= stiffness * tolerance
        for seed in range(8):
            scene_a, p = self.scene_and_plan(seed=seed + 20)
            if p.target is None:
                continue
            scene_f = copy.deepcopy(scene_a)
            out_a = execute_grasp(scene_a, p.target, FingerModel(kind=FingerKind.ADAPTIVE))
            out_f = execute_grasp(scene_f, p.target, FingerModel(kind=FingerKind.FIXED))
            arch = DEFAULT_ARCHETYPES["fried_chicken"]
            if arch.fragility_force >= MAX_FORCE / RETRACTION_BUDGET * arch.damage_tolerance:
                assert len(out_a.damaged) <= len(out_f.damaged)

    def test_fixed_outcome_ignores_spring_fields(self, monkeypatch):
        scene, p = self.scene_and_plan(seed=5)
        scene_b = copy.deepcopy(scene)
        out_b = execute_grasp(scene_b, p.target, FingerModel(kind=FingerKind.FIXED))
        monkeypatch.setattr(graspsim, "RETRACTION_BUDGET", 1.0)
        monkeypatch.setattr(graspsim, "MAX_FORCE", 99.0)
        out_a = execute_grasp(scene, p.target, FingerModel(kind=FingerKind.FIXED))
        assert out_a.classification == out_b.classification
        assert out_a.picked == out_b.picked


def assert_same_tray(a, b):
    np.testing.assert_array_equal(a.heightmap, b.heightmap)
    np.testing.assert_array_equal(a.owner_map, b.owner_map)
    assert a.pieces == b.pieces  # ids, damage flags and magnitudes; the stamps are shared


def one_step_grasp(scene, c, fm):
    """The reference grasp, in one step: insert_fingers and close_and_lift
    each rasterizing their own rectangles, then damage flags, removal and a
    recompose of the whole raster."""
    outcome = close_and_lift(scene, c, insert_fingers(scene, c, fm), fm)
    for pid, magnitude in outcome.damaged.items():
        if pid in scene.pieces and pid not in outcome.picked:
            scene.pieces[pid].damaged = True
            scene.pieces[pid].damage_magnitude = max(scene.pieces[pid].damage_magnitude, magnitude)
    for pid in outcome.picked:
        scene.pieces.pop(pid, None)
    recompose(scene)
    return outcome


@pytest.mark.parametrize("finger", list(FingerKind), ids=lambda f: f.value)
@pytest.mark.parametrize("archetype", sorted(DEFAULT_ARCHETYPES))
def test_outcome_and_update_equal_the_one_step_grasp(archetype, finger):
    """grasp_outcome (one rasterization of both contacts, the jaw and the
    sweep) leaves the scene as it was and gives the one-step grasp's
    outcome; apply_outcome then leaves the maps and flags it leaves. Every
    fourth candidate of two unfiltered trays is grasped, and each grasp
    starts from the tray the last one left."""
    fm = FingerModel(kind=finger)
    grasps = changed = 0
    for seed in (0, 1):
        scene = generate_scene(SceneConfig(archetype=archetype), seed)
        p = plan(render_masks(scene), render_depth(scene), scene.archetypes[archetype], fm.geometry, False)
        for c in p.candidates[::4]:
            before = copy_scene(scene)
            outcome = grasp_outcome(scene, c, fm)
            assert_same_tray(scene, before)
            assert outcome == one_step_grasp(before, c, fm)
            apply_outcome(scene, outcome)
            assert_same_tray(scene, before)
            grasps += 1
            changed += bool(outcome.picked or outcome.damaged)
    assert grasps >= 10 and changed >= 3


@pytest.mark.xfail(strict=True, reason="filter_grasps drops a candidate only when a contact rectangle misses "
                   "the raster entirely, while insert_fingers blocks a finger with any corner past it")
def test_filter_keeps_no_grasp_the_tray_wall_blocks():
    """On dense mushroom trays, no candidate filter_grasps retains has a
    finger blocked by the tray wall (blocked with no piece contact)."""
    fm = FingerModel(kind=FingerKind.FIXED)
    walled = []
    for seed in range(3):
        scene = generate_scene(SceneConfig(archetype="mushroom"), seed)
        depth = render_depth(scene)
        p = plan(render_masks(scene), depth, scene.archetypes["mushroom"], fm.geometry, filtering_enabled=False)
        walled += [(seed, c.instance_id) for c in filter_grasps(p.candidates, depth, fm.geometry)
                   if any(f.blocked and not f.contacts for f in insert_fingers(scene, c, fm).fingers)]
    assert walled == []
