"""Scene generation: stamps, settling, determinism, and scene files."""
import dataclasses
import json
import math

import numpy as np
import pytest

from traypick.archetypes import DEFAULT_ARCHETYPES, FoodArchetype, load_archetypes, save_archetypes
from traypick.config import experiment_config_from_document
from traypick.errors import ParameterError, PlacementError
from traypick.grids import read_pgm16
from traypick.scenegen import (
    DEFAULT_TRAY_DIMS,
    SceneConfig,
    drop_piece,
    empty_scene,
    generate_scene,
    load_scene,
    mm_per_pixel,
    rasterize_stamps,
    recompose,
    save_scene,
    stamp_window,
)


def disk_archetype(radius=15.0, jitter=0.0, dome=0.5):
    return FoodArchetype(
        name="disk",
        semi_axes_mm=(radius, radius),
        exponent=2.0,
        jitter=jitter,
        dome_ratio=dome,
        fragility_force=3.0,
        damage_tolerance=3.0,
        grasp_height_offset=-5.0,
    )


def flat_stamp(side_px, thickness, resolution=1.0):
    """Uniform-thickness square slab for hand-checkable stacking tests."""
    shape = (side_px, side_px)
    stamp = rasterize_stamps([(1.0, 1.0, 2.0, 0.0, 0.0)], resolution)[0]
    stamp.top = np.full(shape, float(thickness))
    stamp.mask = np.ones(shape, dtype=bool)
    return stamp


class TestRasterizeStamp:
    def test_disk_footprint_radius_and_peak(self):
        res = 0.5
        stamp = rasterize_stamps([(15.0, 15.0, 2.0, 7.5, 0.0)], res)[0]
        # area of the rasterized footprint approximates pi r^2
        area_mm2 = stamp.mask.sum() * res * res
        assert area_mm2 == pytest.approx(math.pi * 15.0**2, rel=0.02)
        cy, cx = stamp.center
        assert stamp.top[cy, cx] == pytest.approx(7.5, abs=1e-9)
        assert stamp.top.max() == stamp.top[cy, cx]

    def test_disk_rotation_invariant(self):
        a = rasterize_stamps([(15.0, 15.0, 2.0, 5.0, 0.0)], 0.5)[0]
        b = rasterize_stamps([(15.0, 15.0, 2.0, 5.0, math.pi / 2)], 0.5)[0]
        # disk symmetry: identical footprints up to one pixel of boundary churn
        assert (a.mask ^ b.mask).sum() <= a.mask.shape[0]

    def test_elongated_bounding_box_scales(self):
        res = 0.4
        # semi-axes 40x12 at scale 0.7 -> bbox 56.0 x 16.8 mm
        stamp = rasterize_stamps([(40.0 * 0.7, 12.0 * 0.7, 4.0, 5.0, 0.0)], res)[0]
        rows = np.flatnonzero(stamp.mask.any(axis=1))
        cols = np.flatnonzero(stamp.mask.any(axis=0))
        width_mm = (cols[-1] - cols[0] + 1) * res
        height_mm = (rows[-1] - rows[0] + 1) * res
        assert width_mm == pytest.approx(56.0, abs=2 * res)
        assert height_mm == pytest.approx(16.8, abs=2 * res)

    def test_top_tapers_to_zero_at_boundary(self):
        stamp = rasterize_stamps([(10.0, 8.0, 2.5, 6.0, 0.3)], 0.5)[0]
        assert (stamp.top[~stamp.mask] == 0).all()
        assert stamp.top[stamp.mask].min() >= 0


class TestDropPiece:
    def test_drop_on_empty_tray(self):
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 50.0))
        stamp = rasterize_stamps([(10.0, 10.0, 2.0, 5.0, 0.0)], 1.0)[0]
        piece = drop_piece(scene, stamp, 50.0, 50.0, "mushroom")
        assert piece.rest_height == 0.0
        # ownership covers exactly the footprint (interior heights are > 0)
        owned = scene.owner_map == piece.id
        expected = stamp.top > 0
        assert owned.sum() == expected.sum()

    @pytest.mark.parametrize("name", ["", "tofu"])
    def test_archetype_name_not_in_the_scene_refused(self, name):
        """Two pieces dropped without a name, "" by default, used to make a
        fixed-finger grasp raise KeyError: '' in graspsim._damage, and
        save_scene to write a scene load_scene refuses."""
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 50.0))
        stamp = rasterize_stamps([(10.0, 10.0, 2.0, 5.0, 0.0)], 1.0)[0]
        with pytest.raises(ParameterError, match=f"archetype {name!r}"):
            drop_piece(scene, stamp, 50.0, 50.0, name)
        assert scene.next_id == 1 and not scene.pieces and not scene.heightmap.any()

    def test_stamp_of_another_resolution_refused(self, tmp_path):
        """A nominal mushroom stamp rasterized at the default tray's 424/600
        mm/px and dropped at the centre of a 106-mm tray (0.177 mm/px) used to
        own 753 px, and 12,079 px after save_scene and load_scene, which
        rasterize it again at the scene's resolution. Stamps from
        generate_scene's default tray were dropped the same way."""
        arch = DEFAULT_ARCHETYPES["mushroom"]
        a, b = arch.semi_axes_mm
        shape = (a, b, arch.exponent, arch.dome_ratio * 0.5 * (a + b), 0.0)
        scene = empty_scene(tray_dims=(106.0, 106.0, 160.0))
        default_tray = generate_scene(SceneConfig(archetype="mushroom"), 17)
        for stamp in (rasterize_stamps([shape], mm_per_pixel())[0], default_tray.pieces[1].stamp):
            with pytest.raises(ParameterError, match="mm/px"):
                drop_piece(scene, stamp, 53.0, 53.0, "mushroom")
        assert scene.next_id == 1 and not scene.pieces and not scene.heightmap.any()
        piece = drop_piece(scene, rasterize_stamps([shape], scene.resolution)[0], 53.0, 53.0, "mushroom")
        save_scene(scene, tmp_path)
        owned = np.count_nonzero(scene.owner_map == piece.id)
        assert np.count_nonzero(load_scene(tmp_path).owner_map == piece.id) == owned > 10_000

    def test_stacking_identical_flats(self):
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 50.0))
        stamp = flat_stamp(21, 10.0)
        drop_piece(scene, stamp, 50.0, 50.0, "mushroom")
        second = drop_piece(scene, stamp, 50.0, 50.0, "mushroom")
        assert second.rest_height == pytest.approx(10.0)
        assert scene.heightmap.max() == pytest.approx(20.0)

    def test_rest_height_matches_exhaustive_oracle(self):
        # independent pixel-exhaustive recomputation of the settle rule
        rng = np.random.default_rng(11)
        for trial in range(20):
            scene = empty_scene(resolution=1.0, tray_dims=(120.0, 120.0, 80.0))
            stamps = rasterize_stamps([
                (rng.uniform(6, 18), rng.uniform(6, 18), rng.uniform(2, 4),
                 rng.uniform(3, 12), rng.uniform(0, math.pi))
                for _ in range(4)
            ], 1.0)
            positions = [(rng.uniform(30, 90), rng.uniform(30, 90)) for _ in stamps]
            for stamp, (x, y) in zip(stamps, positions):
                before = scene.heightmap.copy()
                piece = drop_piece(scene, stamp, x, y, "mushroom")
                cy, cx = int(round(y)), int(round(x))
                hy, hx = stamp.center
                expected = 0.0
                for sy in range(stamp.mask.shape[0]):
                    for sx in range(stamp.mask.shape[1]):
                        if not stamp.mask[sy, sx]:
                            continue
                        ty, tx = cy - hy + sy, cx - hx + sx
                        if 0 <= ty < before.shape[0] and 0 <= tx < before.shape[1]:
                            expected = max(expected, before[ty, tx])
                assert piece.rest_height == pytest.approx(expected)

    def test_monotone_composition(self):
        rng = np.random.default_rng(5)
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 80.0))
        for _ in range(10):
            before = scene.heightmap.copy()
            stamp = rasterize_stamps([(8.0, 6.0, 2.0, 4.0, rng.uniform(0, 3))], 1.0)[0]
            drop_piece(scene, stamp, rng.uniform(10, 90), rng.uniform(10, 90), "mushroom")
            assert (scene.heightmap >= before - 1e-12).all()

    def test_out_of_tray_position_rejected(self):
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 50.0))
        stamp = rasterize_stamps([(5.0, 5.0, 2.0, 3.0, 0.0)], 1.0)[0]
        with pytest.raises(PlacementError):
            drop_piece(scene, stamp, 150.0, 50.0, "mushroom")

    def test_no_pixel_in_the_tray_rejected(self):
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 50.0))
        dot = rasterize_stamps([(0.3, 0.3, 2.0, 1.0, 0.0)], 1.0)[0]  # the centre pixel alone
        with pytest.raises(PlacementError, match="clipped footprint is empty"):
            drop_piece(scene, dot, 99.7, 50.0, "mushroom")  # centre in column nx
        with pytest.raises(PlacementError, match="entirely outside"):
            drop_piece(scene, flat_stamp(1, 5.0), 50.0, 99.7, "mushroom")  # a 1 x 1 stamp in row ny
        assert scene.next_id == 1 and not scene.pieces and not scene.heightmap.any()

    def test_stamp_off_the_raster_has_an_empty_window(self):
        """The clipped raster stop used to go negative, and numpy read it from
        the far end of the raster."""
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 50.0))
        stamp = rasterize_stamps([(5.0, 5.0, 2.0, 3.0, 0.0)], 1.0)[0]
        win, st = stamp_window(scene, stamp, (-20.0, -20.0))
        assert scene.heightmap[win].shape == stamp.top[st].shape == (0, 0)

    def test_partial_overlap_with_wall_clips(self):
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 50.0))
        stamp = rasterize_stamps([(10.0, 10.0, 2.0, 5.0, 0.0)], 1.0)[0]
        piece = drop_piece(scene, stamp, 1.0, 50.0, "mushroom")
        owned = (scene.owner_map == piece.id).sum()
        assert 0 < owned < (stamp.top > 0).sum()

    def test_ownership_consistency(self):
        rng = np.random.default_rng(9)
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 80.0))
        pieces = []
        for _ in range(8):
            stamp = rasterize_stamps([(8.0, 8.0, 2.0, 5.0, 0.0)], 1.0)[0]
            pieces.append(drop_piece(scene, stamp, rng.uniform(20, 80), rng.uniform(20, 80), "mushroom"))
        # heightmap = 0 exactly where unowned; owned pixels match the owner's top
        np.testing.assert_array_equal(scene.heightmap == 0, scene.owner_map == 0)


class TestGenerateScene:
    def test_degenerate_count_range(self):
        arch = dataclasses.replace(
            DEFAULT_ARCHETYPES["fried_chicken"], count_range=(1, 1)
        )
        cfg = SceneConfig(archetype="fried_chicken",
                          archetypes={"fried_chicken": arch})
        scene = generate_scene(cfg, 0)
        assert len(scene.pieces) == 1

    def test_deterministic_per_seed(self):
        cfg = SceneConfig()
        a = generate_scene(cfg, 42)
        b = generate_scene(cfg, 42)
        assert a.heightmap.tobytes() == b.heightmap.tobytes()
        assert a.owner_map.tobytes() == b.owner_map.tobytes()

    def test_mean_piece_count_over_seeds(self):
        arch = dataclasses.replace(
            DEFAULT_ARCHETYPES["fried_chicken"], count_range=(10, 60)
        )
        cfg = SceneConfig(archetype="fried_chicken",
                          archetypes={"fried_chicken": arch})
        counts = [len(generate_scene(cfg, s).pieces) for s in range(1000)]
        assert 33.0 <= np.mean(counts) <= 37.0

    def test_unknown_archetype_rejected(self):
        with pytest.raises(ParameterError):
            generate_scene(SceneConfig(archetype="tofu"), 0)

    def test_jitter_stays_within_fraction(self):
        arch = dataclasses.replace(disk_archetype(), jitter=0.2)
        scene = generate_scene(SceneConfig(archetype="disk", archetypes={"disk": arch}), 7)
        assert len(scene.pieces) >= 10
        lo, hi = arch.scale_range
        for piece in scene.pieces.values():
            a, b, peak = (piece.stamp.params[k] for k in ("semi_a", "semi_b", "peak"))
            assert 15.0 * lo * 0.8 <= min(a, b) and max(a, b) <= 15.0 * hi * 1.2
            # the scale draw cancels: the axes differ by their jitters alone,
            # and the dome by its own over the mean axis
            assert 0.8 / 1.2 <= a / b <= 1.2 / 0.8
            assert 0.8 <= peak / (arch.dome_ratio * 0.5 * (a + b)) <= 1.2

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True], ids=repr)
    def test_seed_not_a_nonnegative_integer_rejected(self, seed):
        """Seed -1 used to stop in numpy with ValueError: expected
        non-negative integer."""
        with pytest.raises(ParameterError, match="seed"):
            generate_scene(SceneConfig(), seed)

    def test_default_raster_dimensions(self):
        scene = generate_scene(SceneConfig(), 0)
        assert scene.shape[1] == 600
        assert scene.shape[0] == int(round(308.0 / mm_per_pixel()))
        assert scene.resolution == pytest.approx(DEFAULT_TRAY_DIMS[0] / 600)


class TestSceneFiles:
    def test_save_load_round_trip(self, tmp_path):
        scene = generate_scene(SceneConfig(), 17)
        save_scene(scene, tmp_path / "s")
        loaded = load_scene(tmp_path / "s")
        np.testing.assert_allclose(loaded.heightmap, scene.heightmap, atol=1e-9)
        np.testing.assert_array_equal(loaded.owner_map, scene.owner_map)
        assert sorted(loaded.pieces) == sorted(scene.pieces)

    def test_heightmap_pgm_quantization(self, tmp_path):
        scene = generate_scene(SceneConfig(), 4)
        save_scene(scene, tmp_path / "s")
        from traypick.grids import levels_to_heights, read_pgm16

        levels = read_pgm16(tmp_path / "s" / "heightmap.pgm")
        # stored at 0.01 mm per level
        np.testing.assert_allclose(
            levels_to_heights(levels), scene.heightmap, atol=0.005 + 1e-12
        )

    def test_recompose_reproduces_composition(self):
        scene = generate_scene(SceneConfig(), 23)
        heightmap = scene.heightmap.copy()
        owners = scene.owner_map.copy()
        recompose(scene)
        np.testing.assert_allclose(scene.heightmap, heightmap)
        np.testing.assert_array_equal(scene.owner_map, owners)

    def test_saved_occlusion_flags_come_from_the_owner_map(self, tmp_path):
        """A piece buried by a later drop is saved as fully occluded without a
        recompose: its id is missing from owner_map.pgm. scene.json no
        longer holds a flag, and a file that still does is refused."""
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 80.0))
        buried = drop_piece(scene, rasterize_stamps([(4.0, 4.0, 2.0, 1.0, 0.0)], 1.0)[0], 50.0, 50.0, "mushroom")
        top = drop_piece(scene, rasterize_stamps([(15.0, 15.0, 2.0, 10.0, 0.0)], 1.0)[0], 50.0, 50.0, "mushroom")
        save_scene(scene, tmp_path / "s")
        assert set(np.unique(read_pgm16(tmp_path / "s" / "owner_map.pgm")).tolist()) == {0, top.id}
        path = tmp_path / "s" / "scene.json"
        doc = json.loads(path.read_text())
        doc["pieces"][0]["fully_occluded"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match="pieces\\[0\\] has unknown key 'fully_occluded'"):
            load_scene(tmp_path / "s")

    def test_repeated_piece_id_rejected(self, tmp_path):
        scene = generate_scene(SceneConfig(), 17)
        save_scene(scene, tmp_path)
        path = tmp_path / "scene.json"
        doc = json.loads(path.read_text())
        doc["pieces"].append(dict(doc["pieces"][0]))
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match="duplicate piece id"):
            load_scene(tmp_path)

    @staticmethod
    def edited(tmp_path, edit):
        """A saved seed-17 default tray whose scene.json doc was passed to edit."""
        save_scene(generate_scene(SceneConfig(), 17), tmp_path)
        path = tmp_path / "scene.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return tmp_path

    @pytest.mark.parametrize("bad", [0, -3, 65536, 70000, 2.0, "5", True, None])
    def test_piece_id_outside_16_bits_rejected(self, tmp_path, bad):
        def edit(doc):
            doc["pieces"][0]["id"] = bad
        with pytest.raises(ParameterError, match="piece id"):
            load_scene(self.edited(tmp_path, edit))

    def test_highest_16_bit_id_loads(self, tmp_path):
        def edit(doc):
            doc["pieces"][-1]["id"] = 65535
            doc["next_id"] = 65536
        scene = load_scene(self.edited(tmp_path, edit))
        assert max(scene.pieces) == 65535 and (scene.owner_map == 65535).any()

    def test_appearance_record_rejected(self, tmp_path):
        """scene.json once held an RGB appearance record that no stage read;
        a scene directory that still holds one is regenerated, not read."""
        def edit(doc):
            doc["randomization"] = {"shadows": True}
        with pytest.raises(ParameterError, match="scene.json has unknown key 'randomization'"):
            load_scene(self.edited(tmp_path, edit))

    @pytest.mark.parametrize("next_id", [1, "max", 0, 3.5])
    def test_next_id_not_above_every_id_rejected(self, tmp_path, next_id):
        def edit(doc):
            doc["next_id"] = max(pd["id"] for pd in doc["pieces"]) if next_id == "max" else next_id
        with pytest.raises(ParameterError, match="next_id"):
            load_scene(self.edited(tmp_path, edit))

    @pytest.mark.parametrize("position", [(-20.0, -20.0), (500.0, 10.0), (10.0, 308.0)])
    def test_position_drop_piece_refuses_rejected(self, tmp_path, position):
        """A piece at (-20, -20) mm used to load with the window
        (slice(0, -5), slice(0, -5)), which numpy reads from the far end of
        the raster; the other two loaded silently as well."""
        scene = generate_scene(SceneConfig(), 17)
        with pytest.raises(PlacementError, match="outside tray"):
            drop_piece(scene, scene.pieces[1].stamp, *position, "fried_chicken")

        def edit(doc):
            doc["pieces"][0]["position"] = list(position)
        with pytest.raises(ParameterError, match="piece 1: drop position .* outside tray"):
            load_scene(self.edited(tmp_path, edit))

    @pytest.mark.parametrize("bad", [[10.0], [10.0, "5"], [math.nan, 10.0], 10.0, None])
    def test_malformed_position_rejected(self, tmp_path, bad):
        def edit(doc):
            doc["pieces"][0]["position"] = bad
        with pytest.raises(ParameterError, match="piece 1.* position"):
            load_scene(self.edited(tmp_path, edit))

    @pytest.mark.parametrize("where, key", [("piece", "rest_height"), ("piece", "id"), ("piece", "stamp"),
                                            ("stamp", "peak"), ("scene", "next_id"), ("scene", "pieces")])
    def test_missing_key_rejected(self, tmp_path, where, key):
        def edit(doc):
            del {"scene": doc, "piece": doc["pieces"][0], "stamp": doc["pieces"][0]["stamp"]}[where][key]
        with pytest.raises(ParameterError, match=f"missing {key}"):
            load_scene(self.edited(tmp_path, edit))

    # A piece's "scale" is no longer a key: a file that still holds one is
    # refused as holding an unknown key, whatever its value.
    SCENE_NUMBERS = [["tray_dims", 0], ["resolution"], ["seed"], ["pieces", 0, "rest_height"],
                     ["pieces", 0, "scale"], ["pieces", 0, "damage_magnitude"],
                     *(["pieces", 0, "stamp", k] for k in ("semi_a", "semi_b", "exponent", "peak", "rotation"))]

    @staticmethod
    def set_at(doc, path, value):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "1.0"], ids=repr)
    @pytest.mark.parametrize("path", SCENE_NUMBERS, ids=lambda path: ".".join(map(str, path)))
    def test_scene_number_checked(self, tmp_path, path, bad):
        """A NaN stamp semi_a used to raise ValueError, a string rest_height
        UFuncTypeError, and a NaN rest_height or seed loaded."""
        with pytest.raises(ParameterError, match=rf"\b{[k for k in path if isinstance(k, str)][-1]}\b"):
            load_scene(self.edited(tmp_path, lambda doc: self.set_at(doc, path, bad)))

    @pytest.mark.parametrize("path, bad", [
        (["resolution"], 0), (["resolution"], -1.0), (["resolution"], 0.01), (["tray_dims"], [424.0, 308.0]),
        (["seed"], -1),
        (["seed"], 1.5), (["pieces", 0, "stamp", "semi_a"], -19.0), (["pieces", 0, "stamp", "peak"], 0.0),
        (["pieces", 0, "rest_height"], -1.0), (["pieces", 0, "scale"], 0.0), (["pieces", 0, "damaged"], "no"),
        (["pieces", 0, "damage_magnitude"], -0.5),
    ], ids=repr)
    def test_scene_number_range_checked(self, tmp_path, path, bad):
        """Resolution 0 used to raise ZeroDivisionError, -1 numpy's negative
        dimensions and 0.01 MemoryError (a 30800 x 42400 px raster); the
        others loaded."""
        with pytest.raises(ParameterError, match=rf"\b{path[-1]}\b"):
            load_scene(self.edited(tmp_path, lambda doc: self.set_at(doc, path, bad)))

    @pytest.mark.parametrize("name", ["nonexistent", "", None])
    def test_archetype_name_not_in_archetypes_json_rejected(self, tmp_path, name):
        """Every piece renamed "nonexistent" used to load, and the first grasp
        raised KeyError in graspsim._damage."""
        def edit(doc):
            for pd in doc["pieces"]:
                pd["archetype"] = name
        with pytest.raises(ParameterError, match=f"piece 1 archetype {name!r} is not in archetypes.json"):
            load_scene(self.edited(tmp_path, edit))

    @pytest.mark.parametrize("value", [424.5, 848.0])
    @pytest.mark.parametrize("key", ["semi_a", "semi_b"])
    def test_semi_axis_longer_than_the_tray_rejected(self, tmp_path, monkeypatch, key, value):
        """A semi_a of 848 mm, twice the tray's width, used to load as a
        2403 x 2403 px stamp: a stamp's memory grows with the square of its
        semi-axis. It is refused before any stamp is rasterized."""
        scene_dir = self.edited(tmp_path, lambda doc: doc["pieces"][0]["stamp"].update({key: value}))

        def rasterize(*args):
            raise AssertionError("a stamp was rasterized")
        monkeypatch.setattr("traypick.scenegen.rasterize_stamps", rasterize)
        with pytest.raises(ParameterError, match=f"piece 1 stamp {key} must be <= 424"):
            load_scene(scene_dir)

    def test_archetype_longer_than_the_tray_refused_at_generation(self):
        """A sausage tray of 25 x 20 mm generated 41 pieces at seed 3 that
        load_scene then refused (piece 3 semi_a 25.66 mm); sausage pieces
        reach 24 x 1.1 x 1.05 = 27.72 mm, so the config itself is refused."""
        with pytest.raises(ParameterError, match="archetype 'sausage'.*27.72 mm"):
            generate_scene(SceneConfig(archetype="sausage", tray_dims=(25.0, 20.0, 50.0)), 3)

    def test_archetype_within_the_tray_round_trips(self, tmp_path):
        scene = generate_scene(SceneConfig(archetype="sausage", tray_dims=(28.0, 20.0, 50.0)), 3)
        save_scene(scene, tmp_path)
        loaded = load_scene(tmp_path)
        assert sorted(loaded.pieces) == sorted(scene.pieces)
        assert loaded.heightmap.tobytes() == scene.heightmap.tobytes()
        assert loaded.owner_map.tobytes() == scene.owner_map.tobytes()

    def test_misspelt_key_next_to_the_right_one_rejected(self, tmp_path):
        """A piece holding rest_heigth next to rest_height used to load."""
        def edit(doc):
            doc["pieces"][0]["rest_heigth"] = 5.0
        with pytest.raises(ParameterError, match=r"pieces\[0\] has unknown key 'rest_heigth'"):
            load_scene(self.edited(tmp_path, edit))


class TestArchetypeValidation:
    """Every field is checked with check_number; NaN and inf used to pass
    for all but the footprint and jitter fields."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["semi_axes_mm", "exponent", "jitter", "dome_ratio", "fragility_force",
                                       "damage_tolerance", "grasp_height_offset", "scale_range", "count_range"])
    def test_non_finite_field_rejected(self, field, value):
        base = DEFAULT_ARCHETYPES["fried_chicken"]
        old = getattr(base, field)
        arch = dataclasses.replace(base, **{field: (old[0], value) if isinstance(old, tuple) else value})
        with pytest.raises(ParameterError, match=field):
            arch.validate()

    @pytest.mark.parametrize("bad", [{"count_range": (40.5, 100)}, {"count_range": (10, 60, 80)},
                                     {"jitter": 1.0}])
    def test_bad_value_rejected(self, bad):
        with pytest.raises(ParameterError):
            dataclasses.replace(DEFAULT_ARCHETYPES["mushroom"], **bad).validate()

    def test_from_dict_round_trip(self):
        for arch in DEFAULT_ARCHETYPES.values():
            assert FoodArchetype.from_dict(json.loads(json.dumps(arch.to_dict()))) == arch

    @pytest.mark.parametrize("key, value, match", [
        ("colour", "red", "archetype has unknown key 'colour'"),
        ("exponent", None, "missing exponent"),
        ("hardness", "soft", "archetype has unknown key 'hardness'"),
        ("dome_ratio", math.nan, "dome_ratio"),
        ("semi_axes_mm", 19.0, "semi_axes_mm"),
    ])
    def test_from_dict_rejects_with_parameter_error(self, key, value, match):
        """An unknown or missing key (value None) used to raise TypeError or
        KeyError. The hardness class archetypes.json once held is an unknown
        key now: such a file is regenerated, not read."""
        doc = DEFAULT_ARCHETYPES["gyoza"].to_dict()
        doc[key] = value
        if value is None:
            del doc[key]
        with pytest.raises(ParameterError, match=match):
            FoodArchetype.from_dict(doc)

    @pytest.mark.parametrize("doc", [[], {"gyoza": []}, {"dumpling": DEFAULT_ARCHETYPES["gyoza"].to_dict()}])
    def test_load_archetypes_rejects_a_malformed_file(self, tmp_path, doc):
        path = tmp_path / "archetypes.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError):
            load_archetypes(path)

    def test_nan_in_a_config_archetypes_file_rejected(self, tmp_path):
        path = tmp_path / "archetypes.json"
        save_archetypes(DEFAULT_ARCHETYPES, path)
        path.write_text(path.read_text().replace('"dome_ratio": 0.55', '"dome_ratio": NaN'))
        with pytest.raises(ParameterError, match="gyoza: dome_ratio"):
            experiment_config_from_document(
                {"archetype": "gyoza", "scene": {"archetypes_path": "archetypes.json"}}, tmp_path)
