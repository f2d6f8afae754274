"""Depth rendering, masks, corruption, and the mask-agreement metric."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import traypick
from traypick.errors import ParameterError
from traypick.grids import read_pgm16, write_pgm16
from traypick.perception import (
    CorruptionParams,
    InstanceMaskSet,
    agreement,
    corrupt_masks,
    load_depth,
    load_masks,
    render_depth,
    render_masks,
    save_depth,
    save_masks,
)
from traypick.scenegen import (SceneConfig, drop_piece, empty_scene, generate_scene, rasterize_stamps,
                               save_scene)


# jittered, merged masks of a generated tray, one JSON line of
# [id, row start, row stop, column start, column stop, packed pixels] rows
JITTER_RUN = """
import json
import numpy as np
from traypick.perception import CorruptionParams, corrupt_masks, render_masks
from traypick.scenegen import SceneConfig, generate_scene
truth = render_masks(generate_scene(SceneConfig(archetype="mushroom"), 34))
masks = corrupt_masks(truth, CorruptionParams(boundary_jitter=2, merge_prob=0.3),
                      np.random.default_rng(5))
print(json.dumps([[w.id, *(n for s in w.slices for n in (s.start, s.stop)),
                   np.packbits(w.local).tobytes().hex()] for w in masks.windows]))
"""


def square_mask(shape, r0, c0, size):
    m = np.zeros(shape, dtype=bool)
    m[r0 : r0 + size, c0 : c0 + size] = True
    return m


class TestRenderDepth:
    def test_identity_when_noise_free(self):
        scene = generate_scene(SceneConfig(), 1)
        depth = render_depth(scene)
        np.testing.assert_array_equal(depth.heights, scene.heightmap)

    def test_quantization_rounds_half_down(self):
        scene = empty_scene(resolution=1.0, tray_dims=(10.0, 10.0, 50.0))
        scene.heightmap[:] = 12.4
        assert render_depth(scene, quant=1.0).heights[0, 0] == pytest.approx(12.0)
        scene.heightmap[:] = 12.5
        assert render_depth(scene, quant=1.0).heights[0, 0] == pytest.approx(12.0)
        scene.heightmap[:] = 12.6
        assert render_depth(scene, quant=1.0).heights[0, 0] == pytest.approx(13.0)

    def test_noise_mean_within_standard_error(self):
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 50.0))
        scene.heightmap[:] = 30.0
        depth = render_depth(scene, sigma=0.5, rng=np.random.default_rng(0))
        assert depth.heights.mean() == pytest.approx(30.0, abs=0.02)

    def test_noise_requires_rng(self):
        scene = empty_scene(resolution=1.0, tray_dims=(10.0, 10.0, 50.0))
        with pytest.raises(ParameterError):
            render_depth(scene, sigma=0.5)

    @pytest.mark.parametrize("case", ["shape", "float32", "non-contiguous", "read-only", "list", "rng too"])
    def test_bad_noise_refused(self, case):
        """Draws made already must be the heightmap's raster, float64,
        C-contiguous and writable, since they become the output; rng and
        noise are never given together."""
        scene = empty_scene(resolution=1.0, tray_dims=(10.0, 10.0, 50.0))
        good = np.zeros(scene.heightmap.shape)
        kwargs = {"noise": {
            "shape": np.zeros((scene.heightmap.shape[0] + 1, scene.heightmap.shape[1])),
            "float32": good.astype(np.float32),
            "non-contiguous": np.zeros(scene.heightmap.shape[::-1]).T,
            "read-only": np.lib.stride_tricks.as_strided(good, writeable=False),
            "list": good.tolist(),
            "rng too": good,
        }[case]}
        if case == "rng too":
            kwargs["rng"] = np.random.default_rng(0)
        with pytest.raises(ParameterError, match="noise"):
            render_depth(scene, sigma=0.5, **kwargs)
        assert not good.any()

    def test_clamped_at_zero(self):
        scene = empty_scene(resolution=1.0, tray_dims=(50.0, 50.0, 50.0))
        depth = render_depth(scene, sigma=2.0, rng=np.random.default_rng(1))
        assert (depth.heights >= 0).all()

    def test_negative_params_rejected(self):
        scene = empty_scene(resolution=1.0, tray_dims=(10.0, 10.0, 50.0))
        with pytest.raises(ParameterError):
            render_depth(scene, sigma=-1.0)


class TestRenderMasks:
    def test_single_piece_mask_equals_footprint(self):
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 50.0))
        stamp = rasterize_stamps([(10.0, 8.0, 2.0, 5.0, 0.0)], 1.0)[0]
        piece = drop_piece(scene, stamp, 50.0, 50.0, "mushroom")
        masks = render_masks(scene)
        assert masks.ids() == [piece.id]
        np.testing.assert_array_equal(masks.masks[0][1], scene.owner_map == piece.id)

    def test_disjoint_and_complete(self):
        scene = generate_scene(SceneConfig(), 6)
        masks = render_masks(scene)
        union = np.zeros(scene.shape, dtype=bool)
        for _, m in masks.masks:
            assert not (union & m).any()
            union |= m
        np.testing.assert_array_equal(union, scene.owner_map > 0)

    def test_buried_piece_excluded_and_flagged(self, tmp_path):
        """A fully occluded piece is flagged by its absence: no mask, and no
        pixel of the saved owner map."""
        scene = empty_scene(resolution=1.0, tray_dims=(100.0, 100.0, 80.0))
        small = rasterize_stamps([(4.0, 4.0, 2.0, 1.0, 0.0)], 1.0)[0]
        buried = drop_piece(scene, small, 50.0, 50.0, "mushroom")
        big = rasterize_stamps([(15.0, 15.0, 2.0, 10.0, 0.0)], 1.0)[0]
        top = drop_piece(scene, big, 50.0, 50.0, "mushroom")
        masks = render_masks(scene)
        assert masks.ids() == [top.id]
        save_scene(scene, tmp_path)
        assert set(np.unique(read_pgm16(tmp_path / "owner_map.pgm")).tolist()) == {0, top.id}


class TestCorruptMasks:
    def two_touching(self):
        shape = (40, 40)
        a = square_mask(shape, 10, 10, 10)
        b = square_mask(shape, 10, 20, 10)
        return InstanceMaskSet.from_rasters([(1, a), (2, b)], source="ground_truth")

    def test_identity_params(self):
        masks = self.two_touching()
        out = corrupt_masks(masks, CorruptionParams(), np.random.default_rng(0))
        assert out.source == "corrupted"
        assert out.ids() == masks.ids()
        for (_, a), (_, b) in zip(out.masks, masks.masks):
            np.testing.assert_array_equal(a, b)

    def test_drop_all(self):
        out = corrupt_masks(
            self.two_touching(), CorruptionParams(drop_prob=1.0), np.random.default_rng(0)
        )
        assert out.windows == []

    def test_merge_touching_pair(self):
        masks = self.two_touching()
        out = corrupt_masks(
            masks, CorruptionParams(merge_prob=1.0), np.random.default_rng(0)
        )
        assert len(out.masks) == 1
        np.testing.assert_array_equal(
            out.masks[0][1], masks.masks[0][1] | masks.masks[1][1]
        )

    def test_non_adjacent_never_merged(self):
        shape = (40, 40)
        masks = InstanceMaskSet.from_rasters(
            [(1, square_mask(shape, 5, 5, 5)), (2, square_mask(shape, 25, 25, 5))],
            source="ground_truth",
        )
        out = corrupt_masks(masks, CorruptionParams(merge_prob=1.0), np.random.default_rng(0))
        assert len(out.masks) == 2

    def test_jitter_bounded(self):
        masks = self.two_touching()
        for seed in range(10):
            out = corrupt_masks(
                masks, CorruptionParams(boundary_jitter=2), np.random.default_rng(seed)
            )
            for pid, m in out.masks:
                orig = dict(masks.masks)[pid]
                # dilation/erosion by at most 2 px changes the bounding box by <= 2
                assert abs(int(m.sum()) - int(orig.sum())) <= orig.sum() * 3

    def test_jitter_wider_than_the_raster_rejected(self):
        """A jitter of 100000 px on a 600-px raster ran for minutes; above the
        longer side of the masks' raster it is refused."""
        masks = self.two_touching()  # a 40 x 40 raster
        corrupt_masks(masks, CorruptionParams(boundary_jitter=40), np.random.default_rng(0))
        with pytest.raises(ParameterError, match="boundary_jitter must be <= 40"):
            corrupt_masks(masks, CorruptionParams(boundary_jitter=41), np.random.default_rng(0))

    def test_jitter_runs_without_scipy(self, capsys):
        """Boundary jitter needs numpy alone: with every scipy import made to
        fail, a subprocess jitters a tray into the same windows as this one."""
        src = Path(traypick.__file__).resolve().parent.parent
        code = 'import sys; sys.modules["scipy"] = None\n' + JITTER_RUN
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        exec(JITTER_RUN, {})
        in_process = capsys.readouterr().out
        assert len(json.loads(in_process)) > 10
        assert out.stdout == in_process

    def test_requires_ground_truth_source(self):
        masks = self.two_touching()
        masks.source = "corrupted"
        with pytest.raises(ParameterError):
            corrupt_masks(masks, CorruptionParams(), np.random.default_rng(0))

    def test_confidences_respect_floor(self):
        out = corrupt_masks(self.two_touching(), CorruptionParams(boundary_jitter=1), np.random.default_rng(2))
        assert out.ids()
        for pid in out.ids():
            assert 0.5 <= out.confidences[pid] <= 1.0


class TestMaskIou:
    """IoU of one predicted and one true mask, as agreement scores it on
    one-mask sets: 0.1 for each threshold the IoU reaches."""

    @staticmethod
    def score(a, b):
        return agreement(InstanceMaskSet.from_rasters([(1, a)]), InstanceMaskSet.from_rasters([(1, b)]))

    def test_identical(self):
        m = square_mask((20, 20), 5, 5, 10)
        assert self.score(m, m).value == 1.0

    def test_disjoint(self):
        a = square_mask((20, 20), 0, 0, 5)
        b = square_mask((20, 20), 10, 10, 5)
        assert self.score(a, b).value == 0.0

    def test_shifted_square_is_one_third(self):
        # 50 shared pixels of 150 reach no threshold
        a = square_mask((30, 30), 10, 5, 10)
        b = square_mask((30, 30), 10, 10, 10)
        assert all(v == 0.0 for v in self.score(a, b).per_threshold.values())
        # 100 shared pixels of 200: IoU 0.5 exactly reaches the 0.50 threshold and no other
        wide = np.zeros((30, 30), dtype=bool)
        wide[10:20, 5:25] = True
        score = self.score(b, wide)
        assert score.per_threshold[0.50] == 1.0
        assert score.per_threshold[0.55] == 0.0
        assert score.value == 0.1

    def test_both_empty(self):
        z = np.zeros((10, 10), dtype=bool)
        assert self.score(z, z).value == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError, match="mask shape mismatch"):
            self.score(square_mask((5, 5), 1, 1, 2), square_mask((6, 6), 1, 1, 2))

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.random((15, 15)) > 0.2
        b = rng.random((15, 15)) > 0.2
        forward, backward = self.score(a, b), self.score(b, a)
        assert 0.0 < forward.value < 1.0
        assert forward.per_threshold == backward.per_threshold


def fraction_overlap_set(iou_target):
    """Two masks engineered so one prediction hits gt at a chosen IoU."""
    shape = (60, 60)
    gt = square_mask(shape, 10, 10, 10)  # 100 px
    # overlap o of a 100-px square: iou = o / (200 - o)
    o = round(200 * iou_target / (1 + iou_target))
    pred = np.zeros(shape, dtype=bool)
    pred[10 : 10 + 10, 10 + (10 - o // 10) : 10 + (10 - o // 10) + 10] = True
    return pred, gt


class TestAgreement:
    def test_self_agreement_is_one(self):
        scene = generate_scene(SceneConfig(), 2)
        masks = render_masks(scene)
        score = agreement(masks, masks)
        assert score.value == 1.0
        assert all(v == 1.0 for v in score.per_threshold.values())

    def test_disjoint_sets_zero(self):
        shape = (40, 40)
        a = InstanceMaskSet.from_rasters([(1, square_mask(shape, 0, 0, 5))])
        b = InstanceMaskSet.from_rasters([(1, square_mask(shape, 20, 20, 5))])
        assert agreement(a, b).value == 0.0

    def test_single_match_at_iou_062(self):
        # one of two predictions matches gt at IoU ~0.62: precision 0.5 at
        # thresholds 0.50/0.55/0.60, zero above -> score 3 * 0.5 / 10 = 0.15
        shape = (60, 60)
        gt_mask = square_mask(shape, 10, 10, 10)
        # 10x10 square shifted 2 columns, minus 3 overlap pixels:
        # overlap 77, union 120 -> iou ~0.642, between 0.60 and 0.65
        pred_hit = np.zeros(shape, dtype=bool)
        pred_hit[10:20, 12:22] = True
        pred_hit[10:13, 12] = False
        iou = np.count_nonzero(pred_hit & gt_mask) / np.count_nonzero(pred_hit | gt_mask)
        assert 0.60 <= iou < 0.65
        pred_miss = square_mask(shape, 40, 40, 10)
        pred = InstanceMaskSet.from_rasters([(1, pred_hit), (2, pred_miss)])
        gt = InstanceMaskSet.from_rasters([(1, gt_mask)])
        score = agreement(pred, gt)
        assert score.per_threshold[0.50] == 0.5
        assert score.per_threshold[0.60] == 0.5
        assert score.per_threshold[0.65] == 0.0
        assert score.value == pytest.approx(0.15)

    def test_empty_pred_vs_empty_gt(self):
        empty = InstanceMaskSet([], (20, 20))
        assert agreement(empty, empty).value == 1.0

    def test_empty_pred_vs_nonempty_gt(self):
        empty = InstanceMaskSet([], (20, 20))
        gt = InstanceMaskSet.from_rasters([(1, square_mask((20, 20), 5, 5, 5))])
        assert agreement(empty, gt).value == 0.0

    def test_precision_normalizes_by_pred_count(self):
        shape = (40, 40)
        m = square_mask(shape, 5, 5, 8)
        pred = InstanceMaskSet.from_rasters([(1, m), (2, square_mask(shape, 25, 25, 8))])
        gt = InstanceMaskSet.from_rasters([(1, m)])
        assert agreement(pred, gt).value == pytest.approx(0.5)
        # swapping roles changes the normalizer: 1 pred, 1 match -> 1.0
        assert agreement(gt, pred).value == pytest.approx(1.0)

    def test_invariant_under_relabeling(self):
        scene = generate_scene(SceneConfig(), 8)
        masks = render_masks(scene)
        relabeled = InstanceMaskSet.from_rasters(
            [(1000 + i, m) for i, (_, m) in enumerate(reversed(masks.masks))]
        )
        assert agreement(relabeled, masks).value == 1.0

    def test_one_to_one_matching(self):
        # two predictions over one gt: only one can match per threshold
        shape = (40, 40)
        m = square_mask(shape, 5, 5, 10)
        pred = InstanceMaskSet.from_rasters([(1, m), (2, m.copy())])
        gt = InstanceMaskSet.from_rasters([(9, m)])
        assert agreement(pred, gt).value == pytest.approx(0.5)

    @pytest.mark.parametrize("pred_shape, pred_empty, gt_shape, gt_empty", [
        ((20, 20), False, (20, 30), False),
        ((20, 20), True, (20, 30), False),  # read 0.0
        ((20, 20), False, (20, 30), True),  # read 0.0
        ((20, 20), True, (7, 9), True),  # read 1.0
    ], ids=["both-masked", "empty-pred", "empty-gt", "both-empty"])
    def test_shape_mismatch_rejected(self, pred_shape, pred_empty, gt_shape, gt_empty):
        """Sets of different rasters are refused, an empty one too: empty
        sets used to skip the check and score 0 or 1."""
        def mask_set(shape, empty):
            return (InstanceMaskSet([], shape) if empty
                    else InstanceMaskSet.from_rasters([(1, square_mask(shape, 5, 5, 5))]))

        pred, gt = mask_set(pred_shape, pred_empty), mask_set(gt_shape, gt_empty)
        with pytest.raises(ParameterError, match=re.escape(f"mask shape mismatch: {pred_shape} vs {gt_shape}")):
            agreement(pred, gt)


def without(d, key):
    del d[key]


class TestMaskAndDepthFiles:
    def test_empty_set_needs_a_shape(self, tmp_path):
        with pytest.raises(ParameterError, match="needs a shape"):
            InstanceMaskSet.from_rasters([])
        empty = InstanceMaskSet.from_rasters([], shape=(20, 30))
        loaded = load_masks(save_masks(empty, tmp_path))
        assert (loaded.shape, loaded.ids()) == ((20, 30), [])

    def test_rasters_of_another_shape_rejected(self):
        a, b = square_mask((10, 10), 2, 2, 3), square_mask((20, 20), 12, 12, 5)
        with pytest.raises(ParameterError, match=r"mask 2 has shape \(20, 20\)"):
            InstanceMaskSet.from_rasters([(1, a), (2, b)])
        with pytest.raises(ParameterError, match=r"mask 1 has shape \(10, 10\), not \(20, 20\)"):
            InstanceMaskSet.from_rasters([(1, a)], shape=(20, 20))
        assert InstanceMaskSet.from_rasters([(2, b)], shape=[20, 20]).shape == (20, 20)

    def test_repeated_id_rejected(self):
        m = square_mask((10, 10), 2, 2, 3)
        with pytest.raises(ParameterError, match="duplicate instance id 1"):
            InstanceMaskSet.from_rasters([(1, m), (2, m), (1, m)])

    def test_depth_round_trip(self, tmp_path):
        scene = generate_scene(SceneConfig(), 5)
        depth = render_depth(scene)
        save_depth(depth, tmp_path / "d.pgm")
        loaded = load_depth(tmp_path / "d.pgm", scene.resolution)
        np.testing.assert_allclose(loaded.heights, depth.heights, atol=0.005 + 1e-12)

    def test_depth_written_first_creates_its_directory(self, tmp_path):
        depth = render_depth(generate_scene(SceneConfig(), 5))
        path = tmp_path / "fresh" / "scene_5" / "depth.pgm"
        save_depth(depth, path)
        assert [p.name for p in path.parent.iterdir()] == ["depth.pgm"]
        assert load_depth(path, depth.resolution).heights.shape == depth.heights.shape

    def test_depth_header_comment_lines_skipped(self, tmp_path):
        levels = np.arange(12, dtype=np.uint16).reshape(3, 4) * 1000
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n# written by hand\n4 3\n#   another\n65535\n" + levels.astype(">u2").tobytes())
        np.testing.assert_array_equal(read_pgm16(path), levels)

    @pytest.mark.parametrize("edit, match", [
        (lambda raw: b"P2" + raw[2:], "not a binary PGM: magic b'P2'"),
        (lambda raw: raw.replace(b"65535", b"255", 1), r"expected 16-bit PGM \(maxval 65535\), got 255"),
        (lambda raw: raw[:-1], "4 x 3 samples need 24 bytes, the file holds 23"),
        (lambda raw: raw[:13], "4 x 3 samples need 24 bytes, the file holds 0"),
        (lambda raw: raw[:5], r"PGM header needs width, height and maxval, got \[b'4', b'', b''\]"),
        (lambda raw: b"", "not a binary PGM: magic b''"),
        (lambda raw: raw.replace(b"4 3", b"4 -3", 1), "PGM header needs width, height and maxval"),
        (lambda raw: b"P5\n# no end", "PGM header needs width, height and maxval"),
    ], ids=["magic", "maxval", "one byte short", "no samples", "header cut", "empty file",
            "negative height", "unterminated comment"])
    def test_malformed_depth_rejected(self, tmp_path, edit, match):
        path = tmp_path / "d.pgm"
        write_pgm16(path, np.ones((3, 4), dtype=np.uint16))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ParameterError, match=match) as err:
            load_depth(path, 1.0)
        assert str(path) in str(err.value)

    def test_scene_masks_round_trip_as_one_manifest(self, tmp_path):
        scene = generate_scene(SceneConfig(), 5)
        masks = render_masks(scene)
        manifest = save_masks(masks, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [manifest.name]
        loaded = load_masks(manifest)
        assert loaded.ids() == masks.ids()
        assert loaded.shape == scene.shape
        for (_, a), (_, b) in zip(loaded.masks, masks.masks):
            np.testing.assert_array_equal(a, b)

    def test_overlapping_masks_round_trip(self, tmp_path):
        shape = (30, 30)
        a = square_mask(shape, 5, 5, 10)
        b = square_mask(shape, 8, 8, 10)
        masks = InstanceMaskSet.from_rasters([(1, a), (2, b)], source="corrupted",
                                             confidences={1: 0.9, 2: 0.8})
        manifest = save_masks(masks, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [manifest.name]
        loaded = load_masks(manifest)
        assert loaded.source == "corrupted"
        assert loaded.confidences == {1: 0.9, 2: 0.8}
        np.testing.assert_array_equal(loaded.masks[0][1], a)
        np.testing.assert_array_equal(loaded.masks[1][1], b)

    def test_counts_are_coco_rle(self, tmp_path):
        """Hand-computed: column-major run lengths over the whole raster,
        starting with a run of zeros (of length 0 when pixel (0, 0) is set),
        so {"size": size, "counts": counts} is a COCO RLE object."""
        raster = np.array([[1, 0, 0, 1],
                           [0, 0, 1, 1],
                           [1, 1, 1, 0]], dtype=bool)
        # columns read top to bottom: 1 0 1 | 0 0 1 | 0 1 1 | 1 1 0; the run
        # of four ones crosses from the third column into the fourth
        hole = np.zeros((3, 4), dtype=bool)
        hole[1, 1] = True
        wrap = np.zeros((3, 4), dtype=bool)  # one run, bottom of column 0 to top of 1
        wrap[2, 0] = wrap[0, 1] = True
        pairs = [(5, raster), (6, hole), (8, wrap), (7, np.zeros((3, 4), bool))]
        masks = InstanceMaskSet.from_rasters(pairs, confidences={6: 0.25})
        manifest = save_masks(masks, tmp_path)
        assert json.loads(manifest.read_text()) == {
            "source": "ground_truth",
            "size": [3, 4],
            "instances": [
                {"id": 5, "counts": [0, 1, 1, 1, 2, 1, 1, 4, 1]},
                {"id": 6, "counts": [4, 1, 7], "confidence": 0.25},
                {"id": 8, "counts": [2, 2, 8]},
                {"id": 7, "counts": [12]},
            ],
        }
        loaded = load_masks(manifest)
        assert [w.slices for w in loaded.windows] == [w.slices for w in masks.windows]
        assert loaded.windows[2].slices == (slice(0, 3), slice(0, 2))
        for (pid, got), (expected_id, expected) in zip(loaded.masks, pairs):
            assert pid == expected_id
            np.testing.assert_array_equal(got, expected)
        # runs of length 0 anywhere decode to the same tight windows
        manifest.write_text(json.dumps({"source": "external", "size": [3, 4], "instances": [
            {"id": 6, "counts": [0, 0, 4, 1, 0, 0, 7, 0]},
            {"id": 8, "counts": [2, 1, 0, 1, 0, 0, 8]},
        ]}))
        for got, expected in zip(load_masks(manifest).windows, masks.windows[1:3]):
            assert got.slices == expected.slices
            np.testing.assert_array_equal(got.local, expected.local)

    @pytest.mark.parametrize("edit, match", [
        (lambda d: d["instances"][0].update(counts=[-1, 901]), "non-negative integers"),
        (lambda d: d["instances"][0].update(counts=[50.0, 850]), "non-negative integers"),
        (lambda d: d["instances"][0].update(counts=[50, True, 849]), "non-negative integers"),
        (lambda d: d["instances"][0].update(counts="900"), "non-negative integers"),
        (lambda d: d["instances"][0]["counts"].append(1), "summing to h"),
        (lambda d: d["instances"][0].update(counts=[450]), "summing to h"),
        (lambda d: d.update(size=[30]), "size must be"),
        (lambda d: d.update(size=[30, 30.0]), "mask size must be"),
        (lambda d: d.update(size=[30, -30]), "mask size must be"),
        (lambda d: d.update(size=[0, 30]), "mask size must be"),
        (lambda d: d.update(size=[4097, 30]), "mask size must be .* from 1 to 4096"),
        (lambda d: d.update(size=[30, 4097]), "mask size must be .* from 1 to 4096"),
        (lambda d: d.update(size=None), "size must be"),
        (lambda d: d["instances"].append(dict(d["instances"][0])), "duplicate instance id 1"),
        (lambda d: d["instances"][0].update(id="1"), "instance id must be an integer"),
        (lambda d: d["instances"][0].update(id=0), "instance id must be >= 1"),
        (lambda d: d["instances"][0].update(id=-4), "instance id must be >= 1"),
        (lambda d: without(d, "instances"), "mask manifest .* is missing instances"),
        (lambda d: without(d, "size"), "mask manifest .* is missing size"),
        (lambda d: without(d, "source"), "mask manifest .* is missing source"),
        (lambda d: [d], "mask manifest .* must be an object"),
        (lambda d: d.update(instances={"1": d["instances"][0]}), "instances must be a list"),
        (lambda d: without(d["instances"][0], "counts"), r"instances\[0\] is missing counts"),
        (lambda d: without(d["instances"][0], "id"), r"instances\[0\] is missing id"),
        (lambda d: d["instances"].append(7), r"instances\[1\] must be an object"),
        (lambda d: d["instances"][0].update(confidence="high"), "confidence must be a number"),
        (lambda d: d["instances"][0].update(confidence=7.0), r"confidence must be <= 1"),
        (lambda d: d["instances"][0].update(confidence=-0.5), r"confidence must be >= 0"),
        (lambda d: d.update(source="bogus"), "source must be one of"),
    ], ids=["negative count", "float count", "bool count", "counts not a list",
            "counts sum above h*w", "counts sum below h*w", "size of one number",
            "float size", "negative size", "zero size", "tall size", "wide size", "null size", "duplicate ids",
            "string id", "floor id", "negative id", "no instances", "no size", "no source", "top-level list",
            "instances not a list", "entry without counts", "entry without id",
            "entry not an object", "string confidence", "confidence above 1",
            "negative confidence", "unknown source"])
    def test_malformed_manifest_rejected(self, tmp_path, edit, match):
        masks = InstanceMaskSet.from_rasters([(1, square_mask((30, 30), 5, 5, 10))])
        manifest = save_masks(masks, tmp_path)
        doc = json.loads(manifest.read_text())
        doc = edit(doc) or doc  # an edit changes doc in place or returns its replacement
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match=match):
            load_masks(manifest)
