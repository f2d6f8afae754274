"""Config values: the dataclasses own every default, type and range.

Each bad value must be rejected with ParameterError both when it arrives in
a JSON document and when it is set through the Python constructors.
"""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from traypick.archetypes import DEFAULT_ARCHETYPES
from traypick.config import experiment_config_from_document, load_experiment_config
from traypick.errors import ParameterError
from traypick.experiment import FRESH, ExperimentConfig, run_experiment, run_trial
from traypick.graspsim import FingerKind, insert_fingers
from traypick.perception import CorruptionParams, corrupt_masks, render_depth, render_masks
from traypick.planner import FINGER_BREADTH, plan
from traypick.scenegen import (MAX_RASTER_SIDE, SceneConfig, empty_scene, generate_scene, load_scene,
                               mm_per_pixel, raster_shape, save_scene)


def lone_peak_scene(peak):
    """A 1-px scene whose one height is peak mm."""
    scene = empty_scene(tray_dims=(1.0, 1.0, 10.0), resolution=1.0)
    scene.heightmap[0, 0] = peak
    return scene


# One row per type or range constraint on a config value:
# (document section or None for top level, key, bad value).
CONSTRAINTS = [
    (None, "archetype", 3),
    (None, "finger", "sideways"),
    (None, "filtering", "no"),
    (None, "n_attempts", 2.5),
    (None, "n_attempts", 0),
    (None, "base_seed", 1.5),
    (None, "base_seed", -5),
    (None, "refill_policy", "sometimes"),
    (None, "output_dir", 5),
    ("depth", "sigma", "0.5"),
    ("depth", "sigma", -0.1),
    ("depth", "quant", True),
    ("depth", "quant", -0.25),
    ("corruption", "boundary_jitter", 1.5),
    ("corruption", "boundary_jitter", -1),
    ("corruption", "boundary_jitter", 100000),
    ("corruption", "merge_prob", "0.2"),
    ("corruption", "merge_prob", -0.1),
    ("corruption", "merge_prob", 1.5),
    ("corruption", "drop_prob", None),
    ("corruption", "drop_prob", -0.5),
    ("corruption", "drop_prob", 2),
    ("scene", "tray_dims", "424x308x160"),
    ("scene", "tray_dims", [424.0, "308", 160.0]),
    ("scene", "tray_dims", [424.0, 0.0, 160.0]),
    ("scene", "tray_dims", [424.0, 308.0]),
    ("scene", "tray_dims", [424.0, 308.0, 160.0, 1.0]),
    ("scene", "resolution", "fine"),
    ("scene", "resolution", 0.0),
    ("scene", "resolution", 0.01),  # a 30800 x 42400 px raster, 9.7 GiB of heights
    ("scene", "tray_dims", [424.0, 3080.0, 160.0]),  # 4358 px high at 600 px wide
    ("scene", "tray_dims", [424.0, 0.2, 160.0]),  # 0 px high at 600 px wide
    ("scene", "resolution", 1000.0),  # a 0 x 0 px raster
]
# NaN compares false with every bound, so each bounded real field gets a row.
NAN = float("nan")
CONSTRAINTS += [
    ("depth", "sigma", NAN),
    ("depth", "quant", NAN),
    ("corruption", "merge_prob", NAN),
    ("corruption", "drop_prob", NAN),
    ("scene", "tray_dims", [424.0, NAN, 160.0]),
    ("scene", "resolution", NAN),
]
# Infinity passes every lower bound, so each real field with no infinite
# meaning gets a row.
INF = float("inf")
CONSTRAINTS += [
    ("depth", "sigma", INF),
    ("depth", "quant", INF),
    ("scene", "tray_dims", [424.0, INF, 160.0]),
    ("scene", "resolution", INF),
]

# Constraints on the document's shape, which no Python value mirrors.
DOCUMENT_ONLY = [
    [],
    {"depth": []},
    {"corruption": "none"},
    {"finger_geometry": 3},
    {"scene": []},
    {"scene": {"archetypes_path": 5}},
]


def row_id(row):
    section, key, value = row
    return f"{section + '.' if section else ''}{key}={value!r}"


def document(section, key, value) -> dict:
    return {key: value} if section is None else {section: {key: value}}


def python_config(section, key, value) -> ExperimentConfig:
    if section is None:
        return ExperimentConfig(**{key: value})
    if section == "depth":
        return ExperimentConfig(**{f"depth_{key}": value})
    if section == "scene":
        return ExperimentConfig(scene=SceneConfig(**{key: value}))
    return ExperimentConfig(corruption=CorruptionParams(**{key: value}))


# Values that became constants: a document that still sets one is refused as
# an unknown key, whatever the value.
RETIRED = [
    ("scene", "max_placement_retries", 2.5),
    ("scene", "max_placement_retries", 0),
    ("execution", "pierce_block", "15"),
    ("execution", "pierce_block", 0),
    ("execution", "pierce_block", NAN),
    ("execution", "grasp_depth_margin", None),
    ("execution", "grasp_depth_margin", -1.0),
    ("execution", "grasp_depth_margin", NAN),
    ("execution", "grasp_depth_margin", INF),
    ("execution", "capture_fraction", "0.6"),
    ("execution", "capture_fraction", -0.1),
    ("execution", "capture_fraction", 1.5),
    ("execution", "capture_fraction", NAN),
    ("execution", "multipick_fraction", True),
    ("execution", "multipick_fraction", -0.5),
    ("execution", "multipick_fraction", 1.2),
    ("execution", "multipick_fraction", NAN),
    ("finger_geometry", "width", "4"),
    ("finger_geometry", "width", 0),
    ("finger_geometry", "width", 425.0),
    ("finger_geometry", "width", NAN),
    ("finger_geometry", "width", INF),
    ("finger_geometry", "breadth", False),
    ("finger_geometry", "breadth", -20.0),
    ("finger_geometry", "breadth", 3000.0),
    ("finger_geometry", "breadth", NAN),
    ("finger_geometry", "breadth", INF),
    ("finger_geometry", "clearance", [2.0]),
    ("finger_geometry", "clearance", 0.0),
    ("finger_geometry", "clearance", 425.0),
    ("finger_geometry", "clearance", NAN),
    ("finger_geometry", "clearance", INF),
]


@pytest.mark.parametrize("row", CONSTRAINTS + RETIRED, ids=row_id)
def test_bad_value_rejected_in_document(row):
    with pytest.raises(ParameterError):
        experiment_config_from_document(document(*row))


@pytest.mark.parametrize("row", CONSTRAINTS, ids=row_id)
def test_bad_value_rejected_in_python_api(row):
    cfg = python_config(*row)
    with pytest.raises(ParameterError):
        cfg.validate()


def test_nan_literal_in_config_file_rejected(tmp_path):
    """json accepts the NaN literal, so a config file can carry one."""
    path = tmp_path / "config.json"
    path.write_text('{"corruption": {"merge_prob": NaN}, "depth": {"sigma": NaN}}')
    with pytest.raises(ParameterError, match="must be >= 0"):
        load_experiment_config(path)


def test_infinity_literal_in_config_file_rejected(tmp_path):
    """json accepts the Infinity literal too; infinite depth noise turned
    every height into NaN and every attempt into a silent no-target."""
    for key in ("sigma", "quant"):
        path = tmp_path / f"{key}.json"
        path.write_text(f'{{"n_attempts": 3, "depth": {{"{key}": Infinity}}}}')
        with pytest.raises(ParameterError, match=f"depth_{key} must be finite"):
            load_experiment_config(path)


@pytest.mark.parametrize("sigma, quant", [(INF, 0.0), (0.0, INF), (INF, INF), (-INF, 0.0),
                                          (0.0, -INF), (0.5, INF)])
def test_render_depth_rejects_infinite_noise_and_quantization(sigma, quant):
    """Each value is checked on its own, sigma first: -inf breaks its lower
    bound, +inf its finiteness."""
    scene = generate_scene(SceneConfig(), 0)
    name, bad = ("sigma", sigma) if math.isinf(sigma) else ("quant", quant)
    with pytest.raises(ParameterError, match=f"{name} must be {'>= 0' if bad < 0 else 'finite'}, got {bad}"):
        render_depth(scene, sigma=sigma, quant=quant, rng=np.random.default_rng(0))


@pytest.mark.parametrize("key", ["sigma", "quant"])
@pytest.mark.parametrize("bad", [True, "0.5"], ids=repr)
def test_render_depth_rejects_noise_that_is_not_a_number(key, bad):
    """sigma True used to run as sigma 1, and "0.5" raised TypeError."""
    scene = generate_scene(SceneConfig(), 0)
    with pytest.raises(ParameterError, match=f"{key} must be a number"):
        render_depth(scene, rng=np.random.default_rng(0), **{key: bad})


def test_confidence_floor_is_an_unknown_key():
    """The bound on the emulated detector scores is gone; they are drawn in
    [0.5, 1]. A config that still sets it is refused, not silently ignored."""
    with pytest.raises(ParameterError, match="config corruption has unknown key 'confidence_floor'"):
        experiment_config_from_document({"corruption": {"confidence_floor": 0.5}})


def test_nan_rejected_by_unconfigured_bounds():
    scene = generate_scene(SceneConfig(), 0)
    with pytest.raises(ParameterError):
        render_depth(scene, sigma=NAN, rng=np.random.default_rng(0))


@pytest.mark.parametrize("doc", DOCUMENT_ONLY, ids=repr)
def test_bad_document_shape_rejected(doc):
    with pytest.raises(ParameterError):
        experiment_config_from_document(doc)


@pytest.mark.parametrize(
    "doc",
    [{"n_attempts": 3.0}, {"base_seed": 9.0}, {"corruption": {"boundary_jitter": 1.0}}],
    ids=repr,
)
def test_integer_key_rejects_integral_float(doc):
    """Integer fields take JSON integers only; 3.0 used to pass and then fail
    with TypeError inside the campaign, or run as 1 for boundary_jitter."""
    with pytest.raises(ParameterError, match="must be an integer"):
        experiment_config_from_document(doc)


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"depth": {"noise": 1.0}}, "noise"),
        ({"corruption": {"merge": 0.1}}, "merge"),
        ({"finger_geometry": {"width": 4.0}}, "finger_geometry"),
        ({"execution": {"capture_fraction": 0.7}}, "execution"),
        ({"scene": {"archetypes": {}}}, "archetypes"),
        ({"scene": {"archetype": "gyoza"}}, "archetype"),
    ],
)
def test_unknown_key_named(doc, key):
    with pytest.raises(ParameterError, match=key):
        experiment_config_from_document(doc)


class TestDefaults:
    def test_empty_document_is_the_dataclass_defaults(self):
        assert experiment_config_from_document({}) == ExperimentConfig(scene=SceneConfig())

    def test_full_document_builds_the_equal_config(self):
        doc = {
            "archetype": "gyoza",
            "finger": "fixed",
            "filtering": False,
            "n_attempts": 7,
            "base_seed": 3,
            "refill_policy": FRESH,
            "output_dir": "out",
            "depth": {"sigma": 0.5, "quant": 0.25},
            "corruption": {"boundary_jitter": 1, "merge_prob": 0.2, "drop_prob": 0.1},
            "scene": {"tray_dims": [400, 300, 150], "resolution": 0.7},
        }
        assert experiment_config_from_document(doc) == ExperimentConfig(
            archetype="gyoza",
            finger=FingerKind.FIXED,
            filtering=False,
            n_attempts=7,
            base_seed=3,
            refill_policy=FRESH,
            output_dir="out",
            depth_sigma=0.5,
            depth_quant=0.25,
            corruption=CorruptionParams(1, 0.2, 0.1),
            scene=SceneConfig(archetype="gyoza", tray_dims=(400, 300, 150), resolution=0.7),
        )

    def test_section_defaults_are_valid(self):
        for cfg in (ExperimentConfig(), SceneConfig()):
            cfg.validate()
        CorruptionParams().validate((436, 600))


def planned_scene(seed=0):
    arch = dataclasses.replace(DEFAULT_ARCHETYPES["fried_chicken"], count_range=(3, 6))
    scene = generate_scene(SceneConfig(archetypes={"fried_chicken": arch}), seed)
    p = plan(render_masks(scene), render_depth(scene), arch)
    assert p.target is not None
    return scene, p.target


class TestSilentMisconfigurations:
    """Values that used to run as something other than what they said."""

    def test_merge_prob_above_one(self):
        scene = generate_scene(SceneConfig(), 0)
        with pytest.raises(ParameterError, match="merge_prob"):
            corrupt_masks(render_masks(scene), CorruptionParams(merge_prob=1.5),
                          np.random.default_rng(0))
        with pytest.raises(ParameterError, match="merge_prob"):
            run_trial(ExperimentConfig(corruption=CorruptionParams(merge_prob=1.5)), 0)

    def test_archetype_without_a_centre_pixel(self):
        """An archetype built without validate() whose footprint misses its own
        centre pixel generated an empty tray: every drop was rejected."""
        base = DEFAULT_ARCHETYPES["fried_chicken"]
        for bad in ({"exponent": 0.0}, {"exponent": math.nan}, {"semi_axes_mm": (19.0, math.nan)}):
            arch = dataclasses.replace(base, **bad)
            with pytest.raises(ParameterError, match="footprint"):
                generate_scene(SceneConfig(archetypes={"fried_chicken": arch}), 0)

    def test_zero_placement_retries(self):
        """A budget of 0 generated an empty tray. The budget is now the
        constant MAX_PLACEMENT_RETRIES, and a document that sets it is
        refused."""
        with pytest.raises(ParameterError, match="config scene has unknown key 'max_placement_retries'"):
            experiment_config_from_document({"scene": {"max_placement_retries": 0}})

    def test_jitter_wider_than_the_raster(self):
        """A jitter of 100000 px ran for more than a minute. A jitter above the
        longer side of the raster the scene config gives is refused."""
        scene = SceneConfig(tray_dims=(100.0, 80.0, 50.0), resolution=0.5)  # 160 x 200 px
        ExperimentConfig(scene=scene, corruption=CorruptionParams(boundary_jitter=200)).validate()
        with pytest.raises(ParameterError, match="boundary_jitter must be <= 200"):
            ExperimentConfig(scene=scene, corruption=CorruptionParams(boundary_jitter=201)).validate()

    def test_raster_over_the_side_cap(self):
        """A resolution of 0.01 mm validated and then asked for 9.7 GiB of
        heights (MemoryError). A raster over MAX_RASTER_SIDE px on a side is
        refused, naming both sides, before anything is allocated."""
        with pytest.raises(ParameterError, match="raster of 30800 x 42400 px is over 4096 px on a side"):
            generate_scene(SceneConfig(resolution=0.01), 0)
        SceneConfig(resolution=424.0 / MAX_RASTER_SIDE).validate()  # 2975 x 4096 px

    def test_raster_side_of_zero_px(self, tmp_path):
        """A 0.2-mm tray side validated as a 0 x 600 px raster, and every
        attempt then recorded no-target. A side that rounds to 0 px is
        refused, naming it, by every reader of a tray."""
        message = r"tray_dims\[1\] of 0.2 mm rounds to 0 px"
        scene = SceneConfig(archetype="mushroom", tray_dims=(424.0, 0.2, 160.0))
        with pytest.raises(ParameterError, match=message):
            scene.validate()
        with pytest.raises(ParameterError, match=message):
            ExperimentConfig(archetype="mushroom", scene=scene).validate()
        save_scene(generate_scene(SceneConfig(archetype="mushroom"), 0), tmp_path)
        doc = json.loads((tmp_path / "scene.json").read_text())
        doc["tray_dims"] = [424.0, 0.2, 160.0]
        (tmp_path / "scene.json").write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match=message):
            load_scene(tmp_path)
        with pytest.raises(ParameterError, match=r"tray_dims\[0\] of 424.0 mm rounds to 0 px"):
            SceneConfig(resolution=1000.0).validate()
        SceneConfig(tray_dims=(424.0, 0.36, 160.0)).validate()  # 0.51 px rounds to 1

    @pytest.mark.parametrize("scene, side", [
        ({"tray_dims": [424, 1.01, 160], "resolution": 2.0}, r"tray_dims\[1\] of 1.01 mm is 1 px at 2 mm"),
        ({"tray_dims": [424, 0.8, 160]}, r"tray_dims\[1\] of 0.8 mm is 1 px at 0.7067 mm"),
        ({"tray_dims": [2.5, 300, 160], "resolution": 2.0}, r"tray_dims\[0\] of 2.5 mm is 1 px at 2 mm"),
    ], ids=["1 row at 2 mm", "1 row at 600 px wide", "1 column"])
    @pytest.mark.parametrize("archetype", ["mushroom", "meatball", "fried_chicken"])
    def test_raster_side_of_one_px(self, archetype, scene, side):
        """A tray one raster row or column across validated, and every
        attempt recorded no-target with 0 candidates: every mask's pixels
        share that row or column, so no covariance has full rank. Such a
        tray is refused, naming the side, by the document and by the Python
        config; two rows validate."""
        with pytest.raises(ParameterError, match=side):
            experiment_config_from_document({"archetype": archetype, "scene": scene})
        tray, res = tuple(scene["tray_dims"]), scene.get("resolution")
        with pytest.raises(ParameterError, match=side):
            ExperimentConfig(archetype=archetype, scene=SceneConfig(archetype, tray, res)).validate()
        SceneConfig(archetype, tray, res).validate()  # a scene of it can be generated
        two_px = 2.0 * mm_per_pixel(tray, res)
        wider = tuple(two_px if d < 5 else d for d in tray)
        ExperimentConfig(archetype=archetype, scene=SceneConfig(archetype, wider, res)).validate()

    @pytest.mark.parametrize("scene", [{"resolution": 20}, {"tray_dims": [424000, 300000, 60]}],
                             ids=["resolution 20", "a 424-m tray"])
    def test_pieces_smaller_than_a_fitted_mask(self, scene):
        """A 20-mm resolution, or a 424-m tray on 600 px, validated and then
        recorded no-target on every attempt: no piece's mask reached the
        MIN_FIT_PIXELS (5 px) fit_ellipses needs. A tray on which the
        smallest unjittered piece covers fewer is refused."""
        with pytest.raises(ParameterError, match="smallest 'mushroom' piece covers .* fewer than the 5 px"):
            experiment_config_from_document({"archetype": "mushroom", "scene": scene})

    def test_pieces_around_the_size_floor(self):
        """The smallest mushroom, 8.4 x 7 mm semi-axes, covers 58.8 pi mm^2:
        5 px at 6.0785 mm per pixel. Just inside, two attempts run and plan;
        just outside, the config is refused."""
        doc = {"archetype": "mushroom", "n_attempts": 2, "refill_policy": FRESH}
        cfg = experiment_config_from_document({**doc, "scene": {"resolution": 6.0}})
        records = [run_trial(cfg, i)[0] for i in range(2)]
        assert any(r.candidate_count for r in records)
        with pytest.raises(ParameterError, match="smallest 'mushroom' piece covers 4.94 px"):
            experiment_config_from_document({**doc, "scene": {"resolution": 6.115}})

    def test_depth_step_that_flattens_every_piece(self):
        """depth.quant 1e9 rounded every height to 0 mm, and every attempt
        recorded no-target. A step at which the tallest unjittered peak
        keeps no level, as render_depth rounds, is refused; the next step
        below it validates and runs."""
        arch = DEFAULT_ARCHETYPES["mushroom"]
        peak = arch.dome_ratio * 0.5 * (arch.semi_axes_mm[0] * 1.1 + arch.semi_axes_mm[1] * 1.1)
        assert render_depth(lone_peak_scene(peak), quant=2.0 * peak).heights.max() == 0.0
        for quant in (1e9, 2.0 * peak):
            with pytest.raises(ParameterError, match="rounds the tallest 'mushroom' peak, 8.47 mm, to 0 mm"):
                experiment_config_from_document({"archetype": "mushroom", "depth": {"quant": quant}})
        below = float(np.nextafter(2.0 * peak, 0.0))
        assert render_depth(lone_peak_scene(peak), quant=below).heights.max() == below
        cfg = experiment_config_from_document({"archetype": "mushroom", "refill_policy": FRESH,
                                               "depth": {"quant": below}})
        run_trial(cfg, 0)

    def test_finger_longer_than_the_tray(self):
        """The finger's size is fixed (planner.FINGER_*), and its breadth,
        20 mm, is the largest of the three. A tray whose longer side is
        shorter is refused, by the document and by the Python config; a
        meatball, whose pieces reach 13.86 mm, fits the 19-mm tray, so the
        finger is what refuses it. A 20-mm side is accepted and runs."""
        assert FINGER_BREADTH == 20.0
        message = r"the finger's 20.0 mm breadth is longer than the tray's 19 mm side"
        doc = {"archetype": "meatball", "n_attempts": 2, "refill_policy": FRESH}
        with pytest.raises(ParameterError, match=message):
            experiment_config_from_document({**doc, "scene": {"tray_dims": [19, 15, 50]}})
        with pytest.raises(ParameterError, match=message):
            ExperimentConfig(archetype="meatball", scene=SceneConfig("meatball", (19, 15, 50))).validate()
        SceneConfig("meatball", (19, 15, 50)).validate()  # the pieces fit; the finger does not
        cfg = experiment_config_from_document({**doc, "scene": {"tray_dims": [20, 15, 50]}})
        for i in range(2):
            run_trial(cfg, i)

    def test_filtering_string(self):
        with pytest.raises(ParameterError, match="filtering"):
            run_trial(ExperimentConfig(filtering="no"), 0)

    def test_finger_string(self):
        with pytest.raises(ParameterError, match="finger"):
            run_trial(ExperimentConfig(archetype="gyoza", finger="fixed"), 0)
        scene, target = planned_scene()
        with pytest.raises(ParameterError, match="finger"):
            insert_fingers(scene, target, "fixed")


# ---------------------------------------------------------------------------
# every config that validates runs: configs drawn around each validation bound


def longest_semi_axis(arch):
    return max(arch.semi_axes_mm) * arch.scale_range[1] * (1.0 + arch.jitter)


def size_floor_resolution(arch):
    """The mm per pixel at which the smallest unjittered piece covers 5 px:
    area 4ab Gamma(1 + 1/n)^2 / Gamma(1 + 2/n) of the superellipse."""
    a, b = (s * arch.scale_range[0] for s in arch.semi_axes_mm)
    n = arch.exponent
    return math.sqrt(4.0 * a * b * math.gamma(1.0 + 1.0 / n) ** 2 / math.gamma(1.0 + 2.0 / n) / 5.0)


# a factor at, one ulp either side of, or within 3% of 1
NEAR_ONE = st.one_of(st.sampled_from([1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]),
                     st.floats(0.97, 1.03))
BOUNDS = ["base_seed", "0-px side", "1-px side", "jitter", "semi-axis", "finger", "piece floor", "quantization",
          "raster cap"]


@st.composite
def configs_near_a_bound(draw):
    """(bound, a config of two fresh attempts on one side of that bound or
    the other). Trays are at most 212 x 154 px, so that two attempts stay
    cheap, except at the raster cap, whose configs are only validated."""
    bound = draw(st.sampled_from(BOUNDS))
    names = sorted(DEFAULT_ARCHETYPES)
    if bound == "semi-axis":  # archetypes whose pieces, not the finger, bound the tray
        names = [n for n in names if longest_semi_axis(DEFAULT_ARCHETYPES[n]) > FINGER_BREADTH]
    elif bound == "finger":  # and the other way round
        names = [n for n in names if longest_semi_axis(DEFAULT_ARCHETYPES[n]) < FINGER_BREADTH]
    name = draw(st.sampled_from(names))
    arch = DEFAULT_ARCHETYPES[name]
    f = draw(NEAR_ONE)
    tray, res, extra = [424.0, 308.0, 160.0], 2.0, {}
    if bound == "base_seed":
        extra["base_seed"] = draw(st.integers(-2, 2))
    elif bound == "0-px side":
        tray[draw(st.integers(0, 1))] = 0.5 * res * f
    elif bound == "1-px side":
        tray[draw(st.integers(0, 1))] = 1.5 * res * f
    elif bound == "jitter":
        tray, res = [40.0, 30.0, 50.0], 1.0  # 30 x 40 px
        extra["corruption"] = CorruptionParams(boundary_jitter=draw(st.integers(38, 42)))
    elif bound in ("semi-axis", "finger"):
        side = (longest_semi_axis(arch) if bound == "semi-axis" else FINGER_BREADTH) * f
        tray = [side, side * draw(st.floats(0.5, 1.0)), 50.0]
        if draw(st.booleans()):
            tray[:2] = tray[1::-1]
        res = side / 50.0
    elif bound == "piece floor":
        res = size_floor_resolution(arch) * f
    elif bound == "quantization":
        peak = arch.dome_ratio * 0.5 * (arch.semi_axes_mm[0] + arch.semi_axes_mm[1]) * arch.scale_range[1]
        extra["depth_quant"] = 2.0 * peak * f
    else:  # a longer side of MAX_RASTER_SIDE px, give or take
        if draw(st.booleans()):
            res = 424.0 / MAX_RASTER_SIDE * f
        else:
            tray[1], res = 424.0 / 600.0 * (MAX_RASTER_SIDE + 0.5) * f, None
    scene = SceneConfig(name, tuple(tray), res)
    return bound, ExperimentConfig(archetype=name, n_attempts=2, refill_policy=FRESH, scene=scene, **extra)


@settings(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))
@given(case=configs_near_a_bound())
def test_config_near_a_bound_is_refused_or_runs(case):
    """validate() raises ParameterError, or two fresh attempts run without
    any other exception. At the raster cap only validate()'s verdict is
    checked, so that no raster of thousands of px a side is allocated."""
    bound, cfg = case
    try:
        cfg.validate()
    except ParameterError:
        event(f"{bound}: refused")
        return
    event(f"{bound}: accepted")
    scene = cfg.scene_config()
    if bound == "raster cap":
        assert max(raster_shape(scene.tray_dims, scene.resolution)) <= MAX_RASTER_SIDE
        return
    _, records = run_experiment(cfg)
    assert [r.attempt for r in records] == [0, 1]
