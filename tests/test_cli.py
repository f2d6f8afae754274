"""End-to-end command-line interface tests: every subcommand, file in/out."""
import dataclasses
import json
import re
from pathlib import Path

import pytest

from traypick import cli
from traypick.archetypes import DEFAULT_ARCHETYPES, save_archetypes
from traypick.cli import main
from traypick.config import load_experiment_config
from traypick.errors import ParameterError
from traypick.experiment import compare_conditions, observe
from traypick.graspsim import execute_grasp
from traypick.perception import load_depth, load_masks, save_depth, save_masks
from traypick.planner import candidate_from_dict, plan, plan_to_dict
from traypick.scenegen import generate_scene, load_scene


def write_config(tmp_path, **overrides):
    doc = {
        "archetype": "fried_chicken",
        "n_attempts": 3,
        "base_seed": 100,
        "refill_policy": "fresh_scene_each_attempt",
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def generate_scene_dir(tmp_path, seed=108):
    out = tmp_path / "scenes"
    assert main(["generate", "--seed", str(seed), "--out", str(out), "--count", "1"]) == 0
    return out / f"scene_{seed}"


class TestGenerate:
    def test_writes_scene_depth_and_masks(self, tmp_path, capsys):
        d = generate_scene_dir(tmp_path)
        printed = capsys.readouterr().out.strip()
        assert printed == str(d)
        for name in ("scene.json", "heightmap.pgm", "depth.pgm", "masks_manifest.json"):
            assert (d / name).exists(), name

    def test_count_generates_sequential_seeds(self, tmp_path):
        out = tmp_path / "s"
        assert main(["generate", "--seed", "7", "--out", str(out), "--count", "3"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "scene_7", "scene_8", "scene_9"
        ]

    def test_parallel_jobs_match_serial(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--seed", "7", "--out", str(a), "--count", "2", "--jobs", "2"])
        main(["generate", "--seed", "7", "--out", str(b), "--count", "2"])
        for rel in ("scene_7/scene.json", "scene_8/heightmap.pgm"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    @pytest.mark.parametrize("option, value", [("--count", "-3"), ("--count", "0"), ("--jobs", "0"),
                                               ("--jobs", "-1")])
    def test_count_and_jobs_below_one_rejected(self, tmp_path, option, value):
        """--count -3 used to exit 0 having written nothing, and --jobs 0 ran
        serially."""
        out = tmp_path / "s"
        with pytest.raises(ParameterError, match=f"{option} must be >= 1"):
            main(["generate", "--seed", "7", "--out", str(out), option, value])
        assert not out.exists()

    @pytest.mark.parametrize("jobs, count, workers", [(8, 1, []), (4, 2, [2])])
    def test_pool_starts_no_more_workers_than_scenes(self, tmp_path, monkeypatch, jobs, count, workers):
        """A pool starts all its workers at its first task, so --jobs 8
        --count 1 used to fork 8 processes for one scene. The recorder runs
        the tasks in this process."""
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        out = tmp_path / "s"
        assert main(["generate", "--seed", "7", "--out", str(out), "--count", str(count),
                     "--jobs", str(jobs)]) == 0
        assert started == workers
        assert len(list(out.iterdir())) == count

    def test_corruption_config_writes_corrupted_masks(self, tmp_path):
        cfg = write_config(tmp_path, corruption={"merge_prob": 0.5})
        out = tmp_path / "s"
        main(["generate", "--config", cfg, "--seed", "11", "--out", str(out), "--count", "1"])
        assert (out / "scene_11" / "masks_corrupted_manifest.json").exists()

    def test_files_are_the_observation_stage(self, tmp_path):
        """generate writes what run_trial plans from: the shared observation
        stage's depth, ground-truth masks and corrupted masks for the seed."""
        cfg_path = write_config(tmp_path, depth={"sigma": 0.5, "quant": 0.25},
                                corruption={"boundary_jitter": 1, "merge_prob": 0.3})
        out = tmp_path / "s"
        assert main(["generate", "--config", cfg_path, "--seed", "11", "--out", str(out)]) == 0
        cfg = load_experiment_config(cfg_path)
        depth, masks, corrupted = observe(cfg, generate_scene(cfg.scene_config(), 11), 11)
        assert corrupted is not None
        ref = tmp_path / "ref"
        save_depth(depth, ref / "depth.pgm")
        save_masks(masks, ref, stem="masks")
        save_masks(corrupted, ref, stem="masks_corrupted")
        for name in ("depth.pgm", "masks_manifest.json", "masks_corrupted_manifest.json"):
            assert (out / "scene_11" / name).read_bytes() == (ref / name).read_bytes(), name


def plan_args(d, *extra):
    return ["plan", "--masks", str(d / "masks_manifest.json"), "--depth", str(d / "depth.pgm"),
            *extra]


class TestPlan:
    def test_plan_writes_target_json(self, tmp_path):
        d = generate_scene_dir(tmp_path)
        plan_path = tmp_path / "plan.json"
        rc = main(plan_args(d, "--config", write_config(tmp_path), "--out", str(plan_path)))
        assert rc == 0
        doc = json.loads(plan_path.read_text())
        assert doc["archetype"] == "fried_chicken"
        assert doc["target"] is not None
        assert doc["target"]["instance_id"] in [c["instance_id"] for c in doc["candidates"]]

    def test_no_filter_retains_every_candidate(self, tmp_path):
        """"filtering": false in the config reaches plan; the plan used to
        filter whatever the config said unless --no-filter was given."""
        d = generate_scene_dir(tmp_path)
        (tmp_path / "on").mkdir()
        (tmp_path / "off").mkdir()
        p1, p2 = tmp_path / "on.json", tmp_path / "off.json"
        main(plan_args(d, "--config", write_config(tmp_path / "on"), "--out", str(p1)))
        main(plan_args(d, "--config", write_config(tmp_path / "off", filtering=False),
                       "--out", str(p2)))
        on = json.loads(p1.read_text())
        off = json.loads(p2.read_text())
        assert on["filtering_enabled"] and any(c["filtered"] for c in on["candidates"])
        assert not off["filtering_enabled"]
        assert all(not c["filtered"] for c in off["candidates"])
        assert len(on["candidates"]) == len(off["candidates"])

    def test_custom_archetype_from_config(self, tmp_path):
        dumpling = dataclasses.replace(DEFAULT_ARCHETYPES["gyoza"], name="dumpling")
        save_archetypes({"dumpling": dumpling}, tmp_path / "archetypes.json")
        cfg = write_config(tmp_path, archetype="dumpling",
                           scene={"archetypes_path": "archetypes.json"})
        out = tmp_path / "s"
        assert main(["generate", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
        d = out / "scene_5"
        plan_path = tmp_path / "plan.json"
        assert main(plan_args(d, "--config", cfg, "--out", str(plan_path))) == 0
        doc = json.loads(plan_path.read_text())
        assert doc["archetype"] == "dumpling"
        assert doc["target"] is not None
        # the default set is not consulted once the config names its own
        gyoza = write_config(tmp_path, archetype="gyoza",
                             scene={"archetypes_path": "archetypes.json"})
        with pytest.raises(ParameterError, match="gyoza"):
            main(plan_args(d, "--config", gyoza))

    def test_resolution_follows_the_config_tray(self, tmp_path, capsys):
        """plan reads depth at the config's mm per pixel, as generate drew it;
        it used to assume the default 424-mm tray, and on this 212-mm tray
        gave grasp widths and contact rectangles twice too large."""
        cfg = write_config(tmp_path, archetype="mushroom", scene={"tray_dims": [212, 154, 160]})
        out = tmp_path / "s"
        assert main(["generate", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        d = out / "scene_3"
        args = plan_args(d, "--config", cfg)
        plan_path = tmp_path / "plan.json"
        assert main(args + ["--out", str(plan_path)]) == 0
        resolution = load_scene(d).resolution
        assert resolution == 212 / 600
        expected = plan_to_dict(plan(load_masks(d / "masks_manifest.json"),
                                     load_depth(d / "depth.pgm", resolution),
                                     DEFAULT_ARCHETYPES["mushroom"]))
        assert expected["target"] is not None
        assert json.loads(plan_path.read_text()) == {**expected, "archetype": "mushroom"}
        with pytest.raises(SystemExit):  # the option that overrode it is gone
            main(args + ["--resolution", "0.7"])
        assert "--resolution" in capsys.readouterr().err

    def test_unknown_archetype_rejected(self, tmp_path):
        d = generate_scene_dir(tmp_path)
        with pytest.raises(ParameterError, match="tofu"):
            main(plan_args(d, "--config", write_config(tmp_path, archetype="tofu")))

    def test_truncated_depth_rejected(self, tmp_path):
        d = generate_scene_dir(tmp_path)
        depth = d / "depth.pgm"
        depth.write_bytes(depth.read_bytes()[:-2])
        with pytest.raises(ParameterError, match=r"depth\.pgm: 600 x 436 samples need"):
            main(plan_args(d))

    def test_depth_of_another_tray_rejected(self, tmp_path):
        """A default-tray manifest planned against the 283 x 600 depth of a
        200-mm tray used to give candidates, a target and exit 0."""
        d = generate_scene_dir(tmp_path)
        cfg = write_config(tmp_path, scene={"tray_dims": [424, 200, 160]})
        assert main(["generate", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "narrow")]) == 0
        args = ["plan", "--masks", str(d / "masks_manifest.json"),
                "--depth", str(tmp_path / "narrow" / "scene_3" / "depth.pgm")]
        with pytest.raises(ParameterError, match=r"is 283 x 600 px, the masks' raster 436 x 600 px"):
            main(args)


@pytest.mark.parametrize("command, option", [
    ("plan", ["--archetype", "gyoza"]),
    ("plan", ["--no-filter"]),
    ("plan", ["--seed", "3"]),
    ("grasp", ["--finger", "fixed"]),
    ("grasp", ["--seed", "3"]),
], ids=["plan --archetype", "plan --no-filter", "plan --seed", "grasp --finger", "grasp --seed"])
def test_deleted_options_are_usage_errors(tmp_path, capsys, command, option):
    """Every pipeline value comes from the config document; these options
    kept second copies of the archetype, filtering and finger, and --seed
    was accepted and ignored by plan and grasp."""
    cfg = write_config(tmp_path)
    files = (["--masks", "m.json", "--depth", "d.pgm"] if command == "plan"
             else ["--scene", "s", "--plan", "p.json"])
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, *files, *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_negative_seed_rejected(tmp_path, command):
    """--seed -5 overrode a validated config, and both commands stopped in
    numpy with ValueError: expected non-negative integer."""
    out = tmp_path / "out"
    with pytest.raises(ParameterError, match="base_seed must be >= 0"):
        main([command, "--config", write_config(tmp_path), "--seed", "-5", "--out", str(out)])
    assert not out.exists()


class TestGrasp:
    def run_plan(self, tmp_path, d, cfg):
        plan_path = tmp_path / "plan.json"
        main(plan_args(d, "--config", cfg, "--out", str(plan_path)))
        return plan_path

    def test_success_removes_picked_pieces(self, tmp_path):
        d = generate_scene_dir(tmp_path)
        n_before = len(load_scene(d).pieces)
        cfg = write_config(tmp_path)
        plan_path = self.run_plan(tmp_path, d, cfg)
        out_json = tmp_path / "outcome.json"
        updated = tmp_path / "updated_scene"
        rc = main(["grasp", "--config", cfg, "--scene", str(d), "--plan", str(plan_path),
                   "--out", str(out_json), "--out-scene", str(updated)])
        assert rc == 0
        doc = json.loads(out_json.read_text())
        after = load_scene(updated)
        if doc["classification"].startswith("success"):
            assert len(after.pieces) == n_before - len(doc["picked"])
            for pid in doc["picked"]:
                assert pid not in after.pieces
        else:
            assert len(after.pieces) == n_before

    def test_fixed_finger_from_config(self, tmp_path):
        """"finger": "fixed" in the config reaches grasp; grasp used to run
        the adaptive finger unless --finger was given."""
        d = generate_scene_dir(tmp_path)
        cfg_path = write_config(tmp_path, finger="fixed")
        plan_path = self.run_plan(tmp_path, d, cfg_path)
        out_json = tmp_path / "outcome.json"
        assert main(["grasp", "--config", cfg_path, "--scene", str(d), "--plan", str(plan_path),
                     "--out", str(out_json), "--out-scene", str(tmp_path / "after")]) == 0
        doc = json.loads(out_json.read_text())
        assert all(f["retraction"] == 0.0 for f in doc["insertion"])
        cfg = load_experiment_config(cfg_path)
        candidate = candidate_from_dict(json.loads(plan_path.read_text())["target"])
        expected = execute_grasp(load_scene(d), candidate, cfg.finger)
        assert doc["classification"] == expected.classification.value
        assert doc["picked"] == sorted(expected.picked)
        assert doc["damaged"] == {str(k): v for k, v in sorted(expected.damaged.items())}
        assert [f["contacts"] for f in doc["insertion"]] == [
            {str(k): v for k, v in sorted(f.contacts.items())} for f in expected.insertion.fingers
        ]

    def test_empty_plan_exits_nonzero(self, tmp_path):
        d = generate_scene_dir(tmp_path)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"target": None, "candidates": []}))
        assert main(["grasp", "--scene", str(d), "--plan", str(plan_path)]) == 1

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["target"].update(h=float("nan")), "h must be >= 0, got nan"),
        (lambda doc: doc["target"].update(instance_id=3.5), "instance_id must be an integer"),
        (lambda doc: doc["target"].clear(), "plan candidate is missing instance_id"),
        (lambda doc: doc.update(target=[1]), "plan candidate must be an object"),
        (lambda doc: doc.clear() or [doc], "plan document must be an object"),
        (lambda doc: doc["target"].update(x=1e300), r"target \(1e\+300, .*\) px is off the 600 x 436 px"),
        (lambda doc: doc["target"].update(y=436.0), r"target \(.*, 436.0\) px is off the 600 x 436 px"),
    ], ids=["NaN h", "float instance_id", "no h", "target a list", "document a list", "x 1e300",
            "y at the raster height"])
    def test_bad_plan_document_rejected(self, tmp_path, edit, match):
        d = generate_scene_dir(tmp_path)
        cfg = write_config(tmp_path)
        plan_path = self.run_plan(tmp_path, d, cfg)
        doc = json.loads(plan_path.read_text())
        plan_path.write_text(json.dumps(edit(doc) or doc))
        before = (d / "scene.json").read_bytes()
        with pytest.raises(ParameterError, match=match):
            main(["grasp", "--config", cfg, "--scene", str(d), "--plan", str(plan_path)])
        assert (d / "scene.json").read_bytes() == before


def json_document_case(tmp_path, document):
    """The argv of a command that reads the named JSON document, and its path."""
    cfg = write_config(tmp_path)
    if document == "config":
        return ["experiment", "--config", cfg], Path(cfg)
    if document == "archetypes":
        path = tmp_path / "archetypes.json"
        save_archetypes(DEFAULT_ARCHETYPES, path)
        cfg = write_config(tmp_path, scene={"archetypes_path": str(path)})
        return ["generate", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "out")], path
    d = generate_scene_dir(tmp_path)
    if document == "mask manifest":
        path = d / "masks_manifest.json"
        return ["agreement", str(path), str(path)], path
    plan_path = tmp_path / "plan.json"
    assert main(plan_args(d, "--config", cfg, "--out", str(plan_path))) == 0
    argv = ["grasp", "--config", cfg, "--scene", str(d), "--plan", str(plan_path),
            "--out-scene", str(tmp_path / "after")]
    return argv, plan_path if document == "plan" else d / "scene.json"


@pytest.mark.parametrize("damage", [
    lambda text: text[: len(text) // 2],
    lambda text: b"\xff" + text,
], ids=["truncated", "not UTF-8"])
@pytest.mark.parametrize("document", ["config", "archetypes", "scene", "mask manifest", "plan"])
def test_undecodable_json_document_rejected(tmp_path, document, damage):
    argv, path = json_document_case(tmp_path, document)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ParameterError, match=f"^{re.escape(str(path))} is not a UTF-8 JSON document"):
        main(argv)


class TestExperiment:
    def test_prints_summary_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["experiment", "--config", cfg]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("label,archetype,finger,filtering")
        assert lines[1].startswith("campaign,fried_chicken")

    def test_persists_records(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        main(["experiment", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        records = (out / "records.jsonl").read_text().strip().split("\n")
        assert len(records) == 3

    def test_jobs_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", cfg, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_seed_override_changes_records(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["experiment", "--config", cfg, "--out", str(a), "--seed", "100"])
        main(["experiment", "--config", cfg, "--out", str(b), "--seed", "200"])
        capsys.readouterr()
        ra = (a / "records.jsonl").read_text()
        rb = (b / "records.jsonl").read_text()
        assert ra != rb
        assert '"seed": 100' in ra
        assert '"seed": 200' in rb


class TestCompare:
    def test_grid_and_deltas(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_attempts=2)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        for label in ("adaptive/filter", "adaptive/nofilter", "fixed/filter", "fixed/nofilter"):
            assert label in text
        assert "delta_adaptive" in text and "delta_fixed" in text
        assert (out / "comparison.csv").read_text() == text

    def test_matches_the_python_api(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_attempts=2, finger="fixed", filtering=False)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "cli")]) == 0
        capsys.readouterr()
        base = load_experiment_config(cfg)
        base.output_dir = str(tmp_path / "api")
        csv_text, grid = compare_conditions(base)
        assert list(grid) == [("adaptive", True), ("adaptive", False),
                              ("fixed", True), ("fixed", False)]
        for name in ("comparison.csv", "fixed_off/records.jsonl", "adaptive_on/summary.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()
        assert (tmp_path / "api" / "comparison.csv").read_text() == csv_text


class TestAgreement:
    def test_self_agreement_matrix(self, tmp_path, capsys):
        d = generate_scene_dir(tmp_path)
        manifest = str(d / "masks_manifest.json")
        capsys.readouterr()  # discard the generate subcommand's output
        assert main(["agreement", manifest, manifest]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "gt_role,pred_a,pred_b"
        assert lines[1] == "gt_a,1.0000,1.0000"
        assert lines[2] == "gt_b,1.0000,1.0000"

    def test_mask_round_trip_through_files(self, tmp_path):
        d = generate_scene_dir(tmp_path)
        masks = load_masks(d / "masks_manifest.json")
        assert masks.ids()
        assert masks.source == "ground_truth"
