"""Campaign harness: trials, summaries, persistence, comparisons."""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import traypick
from traypick.archetypes import DEFAULT_ARCHETYPES
from traypick.errors import ParameterError
from traypick.experiment import (
    DEPLETE,
    FRESH,
    ExperimentConfig,
    TrialRecord,
    compare_conditions,
    paired_success_pvalue,
    read_records,
    run_experiment,
    run_trial,
    summarize,
    summary_csv,
    write_records,
)
from traypick.graspsim import Classification, FingerKind
from traypick.perception import CorruptionParams
from traypick.scenegen import SceneConfig


def small_config(**overrides):
    arch = dataclasses.replace(
        DEFAULT_ARCHETYPES["fried_chicken"], count_range=(3, 8)
    )
    scene = SceneConfig(
        archetype="fried_chicken",
        archetypes={**dict(DEFAULT_ARCHETYPES), "fried_chicken": arch},
    )
    defaults = dict(archetype="fried_chicken", n_attempts=5, base_seed=100,
                    scene=scene)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def record(attempt, classification, picked=(), damaged=(), epoch=1, reason=""):
    return TrialRecord(
        attempt=attempt, seed=attempt, epoch=epoch, candidate_count=5,
        retained_count=3, target_id=1, classification=classification.value,
        picked=list(picked), damaged=list(damaged), reason=reason,
    )


class TestRunTrial:
    def test_single_piece_scene_succeeds(self):
        arch = dataclasses.replace(
            DEFAULT_ARCHETYPES["fried_chicken"], count_range=(1, 1)
        )
        cfg = small_config(
            scene=SceneConfig(
                archetype="fried_chicken",
                archetypes={**dict(DEFAULT_ARCHETYPES), "fried_chicken": arch},
            )
        )
        rec, _, _ = run_trial(cfg, 0)
        assert rec.classification == Classification.SUCCESS_SINGLE.value
        assert len(rec.picked) == 1

    def test_drop_all_masks_yields_no_target(self):
        cfg = small_config(corruption=CorruptionParams(drop_prob=1.0))
        rec, _, _ = run_trial(cfg, 0)
        assert rec.target_id is None
        assert rec.reason == "no-target"
        assert rec.classification == Classification.FAILURE.value

    def test_deterministic_records(self):
        cfg = small_config()
        a, _, _ = run_trial(cfg, 2)
        b, _, _ = run_trial(cfg, 2)
        assert a.to_json() == b.to_json()

    def test_fresh_policy_regenerates(self):
        cfg = small_config(refill_policy=FRESH, n_attempts=3)
        _, scene1, epoch1 = run_trial(cfg, 0)
        _, scene2, epoch2 = run_trial(cfg, 1, scene1, epoch1)
        assert epoch2 == epoch1 + 1

    def test_deplete_policy_carries_scene(self):
        cfg = small_config(refill_policy=DEPLETE)
        rec1, scene1, epoch1 = run_trial(cfg, 0)
        assert scene1 is not None
        n_before = len(scene1.pieces)
        rec2, scene2, epoch2 = run_trial(cfg, 1, scene1, epoch1)
        if rec2.target_id is not None:
            assert epoch2 == epoch1
            assert scene2 is scene1


class TestArchetypeConsistency:
    """The archetype a campaign plans with is the one its trays are made of."""

    def test_mismatched_scene_archetype_rejected(self):
        cfg = ExperimentConfig(archetype="gyoza", scene=SceneConfig(archetype="mushroom"))
        with pytest.raises(ParameterError, match="differs from scene.archetype"):
            cfg.validate()

    def test_replace_archetype_alone_rejected(self):
        cfg = dataclasses.replace(small_config(), archetype="gyoza")
        with pytest.raises(ParameterError, match="differs from scene.archetype"):
            cfg.validate()
        with pytest.raises(ParameterError):
            run_trial(cfg, 0)
        with pytest.raises(ParameterError):
            run_experiment(cfg)

    def test_consistent_replacements_accepted(self):
        base = small_config()
        dataclasses.replace(
            base, archetype="gyoza", scene=dataclasses.replace(base.scene, archetype="gyoza")
        ).validate()
        dataclasses.replace(ExperimentConfig(), archetype="gyoza").validate()


class TestSummarize:
    def test_all_single_successes(self):
        records = [record(i, Classification.SUCCESS_SINGLE, picked=[i]) for i in range(10)]
        s = summarize(records)
        assert s.success_single_rate == 1.0
        assert s.success_incl_multiple_rate == 1.0
        assert s.multi_pick_rate == 0.0

    def test_bracket_convention_arithmetic(self):
        # 45 single + 3 multiple + 2 failures of 50 -> (0.90, 0.96)
        records = (
            [record(i, Classification.SUCCESS_SINGLE, picked=[i]) for i in range(45)]
            + [record(45 + i, Classification.SUCCESS_MULTIPLE, picked=[90 + i, 95 + i])
               for i in range(3)]
            + [record(48 + i, Classification.FAILURE) for i in range(2)]
        )
        s = summarize(records)
        assert s.success_single_rate == pytest.approx(0.90)
        assert s.success_incl_multiple_rate == pytest.approx(0.96)
        assert s.multi_pick_rate == pytest.approx(0.06)

    def test_damage_deduplicated_per_piece(self):
        records = [
            record(0, Classification.FAILURE, damaged=[4, 5]),
            record(1, Classification.FAILURE, damaged=[4]),
            record(2, Classification.FAILURE, damaged=[4], epoch=2),
        ]
        # piece 4 damaged twice in epoch 1 counts once; epoch 2's piece 4 is
        # a different physical piece
        assert summarize(records).damaged_piece_total == 3

    def test_single_rate_never_exceeds_incl_multiple(self):
        cfg = small_config(n_attempts=10)
        summary, _ = run_experiment(cfg)
        assert summary.success_single_rate <= summary.success_incl_multiple_rate

    def test_no_target_counted(self):
        records = [record(0, Classification.FAILURE, reason="no-target")]
        assert summarize(records).no_target_count == 1


class TestRunExperiment:
    def test_reproducible_byte_identical_records(self, tmp_path):
        cfg_a = small_config(output_dir=str(tmp_path / "a"))
        cfg_b = small_config(output_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert (tmp_path / "a" / "records.jsonl").read_bytes() == (
            tmp_path / "b" / "records.jsonl"
        ).read_bytes()

    def test_one_record_per_attempt(self):
        cfg = small_config(n_attempts=7)
        _, records = run_experiment(cfg)
        assert [r.attempt for r in records] == list(range(7))
        assert [r.seed for r in records] == [100 + i for i in range(7)]

    def test_damage_total_matches_recount(self, tmp_path):
        cfg = small_config(
            archetype="gyoza",
            finger=FingerKind.FIXED,
            n_attempts=20,
            scene=SceneConfig(archetype="gyoza"),
        )
        summary, records = run_experiment(cfg)
        recount = {(r.epoch, pid) for r in records for pid in r.damaged}
        assert summary.damaged_piece_total == len(recount)

    def test_records_round_trip(self, tmp_path):
        cfg = small_config()
        _, records = run_experiment(cfg)
        write_records(records, tmp_path / "r.jsonl")
        loaded = read_records(tmp_path / "r.jsonl")
        assert [r.to_json() for r in loaded] == [r.to_json() for r in records]

    @pytest.mark.parametrize("damage, match", [
        (lambda text: text[: text.index("\n") - 5], "line 1 is not JSON"),
        (lambda text: text.replace('"seed"', '"sede"', 1), "line 1 has unknown key 'sede'"),
        (lambda text: text.replace('"epoch": 1, ', "", 1), "line 1 is missing epoch"),
        (lambda text: "\udcff" + text, "is not UTF-8"),
    ], ids=["truncated line", "unknown key", "missing key", "not UTF-8"])
    def test_bad_records_file_rejected(self, tmp_path, damage, match):
        """A truncated line used to raise JSONDecodeError, an unknown or
        missing key TypeError and a file that is not UTF-8
        UnicodeDecodeError."""
        path = tmp_path / "r.jsonl"
        write_records([record(0, Classification.SUCCESS_SINGLE, picked=[2])], path)
        path.write_bytes(damage(path.read_text()).encode("utf-8", "surrogateescape"))
        with pytest.raises(ParameterError, match=f"r.jsonl {match}"):
            read_records(path)

    def test_filtering_never_retains_more(self):
        cfg_on = small_config(filtering=True, n_attempts=5, refill_policy=FRESH)
        cfg_off = small_config(filtering=False, n_attempts=5, refill_policy=FRESH)
        _, rec_on = run_experiment(cfg_on)
        _, rec_off = run_experiment(cfg_off)
        for a, b in zip(rec_on, rec_off):
            assert a.retained_count <= b.retained_count
            assert a.candidate_count == b.candidate_count


class TestCompareConditions:
    def test_runs_the_four_conditions_of_one_base(self, tmp_path):
        """The base's own finger and filtering do not matter: the grid is
        adaptive then fixed, filtering on then off, each condition a campaign
        of the base in <out>/<finger>_<on|off>."""
        base = small_config(n_attempts=2, finger=FingerKind.FIXED, filtering=False,
                            refill_policy=FRESH, output_dir=str(tmp_path / "cmp"))
        csv_text, grid = compare_conditions(base)
        keys = [("adaptive", True), ("adaptive", False), ("fixed", True), ("fixed", False)]
        assert list(grid) == keys
        assert [line.split(",")[0] for line in csv_text.splitlines()] == [
            "label", "adaptive/filter", "adaptive/nofilter", "fixed/filter", "fixed/nofilter",
            "delta_adaptive", "delta_fixed",
        ]
        for finger, filtering in keys:
            cfg = dataclasses.replace(base, finger=FingerKind(finger), filtering=filtering,
                                      output_dir=None)
            out = tmp_path / "cmp" / f"{finger}_{'on' if filtering else 'off'}"
            assert read_records(out / "records.jsonl") == run_experiment(cfg)[1]
        assert (tmp_path / "cmp" / "comparison.csv").read_text() == csv_text
        assert base.output_dir == str(tmp_path / "cmp") and base.finger is FingerKind.FIXED

    def test_csv_has_header_and_rows(self):
        cfg = small_config()
        text = summary_csv([("x", cfg, summarize([record(0, Classification.FAILURE)]))])
        lines = text.strip().split("\n")
        assert lines[0].startswith("label,archetype,finger,filtering")
        assert lines[1].startswith("x,fried_chicken,adaptive,True")


class TestPairedPvalue:
    def rec(self, cls):
        return record(0, cls)

    def test_no_discordance_gives_one(self):
        a = [self.rec(Classification.SUCCESS_SINGLE)] * 5
        assert paired_success_pvalue(a, list(a)) == 1.0

    def test_one_sided_direction(self):
        win = self.rec(Classification.SUCCESS_SINGLE)
        lose = self.rec(Classification.FAILURE)
        a = [win] * 8 + [lose] * 2
        b = [lose] * 8 + [lose] * 2
        p_ab = paired_success_pvalue(a, b)
        p_ba = paired_success_pvalue(b, a)
        assert p_ab == pytest.approx(0.5**8)
        assert p_ba == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            paired_success_pvalue([self.rec(Classification.FAILURE)], [])

    def test_exact_tail(self):
        win = self.rec(Classification.SUCCESS_SINGLE)
        lose = self.rec(Classification.FAILURE)
        # 8 attempts only A wins, 2 only B wins: P(X >= 8), X ~ Bin(10, 1/2)
        a = [win] * 8 + [lose] * 2
        b = [lose] * 8 + [win] * 2
        assert paired_success_pvalue(a, b) == 56 / 1024

    def test_import_leaves_scipy_stats_out(self):
        """The package and its CLI load no scipy module at all: traypick
        needs numpy alone at run time."""
        src = Path(traypick.__file__).resolve().parent.parent
        code = ("import sys, traypick, traypick.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "[]"


class TestConfigDocument:
    def test_schema_round_trip(self, tmp_path):
        from traypick.config import load_experiment_config

        doc = {
            "archetype": "mushroom",
            "finger": "fixed",
            "filtering": False,
            "n_attempts": 3,
            "base_seed": 9,
            "refill_policy": FRESH,
            "depth": {"sigma": 0.5, "quant": 0.25},
            "corruption": {"merge_prob": 0.2},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_experiment_config(path)
        assert cfg.archetype == "mushroom"
        assert cfg.finger is FingerKind.FIXED
        assert cfg.filtering is False
        assert cfg.depth_sigma == 0.5
        assert cfg.corruption.merge_prob == 0.2

    def test_unknown_key_rejected(self, tmp_path):
        from traypick.config import experiment_config_from_document

        with pytest.raises(ParameterError, match="fingerz"):
            experiment_config_from_document({"archetype": "mushroom", "fingerz": "fixed"})

    def test_invalid_archetype_rejected(self, tmp_path):
        from traypick.config import experiment_config_from_document

        with pytest.raises(ParameterError):
            experiment_config_from_document({"archetype": "tofu"})
