"""Every outside JSON document goes through errors.read_object: a value that
is not an object, an unknown key and a missing key raise ParameterError
naming the document and the key."""
import json

import pytest

from traypick.archetypes import DEFAULT_ARCHETYPES, load_archetypes, save_archetypes
from traypick.config import experiment_config_from_document
from traypick.errors import ParameterError
from traypick.experiment import TrialRecord, read_records
from traypick.perception import load_masks, render_depth, render_masks, save_masks
from traypick.planner import candidate_from_dict, plan, plan_to_dict
from traypick.scenegen import SceneConfig, generate_scene, load_scene, save_scene


def scene_document(tmp_path):
    save_scene(generate_scene(SceneConfig(), 17), tmp_path)
    path = tmp_path / "scene.json"

    def load(doc):
        path.write_text(json.dumps(doc))
        load_scene(tmp_path)
    return json.loads(path.read_text()), load


def mask_document(tmp_path):
    path = save_masks(render_masks(generate_scene(SceneConfig(), 17)), tmp_path)

    def load(doc):
        path.write_text(json.dumps(doc))
        load_masks(path)
    return json.loads(path.read_text()), load


def candidate_document(tmp_path):
    scene = generate_scene(SceneConfig(), 9)
    p = plan(render_masks(scene), render_depth(scene), scene.archetypes["fried_chicken"])
    return json.loads(json.dumps(plan_to_dict(p)["target"])), candidate_from_dict


def records_document(tmp_path):
    path = tmp_path / "records.jsonl"
    record = TrialRecord(0, 7, 1, 5, 3, 2, "success_single", [2], [])

    def load(doc):
        path.write_text(json.dumps(doc) + "\n")
        read_records(path)
    return json.loads(record.to_json()), load


def archetypes_document(tmp_path):
    path = tmp_path / "archetypes.json"
    save_archetypes(DEFAULT_ARCHETYPES, path)

    def load(doc):
        path.write_text(json.dumps(doc))
        load_archetypes(path)
    return json.loads(path.read_text()), load


def config_document(tmp_path):
    return {"corruption": {"merge_prob": 0.1}}, experiment_config_from_document


# (document, where in it, where the message names it, a required key)
DOCUMENTS = [
    (scene_document, [], "scene.json", "next_id"),
    (scene_document, ["pieces", 0], r"scene.json pieces\[0\]", "damaged"),
    (scene_document, ["pieces", 0, "stamp"], "scene.json piece 1 stamp", "rotation"),
    (mask_document, [], "mask manifest .*masks_manifest.json", "size"),
    (mask_document, ["instances", 0], r"masks_manifest.json instances\[0\]", "counts"),
    (candidate_document, [], "plan candidate", "food_median"),
    (records_document, [], "records.jsonl line 1", "classification"),
    (archetypes_document, ["gyoza"], "archetype", "dome_ratio"),
    (config_document, ["corruption"], "config corruption", None),  # every config key is optional
]


def cases():
    for make, path, where, required in DOCUMENTS:
        name = f"{make.__name__}{''.join(f'[{k}]' for k in path)}"
        yield pytest.param(make, path, "not an object", f"{where} must be an object", id=f"{name}-not-object")
        yield pytest.param(make, path, "unknown key", f"{where} has unknown key 'bogus'", id=f"{name}-unknown")
        if required is not None:
            yield pytest.param(make, path, required, f"{where} is missing {required}\\b", id=f"{name}-missing")


@pytest.mark.parametrize("make, path, edit, match", cases())
def test_every_document_refuses_a_bad_object(tmp_path, make, path, edit, match):
    doc, load = make(tmp_path)
    if edit == "not an object" and not path:
        doc = ["not", "an", "object"]
    elif edit == "not an object":
        _at(doc, path[:-1])[path[-1]] = ["not", "an", "object"]
    elif edit == "unknown key":
        _at(doc, path)["bogus"] = 1
    else:
        del _at(doc, path)[edit]
    with pytest.raises(ParameterError, match=match):
        load(doc)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc
