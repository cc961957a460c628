"""The input generator is deterministic for a seed and varies with it."""

import hashlib
import json

import pytest

import gen


def digest(directory):
    return {
        path.name: hashlib.sha1(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_same_seed_same_bytes(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "ADHOC_TEXTS", 500)
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    assert digest(tmp_path / "a") == digest(tmp_path / "b")
    assert digest(tmp_path / "a") != digest(tmp_path / "c")


def test_adhoc_texts_never_repeat(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "ADHOC_TEXTS", 2000)
    manifest = gen.generate("adhoc", 1, tmp_path)
    lines = (manifest.parent / "queries.jsonl").read_text().splitlines()
    texts = [json.loads(line)["q"] for line in lines]
    assert len(texts) == len(set(texts)) == 2000


def test_probabilities_sum_to_one(tmp_path):
    manifest = json.loads(gen.generate("scan", 3, tmp_path).read_text())
    pmapping = json.loads((tmp_path / manifest["datasets"][0]["mapping"]).read_text())
    assert abs(sum(m["probability"] for m in pmapping["mappings"]) - 1.0) < 1e-12
