"""Run manifests: digests, naming, and stability across reruns."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from rare import __version__, manifest as manifest_module
from rare.manifest import build_manifest, digest_file, manifest_path, write_manifest


class TestDigest:
    def test_matches_hashlib_oracle(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = b"abc" * 5000 + b"\x00\xff"
        path.write_bytes(payload)
        assert digest_file(path) == hashlib.sha256(payload).hexdigest()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        assert digest_file(path) == hashlib.sha256(b"").hexdigest()


class TestManifestPath:
    def test_appends_suffix_to_full_name(self):
        assert manifest_path("out/model.rare") == Path("out/model.rare.manifest.json")
        assert manifest_path("report.json") == Path("report.json.manifest.json")


class TestBuildAndWrite:
    """`build_manifest` takes each input's digest, as the command took it."""

    def make_inputs(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("alpha", encoding="utf-8")
        b.write_text("beta", encoding="utf-8")
        return {"queries": digest_file(b), "corpus": digest_file(a)}

    def test_fields(self, tmp_path):
        inputs = self.make_inputs(tmp_path)
        manifest = build_manifest(["rare", "train"], {"lr": 0.003}, {"seed": 7}, inputs)
        assert manifest.command == ["rare", "train"]
        assert manifest.config == {"lr": 0.003}
        assert manifest.seeds == {"seed": 7}
        assert manifest.artifact_version == __version__
        assert list(manifest.input_digests) == ["corpus", "queries"]
        assert manifest.input_digests["corpus"] == hashlib.sha256(b"alpha").hexdigest()

    def test_copies_digests_without_hashing(self, tmp_path, monkeypatch):
        inputs = self.make_inputs(tmp_path)

        def no_hashing(path):
            pytest.fail(f"build_manifest hashed {path}")

        monkeypatch.setattr(manifest_module, "digest_file", no_hashing)
        monkeypatch.setattr(manifest_module.hashlib, "sha256", no_hashing)
        assert build_manifest(["c"], {}, {}, inputs).input_digests == inputs

    def test_stable_modulo_timestamp(self, tmp_path):
        inputs = self.make_inputs(tmp_path)
        a = build_manifest(["rare", "synth"], {"k": 5}, {"seed": 7}, inputs)
        b = build_manifest(["rare", "synth"], {"k": 5}, {"seed": 7}, inputs)
        da, db = a.__dict__.copy(), b.__dict__.copy()
        da.pop("created_at")
        db.pop("created_at")
        assert da == db

    def test_input_change_changes_digest(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("alpha", encoding="utf-8")
        before = build_manifest(["c"], {}, {}, {"corpus": digest_file(path)}).input_digests["corpus"]
        path.write_text("alpha2", encoding="utf-8")
        after = build_manifest(["c"], {}, {}, {"corpus": digest_file(path)}).input_digests["corpus"]
        assert before != after

    def test_write_next_to_artifact(self, tmp_path):
        inputs = self.make_inputs(tmp_path)
        manifest = build_manifest(["rare", "index"], {}, {"seed": 0}, inputs)
        artifact = tmp_path / "index.rfi"
        artifact.write_bytes(b"xx")
        out = write_manifest(manifest, artifact)
        assert out == tmp_path / "index.rfi.manifest.json"
        loaded = json.loads(out.read_text(encoding="utf-8"))
        assert loaded["command"] == ["rare", "index"]
        assert loaded["input_digests"]["queries"] == hashlib.sha256(b"beta").hexdigest()
        assert "created_at" in loaded
