"""Run manifests: a JSON record written next to every produced artifact.

The manifest captures the exact command line, resolved configuration, seeds,
and SHA-256 digests of every input file, so a result can be traced back to
what produced it. The command takes each digest with `digest_file` when it
takes the file, before reading it; `build_manifest` only copies them. Two runs
over byte-identical inputs with the same command produce identical manifests
except for the timestamp.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__


@dataclass
class RunManifest:
    command: list[str]
    config: dict
    seeds: dict
    input_digests: dict[str, str]
    artifact_version: str = __version__
    created_at: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())


def digest_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(
    command: list[str],
    config: dict,
    seeds: dict,
    inputs: dict[str, str],
) -> RunManifest:
    """The manifest of one command; `inputs` maps each input's key to its sha256 hex digest."""
    return RunManifest(command=list(command), config=config, seeds=seeds, input_digests=dict(sorted(inputs.items())))


def manifest_path(artifact: str | Path) -> Path:
    p = Path(artifact)
    return p.with_name(p.name + ".manifest.json")


def write_manifest(manifest: RunManifest, artifact: str | Path) -> Path:
    out = manifest_path(artifact)
    out.write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out
