"""Torsion of 3-manifolds from a decomposition manifest.

A manifest lists the geometric pieces of a torus decomposition with their
hyperbolic volumes (volumes are inputs, never computed here).  The torsion
is -1/(3 pi) times the total hyperbolic volume, so it vanishes exactly for
graph manifolds and is additive over pieces.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

__all__ = [
    "JsjPiece",
    "JsjManifest",
    "ManifestError",
    "torsion_3manifold",
    "is_graph_manifold",
    "load_manifest",
    "load_census",
    "TORSION_PER_VOLUME",
]

ALLOWED_KINDS = ("seifert", "hyperbolic")

TORSION_PER_VOLUME = -1.0 / (3.0 * math.pi)


class ManifestError(ValueError):
    """Schema violation with a location string for the offending field."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


@dataclass(frozen=True)
class JsjPiece:
    kind: str
    volume: float = 0.0
    label: str = ""

    def __post_init__(self):
        _check_piece(self.kind, self.volume, f"piece {self.label or '?'}")


def _check_piece(kind: str, volume: float, location: str) -> None:
    """A known kind and a finite nonnegative volume, positive if hyperbolic."""
    if kind not in ALLOWED_KINDS:
        raise ManifestError(
            location, f"unknown kind {kind!r}; allowed kinds: {', '.join(ALLOWED_KINDS)}")
    if not math.isfinite(volume):
        raise ManifestError(location, f"volume {volume} is not finite")
    if volume < 0:
        raise ManifestError(location, "volume must be nonnegative")
    if kind == "hyperbolic" and volume == 0:
        raise ManifestError(location, "hyperbolic pieces need positive volume")


@dataclass(frozen=True)
class JsjManifest:
    name: str
    pieces: tuple[JsjPiece, ...] = ()
    boundary_tori: int = 0

    def __post_init__(self):
        if self.boundary_tori < 0:
            raise ManifestError(self.name, "boundaryTori must be nonnegative")
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @property
    def hyperbolic_volume(self) -> float:
        return sum(p.volume for p in self.pieces if p.kind == "hyperbolic")


def torsion_3manifold(manifest: JsjManifest) -> float:
    """-1/(3 pi) times the total volume of the hyperbolic pieces."""
    return TORSION_PER_VOLUME * manifest.hyperbolic_volume


def is_graph_manifold(manifest: JsjManifest) -> bool:
    """No hyperbolic pieces at all (vacuously true for an empty list)."""
    return not any(p.kind == "hyperbolic" for p in manifest.pieces)


def _piece_from_dict(raw: dict, location: str) -> JsjPiece:
    """One piece of a JSON or CSV manifest; every error names `location`."""
    if not isinstance(raw, dict):
        raise ManifestError(location, "piece must be an object")
    kind = raw.get("kind")
    if kind is None:
        raise ManifestError(location, "missing field 'kind'")
    volume = raw.get("volume", 0.0)
    if not isinstance(volume, (int, float)) or isinstance(volume, bool):
        raise ManifestError(f"{location}.volume", "volume must be a number")
    kind, volume = str(kind), float(volume)
    _check_piece(kind, volume, location)
    if kind == "seifert":
        volume = 0.0  # ignored by convention
    return JsjPiece(kind, volume, str(raw.get("label", "")))


def manifest_from_dict(raw: dict, source: str = "<dict>") -> JsjManifest:
    if not isinstance(raw, dict):
        raise ManifestError(source, "manifest must be an object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ManifestError(f"{source}.name", "missing or empty manifest name")
    tori = raw.get("boundaryTori", 0)
    if not isinstance(tori, int) or isinstance(tori, bool) or tori < 0:
        raise ManifestError(f"{source}.boundaryTori",
                            "boundaryTori must be a nonnegative integer")
    pieces_raw = raw.get("pieces", [])
    if not isinstance(pieces_raw, list):
        raise ManifestError(f"{source}.pieces", "pieces must be a list")
    pieces = [_piece_from_dict(p, f"{source}.pieces[{i}]")
              for i, p in enumerate(pieces_raw)]
    return JsjManifest(name, tuple(pieces), tori)


def _load_csv(path: Path) -> JsjManifest:
    pieces = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            loc = f"{path}:{lineno}"
            if len(row) < 2:
                raise ManifestError(loc, "expected kind,volume[,label]")
            try:
                volume = float(row[1])
            except ValueError:
                raise ManifestError(loc, f"volume {row[1]!r} is not a number") from None
            label = row[2].strip() if len(row) > 2 else ""
            pieces.append(_piece_from_dict(
                {"kind": row[0].strip(), "volume": volume, "label": label}, loc))
    return JsjManifest(path.stem, tuple(pieces), 0)


def load_manifest(path: str | Path) -> JsjManifest:
    """Parse a manifest file; JSON is canonical, CSV rows are kind,volume,label."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if path.suffix.lower() == ".csv":
        return _load_csv(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}:{exc.lineno}", f"malformed JSON: {exc.msg}") from None
    return manifest_from_dict(raw, str(path))


def load_census() -> list[JsjManifest]:
    """Built-in fixture manifests with published volumes."""
    raw = json.loads(resources.files("l2tor.data").joinpath(
        "census_cusped.json").read_text())
    return [manifest_from_dict(entry, entry.get("name", "<census>"))
            for entry in raw["manifests"]]
