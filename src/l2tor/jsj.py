"""Torsion of 3-manifolds from a decomposition manifest.

A manifest lists the geometric pieces of a torus decomposition with their
hyperbolic volumes (volumes are inputs, never computed here).  The torsion
is -1/(3 pi) times the total hyperbolic volume, so it vanishes exactly for
graph manifolds and is additive over pieces.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .inputs import (ManifestError, check_range, convert, field, integer, items, number,
                     read_json, read_text, string)

__all__ = [
    "JsjPiece",
    "JsjManifest",
    "ManifestError",
    "torsion_3manifold",
    "is_graph_manifold",
    "load_manifest",
    "TORSION_PER_VOLUME",
]

ALLOWED_KINDS = ("seifert", "hyperbolic")

TORSION_PER_VOLUME = -1.0 / (3.0 * math.pi)


@dataclass(frozen=True)
class JsjPiece:
    kind: str
    volume: float = 0.0
    label: str = ""

    def __post_init__(self):
        """A known kind and a finite nonnegative volume, positive if hyperbolic."""
        if self.kind not in ALLOWED_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; allowed kinds: "
                             f"{', '.join(ALLOWED_KINDS)}")
        check_range("volume", self.volume, 0, math.inf, "[)")
        if self.kind == "hyperbolic" and self.volume == 0:
            raise ValueError("hyperbolic pieces need positive volume")


@dataclass(frozen=True)
class JsjManifest:
    name: str
    pieces: tuple[JsjPiece, ...] = ()
    boundary_tori: int = 0

    def __post_init__(self):
        check_range("boundary_tori", self.boundary_tori, 0, math.inf, "[)", integer=True)
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


def _piece(kind: str, volume: float, label: str, location: str) -> JsjPiece:
    """One piece of a JSON or CSV manifest, refused at `location`; the volume
    of a seifert piece is checked, then ignored."""
    piece = convert(volume, location, lambda volume: JsjPiece(kind, volume, label))
    return replace(piece, volume=0.0) if kind == "seifert" else piece


def manifest_from_dict(raw: dict, source: str = "<dict>") -> JsjManifest:
    name = field(raw, "name", source, string)
    if not name:
        raise ManifestError(f"{source}.name", "expected a nonempty string")
    tori = field(raw, "boundaryTori", source,
                 lambda v: check_range("boundaryTori", integer(v), 0, math.inf, "[)"), 0)
    pieces = []
    for i, piece in enumerate(field(raw, "pieces", source, items, [])):
        loc = f"{source}.pieces[{i}]"
        pieces.append(_piece(field(piece, "kind", loc, string),
                             field(piece, "volume", loc, number, 0.0),
                             field(piece, "label", loc, string, ""), loc))
    return JsjManifest(name, tuple(pieces), tori)


def _load_csv(path: Path) -> JsjManifest:
    """Rows kind,volume[,label] of a UTF-8 file; '#' starts a comment row.
    A row the rules or the CSV reader refuse is refused at path:line."""
    pieces = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            loc = f"{path}:{reader.line_num}"
            if not 2 <= len(row) <= 3:
                raise ManifestError(loc, "expected kind,volume[,label]")
            label = row[2].strip() if len(row) > 2 else ""
            pieces.append(_piece(row[0].strip(), convert(row[1], loc, float), label, loc))
    except csv.Error as exc:
        raise ManifestError(f"{path}:{reader.line_num}", str(exc)) from None
    return JsjManifest(path.stem, tuple(pieces), 0)


def load_manifest(path: str | Path) -> JsjManifest:
    """Parse a manifest file; JSON is canonical, CSV rows are kind,volume,label."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _load_csv(path)
    return manifest_from_dict(read_json(path), str(path))
