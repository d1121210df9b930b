import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from l2tor.hyperbolic import torsion_constant_result
from l2tor.jsj import (TORSION_PER_VOLUME, JsjManifest, JsjPiece, ManifestError,
                       is_graph_manifold, load_census, load_manifest, manifest_from_dict,
                       torsion_3manifold)


def test_graph_manifold_zero_torsion():
    m = JsjManifest("graph", (JsjPiece("seifert", 0.0, "a"),
                              JsjPiece("seifert", 0.0, "b")))
    assert is_graph_manifold(m)
    assert torsion_3manifold(m) == 0.0


def test_three_pi_volume_gives_minus_one():
    m = JsjManifest("unit", (JsjPiece("hyperbolic", 3.0 * math.pi, "x"),))
    assert torsion_3manifold(m) == pytest.approx(-1.0, abs=1e-15)


def test_torsion_per_volume_is_the_computed_constant():
    # the paper's torsion per unit volume of H^3; torsion_3manifold keeps the
    # literal -1/(3 pi) so that it loads no table, and the literal lies within
    # the computed constant's error estimate (2.8e-17 against 4.79e-15)
    res = torsion_constant_result()
    assert abs(TORSION_PER_VOLUME - res.total) <= res.diagnostics["error"]


def test_mixed_manifest_not_graph():
    m = JsjManifest("mixed", (JsjPiece("seifert", 0.0, "s"),
                              JsjPiece("hyperbolic", 1.0, "h")))
    assert not is_graph_manifold(m)


def test_empty_pieces_vacuously_graph():
    m = JsjManifest("empty")
    assert is_graph_manifold(m)
    assert torsion_3manifold(m) == 0.0


def test_torsion_additive_over_pieces():
    a = JsjManifest("a", (JsjPiece("hyperbolic", 2.3, "p"),))
    b = JsjManifest("b", (JsjPiece("hyperbolic", 4.1, "q"),
                          JsjPiece("seifert", 0.0, "r")))
    union = JsjManifest("ab", a.pieces + b.pieces)
    assert torsion_3manifold(union) == pytest.approx(
        torsion_3manifold(a) + torsion_3manifold(b), abs=1e-12)


@given(st.lists(st.floats(min_value=0.1, max_value=50.0), max_size=6))
def test_torsion_linear_and_nonpositive(volumes):
    pieces = tuple(JsjPiece("hyperbolic", v, str(i)) for i, v in enumerate(volumes))
    m = JsjManifest("rand", pieces)
    assert torsion_3manifold(m) <= 0.0
    assert torsion_3manifold(m) == pytest.approx(
        -sum(volumes) / (3.0 * math.pi), rel=1e-12)
    assert (torsion_3manifold(m) == 0.0) == is_graph_manifold(m)


def test_census_figure_eight_volume():
    census = {m.name: m for m in load_census()}
    fig8 = census["figure-eight-knot-complement"]
    assert fig8.boundary_tori == 1
    vol = fig8.hyperbolic_volume
    assert vol == pytest.approx(2.0298832, abs=1e-6)
    assert torsion_3manifold(fig8) == pytest.approx(-vol / (3.0 * math.pi))
    assert is_graph_manifold(census["trefoil-complement"])


def test_load_manifest_json_roundtrip(tmp_path):
    data = {"name": "two-piece", "boundaryTori": 2, "pieces": [
        {"kind": "hyperbolic", "volume": 2.0, "label": "h"},
        {"kind": "seifert", "volume": 0.0, "label": "s"},
    ]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    m = load_manifest(path)
    assert m.name == "two-piece"
    assert len(m.pieces) == 2
    assert torsion_3manifold(m) == pytest.approx(-2.0 / (3.0 * math.pi))


def test_load_manifest_csv(tmp_path):
    path = tmp_path / "pieces.csv"
    path.write_text("# kind,volume,label\nhyperbolic,1.5,h1\nseifert,0,s1\n")
    m = load_manifest(path)
    assert m.name == "pieces"
    assert m.hyperbolic_volume == 1.5


def test_negative_volume_rejected():
    with pytest.raises(ManifestError, match=r"volume must be in \[0, inf\), got -1.0$"):
        manifest_from_dict({"name": "bad", "pieces": [
            {"kind": "hyperbolic", "volume": -1.0}]})


def test_unknown_kind_lists_allowed():
    with pytest.raises(ManifestError, match="allowed kinds: seifert, hyperbolic"):
        manifest_from_dict({"name": "bad", "pieces": [
            {"kind": "sol", "volume": 1.0}]})


def test_error_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "pieces": [
        {"kind": "hyperbolic", "volume": 1.0}, {"volume": 2.0}]}))
    with pytest.raises(ManifestError, match=r"pieces\[1\]"):
        load_manifest(path)
    path.write_text(json.dumps({"name": "x", "pieces": [
        {"kind": "hyperbolic", "volume": 1.0}, {"kind": "hyperbolic", "volume": -2.0}]}))
    with pytest.raises(ManifestError, match=r"bad\.json\.pieces\[1\]: volume must be "
                                            r"in \[0, inf\), got -2.0$"):
        load_manifest(path)
    csv_path = tmp_path / "bad.csv"
    for row, message in [("hyperbolic,0,h", "hyperbolic pieces need positive volume"),
                         ("hyperbolic,nan,h", r"volume must be in \[0, inf\), got nan$"),
                         ("hyperbolic,2,h,extra", r"expected kind,volume\[,label\]$")]:
        csv_path.write_text(f"# kind,volume,label\n{row}\n")
        with pytest.raises(ManifestError, match=rf"bad\.csv:2: {message}"):
            load_manifest(csv_path)


def test_integral_float_boundary_tori_accepted():
    # the integer rule of every input file: 2.0 counts as 2
    m = manifest_from_dict({"name": "x", "boundaryTori": 2.0})
    assert m.boundary_tori == 2 and type(m.boundary_tori) is int


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "pieces": [}')
    with pytest.raises(ManifestError, match="malformed JSON"):
        load_manifest(path)


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_manifest("/nonexistent/manifest.json")


def test_seifert_volume_field_ignored():
    m = manifest_from_dict({"name": "s", "pieces": [
        {"kind": "seifert", "volume": 17.0, "label": "ignored"}]})
    assert m.hyperbolic_volume == 0.0
    assert torsion_3manifold(m) == 0.0
