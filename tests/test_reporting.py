import csv
import xml.etree.ElementTree as ET

from treepack.reporting import emit_csv, emit_json, emit_svg_plot


def svg_elements(path, local_name):
    tree = ET.parse(path)
    return [
        el for el in tree.iter() if el.tag.rsplit("}", 1)[-1] == local_name
    ]


def test_empty_rows_yield_header_only(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(str(path), ["a", "b"], [])
    assert path.read_text() == "a,b\n"


def test_single_row_round_trips(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(str(path), ["n", "fraction"], [["128", "0.9375"]])
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{"n": "128", "fraction": "0.9375"}]


def test_csv_uses_lf_only(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(str(path), ["x"], [["1"], ["2"]])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_json_emission(tmp_path):
    import json

    path = tmp_path / "out.json"
    rows = [{"n": 4, "fraction": 0.5, "ok": True}]
    emit_json(str(path), rows)
    assert json.loads(path.read_text()) == rows
    assert path.read_text().endswith("\n")


def test_svg_one_series_four_points(tmp_path):
    path = tmp_path / "plot.svg"
    points = [(128, 0.8), (256, 0.85), (512, 0.9), (1024, 0.95)]
    emit_svg_plot(str(path), "campaign", "n", "fraction", [("p rule", points)])
    polylines = svg_elements(path, "polyline")
    assert len(polylines) == 1
    coords = polylines[0].get("points").split()
    assert len(coords) == 4


def test_svg_multiple_series_and_labels(tmp_path):
    path = tmp_path / "plot.svg"
    series = [
        ("k=1", [(64, 1.0), (128, 0.9)]),
        ("k=2", [(64, 0.8), (128, 0.85)]),
        ("k=3", [(64, 0.7), (128, 0.75)]),
    ]
    emit_svg_plot(str(path), "hitting", "n", "fraction", series)
    assert len(svg_elements(path, "polyline")) == 3
    text = path.read_text()
    for label in ("k=1", "k=2", "k=3", "hitting", "fraction"):
        assert label in text
    # Marker circles: one per point.
    assert len(svg_elements(path, "circle")) == 6


def test_svg_is_self_contained(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg_plot(str(path), "t", "x", "y", [("s", [(1, 0.5)])])
    text = path.read_text()
    assert "http" not in text.replace("http://www.w3.org/2000/svg", "")
    assert ET.parse(path).getroot().tag.endswith("svg")


def test_svg_escapes_labels(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg_plot(str(path), "a<b", "x", "y", [("p&q", [(1, 0.5), (2, 0.6)])])
    text = path.read_text()
    assert "a&lt;b" in text
    assert "p&amp;q" in text
    ET.parse(path)


def test_svg_clamps_to_unit_axis(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg_plot(str(path), "t", "n", "y", [("s", [(1, -0.5), (2, 0.0), (3, 1.0), (4, 1.5)])])
    ys = [float(c.get("cy")) for c in svg_elements(path, "circle")]
    assert ys[0] == ys[1] and ys[2] == ys[3]
    assert ys[0] > ys[2]
