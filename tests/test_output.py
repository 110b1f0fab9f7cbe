import csv
import json
import math
import os
import xml.dom.minidom

import numpy as np
import pytest

from innosearch.output import format_cell, line_chart, write_json, write_svg, write_table


def test_format_cell_specials():
    assert format_cell(None) == ""
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(3) == "3"
    assert format_cell("ok") == "ok"


def test_format_cell_floats_round_trip():
    rng = np.random.default_rng(41)
    values = list(rng.standard_normal(200)) + [1e-300, 1e300, 0.1, 2.0 / 3.0, -0.0]
    for x in values:
        x = float(x)
        assert float(format_cell(x)) == x


def test_write_table_twins(tmp_path):
    out = str(tmp_path)
    columns = ["t", "value", "flag", "note"]
    rows = [
        [1, 0.1 + 0.2, True, None],
        [2, -1.5e-9, False, "x"],
    ]
    write_table(out, "demo", columns, rows)

    with open(os.path.join(out, "demo.csv"), encoding="utf-8") as fh:
        text = fh.read()
    assert "\r" not in text
    parsed = list(csv.reader(text.splitlines()))
    assert parsed[0] == columns
    assert parsed[1][3] == ""  # None is an empty cell
    assert parsed[2][2] == "false"

    with open(os.path.join(out, "demo.json"), encoding="utf-8") as fh:
        twin = json.load(fh)
    assert twin["columns"] == columns
    assert twin["rows"][0][3] is None
    assert twin["rows"][1][2] is False
    # numeric cells agree across the two files exactly
    assert float(parsed[1][1]) == twin["rows"][0][1]
    assert float(parsed[2][1]) == twin["rows"][1][1]


def test_write_json_is_sorted_and_handles_inf(tmp_path):
    out = str(tmp_path)
    write_json(out, "payload", {"b": 1, "a": math.inf})
    with open(os.path.join(out, "payload.json"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text)["a"] == math.inf


def chart():
    return line_chart(
        "demo <title> & more",
        "period",
        "value",
        [
            ("first", [0, 1, 2, 3], [0.0, 0.5, 0.25, 0.75]),
            ("flat", [0, 1, 2, 3], [0.4, 0.4, 0.4, 0.4]),
        ],
        hlines=[(0.6, "cap <j*>")],
    )


def test_chart_is_valid_xml_and_escaped():
    svg = chart()
    dom = xml.dom.minidom.parseString(svg)
    assert dom.documentElement.tagName == "svg"
    assert "<title> & more" not in svg  # escaped, not raw
    assert "demo &lt;title&gt; &amp; more" in svg
    assert "demo" in svg


def test_chart_is_deterministic():
    assert chart() == chart()


def test_chart_degenerate_inputs():
    svg = line_chart("one point", "x", "y", [("p", [2.0], [1.0])])
    xml.dom.minidom.parseString(svg)
    svg = line_chart("flat", "x", "y", [("p", [0, 1], [3.0, 3.0])])
    xml.dom.minidom.parseString(svg)


def test_write_svg(tmp_path):
    out = str(tmp_path)
    write_svg(out, "chart", chart())
    path = os.path.join(out, "chart.svg")
    assert os.path.exists(path)
    with open(path, encoding="utf-8") as fh:
        xml.dom.minidom.parseString(fh.read())
