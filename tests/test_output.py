import csv
import json
import math
import os
import re
import xml.dom.minidom

import numpy as np
import pytest

from innosearch import cli, output
from innosearch.output import _nice_ticks, format_cell, line_chart, write_json, write_svg, write_table


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


def _long_table(n=1283):
    rng = np.random.default_rng(7)
    return ["t", "value", "share"], list(zip(range(1, n + 1), rng.standard_normal(n).tolist(), rng.random(n).tolist()))


TABLES = {
    "no rows": (["a", "b"], []),
    "one column": (["x"], [[0.5], [1.5], [-2.0]]),
    "one row": (["x", "y"], [(1, 2.5)]),
    "more rows than a block": _long_table(),
    "scalar kinds": (
        ["none", "flag", "count", "t", "mixed"],
        list(zip([None, None, None], [True, False, True], [0, -7, 10**20], range(3), [1, 0.25, None])),
    ),
    "strings": (
        ["note", "value"],
        [["a,b", 1.0], ['say "hi"', 2.0], ["two\nlines", 3.0], ["],\n   [", 4.0], ["caf\u00e9 \u65e5\u672c", 5.0]],
    ),
    "special floats": (
        ["value", "other"],
        [
            [math.nan, math.inf], [-math.inf, -0.0], [5e-324, 1e300],
            [np.float64(0.1), 2.0 / 3.0], [0.1 + 0.2, np.float64(-1e-310)],
        ],
    ),
}


@pytest.mark.parametrize("name", list(TABLES))
def test_write_table_bytes_are_json_dump_and_format_cell(tmp_path, name):
    columns, rows = TABLES[name]
    write_table(str(tmp_path), "t", columns, rows)
    with open(tmp_path / "t.json", encoding="utf-8", newline="") as fh:
        assert fh.read() == json.dumps({"columns": columns, "rows": [list(r) for r in rows]}, indent=1) + "\n"
    with open(tmp_path / "t.csv", encoding="utf-8", newline="") as fh:
        assert fh.read() == "".join(",".join(map(format_cell, r)) + "\n" for r in [columns, *rows])


def test_long_table_spans_write_blocks():
    assert len(TABLES["more rows than a block"][1]) > 2 * output._BLOCK


@pytest.mark.parametrize("columns, rows", [(["a", "b"], [[1.0, 2.0], [3.0]]), ([], [[], []])])
def test_write_table_rejects_ragged_or_empty_rows(tmp_path, columns, rows):
    with pytest.raises(ValueError):
        write_table(str(tmp_path), "t", columns, rows)


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


def test_polyline_points_follow_the_pixel_formula():
    rng = np.random.default_rng(11)
    ys = rng.standard_normal(300).tolist()
    for i, bad in zip(rng.choice(300, 12, replace=False), [math.nan, math.inf, -math.inf] * 4):
        ys[i] = bad
    xs = range(300)
    ys2 = (rng.random(300) * 10).tolist()
    svg = line_chart("random", "x", "y", [("a", xs, ys), ("b", xs, ys2)], hlines=[(0.5, "half")])

    # line_chart's range and per-point formula, kept here as the reference
    finite = [y for y in ys + ys2 if math.isfinite(y)] + [0.5]
    x_lo, x_hi = 0, 299
    y_lo, y_hi = min(finite), max(finite)
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return 72 + (x - x_lo) / (x_hi - x_lo) * (960 - 72 - 24)

    def py(y):
        return 540 - 56 - (y - y_lo) / (y_hi - y_lo) * (540 - 48 - 56)

    expected = [
        " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, series) if math.isfinite(float(y)))
        for series in (ys, ys2)
    ]
    assert re.findall(r'points="([^"]*)"', svg) == expected


@pytest.mark.parametrize(
    "lo, hi",
    [
        (0.0, 1.0), (-3.0, 7.0), (0.3, 0.30001), (1e-20, 5e-20), (1.0, 1.0 + 1e-12),
        (1.0, math.nextafter(1.0, 2.0)), (-1.0, math.nextafter(-1.0, 0.0)), (1e300, math.nextafter(1e300, math.inf)),
        (1e-310, 5e-310), (5e-324, 5e-323), (0.0, 5e-324), (-5e-324, 5e-324), (2.0, 2.0), (1e300, 1e300),
    ],
)
def test_nice_ticks_are_distinct_and_in_range(lo, hi):
    ticks = _nice_ticks(lo, hi)
    top = hi if hi > lo else lo + 1.0  # an empty range is widened by 1, which 1e300 absorbs
    assert len(ticks) >= (2 if top > lo else 1)
    assert all(a < b for a, b in zip(ticks, ticks[1:]))
    assert all(lo <= t <= top for t in ticks)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1.7976931348623157e308, 1.7976931348623157e308), (-8.5e306, 1.785e308)])
def test_nice_ticks_over_a_range_wider_than_the_largest_double(lo, hi):
    # hi - lo overflows to inf; the step is still finite and round
    ticks = _nice_ticks(lo, hi)
    assert len(ticks) >= 2 and all(a < b for a, b in zip(ticks, ticks[1:]))
    assert all(lo <= t <= hi and math.isfinite(t) for t in ticks)
    steps = {b - a for a, b in zip(ticks, ticks[1:])}
    assert len(steps) == 1 and steps.pop() in (5e307, 1e308)


def test_chart_of_values_wider_apart_than_the_largest_double():
    svg = line_chart("huge", "x", "y", [("y", [0.0, 1.0], [0.0, 1.7e308])])
    assert svg.endswith("</svg>\n") and svg.count('text-anchor="end"') >= 2


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([1e-300, 1e-299], [1e-301, 3e-300]),  # sweep --param scale --values 1e-300,1e-299
        ([2.0, 2.0000000000000004], [0.32937698524932696, 0.32937698524932707]),  # sweep --param v, one ulp apart
    ],
)
def test_chart_of_close_values_labels_its_axes(xs, ys):
    svg = line_chart("close", "x", "W(0)", [("W(0)", xs, ys)])
    assert svg.count('text-anchor="end"') >= 2  # y tick labels
    assert svg.count('text-anchor="middle">') >= 2 + 2  # x tick labels, title and x label


# Each writer with a long and a short payload: the files it writes, and write(out_dir, long).
REWRITES = {
    "table": (["t.csv", "t.json"], lambda out, long: write_table(out, "t", ["a", "b"], [[0.1, "x"]] * (700 if long else 3))),
    "json": (["p.json"], lambda out, long: write_json(out, "p", {"rows": list(range(500 if long else 2))})),
    "svg": (["c.svg"], lambda out, long: write_svg(out, "c", chart() if long else "<svg/>\n")),
}


def read_all(out, files):
    return [(out / name).read_bytes() for name in files]


@pytest.mark.parametrize("writer", REWRITES)
def test_a_shorter_rewrite_equals_a_fresh_write_on_the_same_inode(tmp_path, writer):
    files, write = REWRITES[writer]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    write(str(reused), True)
    inodes = [os.stat(reused / name).st_ino for name in files]
    write(str(reused), False)
    write(str(fresh), False)
    assert read_all(reused, files) == read_all(fresh, files)
    assert [os.stat(reused / name).st_ino for name in files] == inodes


@pytest.mark.parametrize("writer", REWRITES)
def test_a_symlinked_file_is_written_through(tmp_path, writer):
    files, write = REWRITES[writer]
    target, out, fresh = tmp_path / "target", tmp_path / "out", tmp_path / "fresh"
    write(str(target), True)
    out.mkdir()
    for name in files:
        (out / name).symlink_to(target / name)
    write(str(out), False)
    write(str(fresh), False)
    assert all((out / name).is_symlink() for name in files)
    assert read_all(target, files) == read_all(fresh, files)


@pytest.mark.parametrize("writer", REWRITES)
def test_a_new_file_takes_the_umask(tmp_path, writer):
    files, write = REWRITES[writer]
    umask = os.umask(0o027)
    try:
        write(str(tmp_path), False)
    finally:
        os.umask(umask)
    assert [os.stat(tmp_path / name).st_mode & 0o777 for name in files] == [0o640] * len(files)


@pytest.mark.skipif(os.geteuid() == 0, reason="the file mode does not stop root writing")
@pytest.mark.parametrize("writer", REWRITES)
def test_a_read_only_file_is_not_written(tmp_path, writer):
    files, write = REWRITES[writer]
    write(str(tmp_path), True)
    before = read_all(tmp_path, files)
    for name in files:
        os.chmod(tmp_path / name, 0o444)
    with pytest.raises(PermissionError):
        write(str(tmp_path), False)
    assert read_all(tmp_path, files) == before


@pytest.mark.skipif(os.geteuid() == 0, reason="the file mode does not stop root writing")
def test_a_read_only_output_is_a_configuration_error(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["solve", "--horizon", "20", "--out", out]) == 0
    os.chmod(os.path.join(out, "summary.json"), 0o444)
    assert cli.main(["solve", "--horizon", "20", "--out", out]) == 2
    assert "Permission denied" in capsys.readouterr().err


def test_a_ragged_table_leaves_only_the_csv_header(tmp_path):
    _, write = REWRITES["table"]
    write(str(tmp_path), True)
    twin = (tmp_path / "t.json").read_bytes()
    with pytest.raises(ValueError):
        write_table(str(tmp_path), "t", ["a", "b"], [[1.0, 2.0], [3.0]])
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"
    assert (tmp_path / "t.json").read_bytes() == twin  # the twin is not reached


def test_a_file_linked_to_a_character_device_is_written(tmp_path):
    # /dev/null has no length to cut: open(path, "w") writes to it, and so does every writer
    (tmp_path / "c.svg").symlink_to(os.devnull)
    write_svg(str(tmp_path), "c", chart())
    assert (tmp_path / "c.svg").is_symlink()
