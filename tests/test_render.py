"""Deterministic drawings: golden strings and label placement."""

import re

from peakmod import (
    FamilySpec,
    LatticePath,
    PositionalTree,
    parse_path,
    path_to_labeled_tree,
)
from peakmod.render import (
    render_path_ascii,
    render_path_svg,
    render_tree_ascii,
    render_tree_svg,
)
from peakmod.statistics import label_features

from conftest import EXAMPLE_PATH_TEXT, K2, MOTZKIN, dyck


class TestPathAscii:
    def test_smallest_golden(self):
        assert render_path_ascii(dyck("uud")) == " /\\\n/ |"

    def test_motzkin_golden(self):
        path = parse_path("ul1_1dl1_1l1_1", MOTZKIN)
        assert render_path_ascii(path) == " _\n/ \\__"

    def test_empty(self):
        assert render_path_ascii(LatticePath(K2)) == ""

    def test_example_labels_in_order(self, example_path):
        out = render_path_ascii(example_path,
                                label_features(example_path))
        legend = out.splitlines()[-1]
        found = re.findall(r"=(\S+)", legend)
        assert found == ["0_1", "1_1", "0_2", "d_1", "1_2",
                         "0_3", "1_3", "d_2", "r", "d_3"]

    def test_deterministic(self, example_path):
        labels = label_features(example_path)
        assert render_path_ascii(example_path, labels) == \
            render_path_ascii(example_path, labels)


class TestPathSvg:
    def test_polyline_vertices(self):
        svg = render_path_svg(dyck("uud"))
        points = re.search(r'points="([^"]+)"', svg).group(1)
        assert len(points.split()) == 4

    def test_example_label_texts(self, example_path):
        svg = render_path_svg(example_path, label_features(example_path))
        texts = re.findall(r">([^<]+)</text>", svg)
        assert texts == ["0_1", "1_1", "0_2", "d_1", "1_2",
                         "0_3", "1_3", "d_2", "r", "d_3"]

    def test_level_steps_span_their_length(self):
        spec = FamilySpec(1, {2: 1})
        svg = render_path_svg(parse_path("l2_1ud", spec), unit=10)
        points = re.search(r'points="([^"]+)"', svg).group(1).split()
        xs = [int(p.split(",")[0]) for p in points]
        assert xs == [10, 30, 40, 50]


class TestTreeRender:
    def test_ascii_chain(self):
        tree = path_to_labeled_tree(dyck("uuduuduud"))
        assert render_tree_ascii(tree) == "r\n  1: 0_2\n    1: 0_1"

    def test_ascii_empty(self):
        assert render_tree_ascii(None) == ""

    def test_figure_tree_labels(self):
        tree = path_to_labeled_tree(parse_path(EXAMPLE_PATH_TEXT, K2))
        out = render_tree_ascii(tree)
        assert out.splitlines()[0] == "r"
        assert "1: 0_2" in out and "2: 1_3" in out and "3: d_3" in out

    def test_svg_node_count(self):
        tree = path_to_labeled_tree(parse_path(EXAMPLE_PATH_TEXT, K2))
        svg = render_tree_svg(tree)
        assert svg.count("<circle") == 10
        assert svg.count("<line") == 9

    def test_svg_empty(self):
        assert render_tree_svg(None).startswith("<svg")

    def test_deeper_than_recursion_limit(self):
        depth = 5000
        node = PositionalTree(3)
        for _ in range(depth - 1):
            node = PositionalTree(3, ((2, node),))
        lines = render_tree_ascii(node).splitlines()
        assert len(lines) == depth
        assert lines[-1] == "  " * (depth - 1) + "2: *"
        svg = render_tree_svg(node)
        assert svg.count("<circle") == depth
        assert svg.count("<line") == depth - 1

