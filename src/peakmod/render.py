"""Static ASCII and SVG drawings of paths and trees.

Output is deterministic byte-for-byte for a given input, which makes the
drawings usable in golden tests.  The ASCII path grid approximates a
down-step of drop k by a backslash over the top unit and pipes below;
level steps are underscores sitting on their height line.  Labels, when
requested, are listed in a legend line keyed by block start index (for
paths) or drawn inside the nodes (for trees).
"""

from __future__ import annotations

from .core import LatticePath, NodeLabel, PositionalTree, height_profile


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def render_path_ascii(path: LatticePath,
                      labels: dict[int, NodeLabel] | None = None) -> str:
    heights = height_profile(path)
    cells: dict[tuple[int, int], str] = {}
    x = 0
    for i, step in enumerate(path.steps):
        h = heights[i]
        if step.kind == "u":
            cells[h, x] = "/"
            x += 1
        elif step.kind == "d":
            cells[h - 1, x] = "\\"
            for row in range(heights[i + 1], h - 1):
                cells[row, x] = "|"
            x += 1
        else:
            for dx in range(step.length):
                cells[h, x + dx] = "_"
            x += step.length
    lines = []
    if cells:
        top = max(r for r, _ in cells)
        width = max(c for _, c in cells) + 1
        for row in range(top, -1, -1):
            line = "".join(cells.get((row, col), " ") for col in range(width))
            lines.append(line.rstrip())
    if labels:
        legend = " ".join(f"{i}={labels[i].display()}" for i in sorted(labels))
        lines.append(f"labels: {legend}")
    return "\n".join(lines)


def render_path_svg(path: LatticePath,
                    labels: dict[int, NodeLabel] | None = None,
                    unit: int = 20) -> str:
    heights = height_profile(path)
    margin = unit
    top = max(heights) if heights else 0
    width = path.path_length * unit + 2 * margin
    height = (top - min(heights) + 1) * unit + 2 * margin

    def xy(x_units: int, h: int) -> tuple[int, int]:
        return margin + x_units * unit, margin + (top - h) * unit

    points = []
    x = 0
    points.append(xy(0, heights[0]))
    for i, step in enumerate(path.steps):
        x += step.length
        points.append(xy(x, heights[i + 1]))
    point_str = " ".join(f"{px},{py}" for px, py in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<polyline points="{point_str}" fill="none" stroke="black" '
        'stroke-width="2"/>',
    ]
    if labels:
        # each label belongs to the vertex after its block start step
        offsets = [0]
        for step in path.steps:
            offsets.append(offsets[-1] + step.length)
        for i in sorted(labels):
            px, py = xy(offsets[i + 1], heights[i + 1])
            parts.append(f'<text x="{px + 3}" y="{py - 4}" '
                         f'font-size="{unit // 2 + 2}">'
                         f"{labels[i].display()}</text>")
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def _node_text(node: PositionalTree) -> str:
    return node.label.display() if node.label is not None else "*"


def _preorder(tree: PositionalTree) -> list[tuple]:
    """(node, parent index, depth, position) in preorder, without recursion."""
    out: list[tuple] = []
    stack = [(tree, -1, 0, 0)]
    while stack:
        node, parent, depth, pos = stack.pop()
        idx = len(out)
        out.append((node, parent, depth, pos))
        stack.extend((child, idx, depth + 1, p)
                     for p, child in reversed(node.children))
    return out


def render_tree_ascii(tree: PositionalTree | None) -> str:
    if tree is None:
        return ""
    return "\n".join(_node_text(node) if parent < 0 else
                     "  " * depth + f"{pos}: {_node_text(node)}"
                     for node, parent, depth, pos in _preorder(tree))


def render_tree_svg(tree: PositionalTree | None, unit: int = 40) -> str:
    if tree is None:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="0" '
                'height="0" viewBox="0 0 0 0"></svg>')
    order = _preorder(tree)
    kids: list[list[int]] = [[] for _ in order]
    for idx, (_, parent, _, _) in enumerate(order):
        if parent >= 0:
            kids[parent].append(idx)
    # leaves take consecutive horizontal slots; parents sit midway
    xs = [0.0] * len(order)
    leaves = 0
    for idx in range(len(order)):
        if not kids[idx]:
            xs[idx] = float(leaves)
            leaves += 1
    for idx in range(len(order) - 1, -1, -1):
        if kids[idx]:
            xs[idx] = sum(xs[c] for c in kids[idx]) / len(kids[idx])
    deepest = max(depth for _, _, depth, _ in order)
    margin = unit
    width = int((leaves - 1) * unit + 2 * margin) if leaves > 1 \
        else 2 * margin
    height = deepest * unit + 2 * margin

    def xy(idx: int) -> tuple[int, int]:
        return int(margin + xs[idx] * unit), margin + order[idx][2] * unit

    edges = []  # in preorder of the lower end
    for idx, (_, parent, _, pos) in enumerate(order):
        if parent >= 0:
            (px, py), (cx, cy) = xy(parent), xy(idx)
            edges.append(f'<line x1="{px}" y1="{py}" x2="{cx}" y2="{cy}" '
                         'stroke="black"/>')
            edges.append(f'<text x="{(px + cx) // 2 + 2}" '
                         f'y="{(py + cy) // 2}" font-size="10">{pos}</text>')
    # postorder is the reverse of a preorder that visits children last first
    right_first, stack = [], [0]
    while stack:
        idx = stack.pop()
        right_first.append(idx)
        stack.extend(kids[idx])
    nodes = []
    r = unit // 3
    for idx in reversed(right_first):
        px, py = xy(idx)
        nodes.append(f'<circle cx="{px}" cy="{py}" r="{r}" fill="white" '
                     'stroke="black"/>')
        text = _node_text(order[idx][0])
        if text != "*":
            nodes.append(f'<text x="{px}" y="{py + 4}" font-size="11" '
                         f'text-anchor="middle">{text}</text>')
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    parts.extend(edges)
    parts.extend(nodes)
    parts.append("</svg>")
    return "\n".join(parts)
