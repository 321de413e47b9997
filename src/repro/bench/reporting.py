"""Small helpers to render experiment results as text tables/series."""

from __future__ import annotations


def format_table(rows, columns=None, title=None, float_format="{:.3f}"):
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def cell(value):
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    table = [[cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), max(len(line[index]) for line in table))
        for index, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in table:
        lines.append("  ".join(value.ljust(width) for value, width in zip(line, widths)))
    return "\n".join(lines)


def format_series(series, label_x="x", label_y="y", title=None, float_format="{:.3f}"):
    """Render an (x, y) series as two aligned columns."""
    rows = [{label_x: x, label_y: y} for x, y in series]
    return format_table(rows, columns=[label_x, label_y], title=title,
                        float_format=float_format)
