"""Render header+rows tables as aligned text, CSV, or markdown."""

from __future__ import annotations

import csv
import io

from .errors import SchemaError

__all__ = ["TABLE_FORMATS", "render_table"]

TABLE_FORMATS = ("aligned", "csv", "markdown")


def render_table(headers: list[str], rows: list[list[str]], fmt: str = "aligned") -> str:
    if fmt == "aligned":
        widths = [len(h) for h in headers]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(headers) + " |",
            "| " + " | ".join("---" for _ in headers) + " |",
        ]
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"
    raise SchemaError(f"unknown table format {fmt!r}; choose from {TABLE_FORMATS}")

