"""Small shared output helpers: deterministic CSV number formatting."""

from __future__ import annotations

# Format a float with 9 significant digits for CSV emission.  ``fmt`` is a
# bound method rather than a function: one Python frame fewer per value.
FLOAT = "{:.9g}"
fmt = FLOAT.format
