"""JSON text for checkpoints and metric reports.

json.dumps writes every float as repr(float), the shortest decimal that
parses back to the same bits, so parse(write(x)) == x and rewriting a
parsed document reproduces it byte for byte. NaN and infinity raise
ValueError, since JSON has no text for them.
"""

from __future__ import annotations

import json


def json_text(doc) -> str:
    """A document of dicts, lists and scalars as indented JSON text."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
