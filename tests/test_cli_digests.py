"""The eight CLI outputs that tests/cli_digests.py hashes match the digests
committed in tests/data/cli_digests.json byte for byte."""

import json

import cli_digests


def test_cli_outputs_match_committed_digests(tmp_path):
    expected = json.loads(cli_digests.EXPECTED.read_text(encoding="utf-8"))
    assert dict(cli_digests.digests(tmp_path)) == expected
