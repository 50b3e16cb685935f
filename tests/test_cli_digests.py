"""The CLI outputs that tests/cli_digests.py hashes match the digests
committed in tests/data/cli_digests.json byte for byte."""

import json
import re

import cli_digests


def test_cli_outputs_match_committed_digests(tmp_path):
    expected = json.loads(cli_digests.EXPECTED.read_text(encoding="utf-8"))
    message = cli_digests.mismatch(cli_digests.digests(tmp_path), expected)
    assert not message, message


def test_a_mismatch_names_the_outputs_and_the_platform(monkeypatch, tmp_path):
    expected = {"model": "a", "synth": "b", "cdf a": "c"}
    message = cli_digests.mismatch([("model", "a"), ("synth", "x"), ("report", "d")], expected)
    assert re.fullmatch(
        r"digests differ from cli_digests\.json: synth, cdf a, report "
        r"\(on numpy \d+\.\d+\S*, SIMD [\w ]+, OpenBLAS \w+\)", message)
    assert cli_digests.mismatch(list(expected.items()), expected) == ""
    monkeypatch.setattr(cli_digests, "NUMPY_LIBS", tmp_path)
    assert cli_digests.platform().endswith(", OpenBLAS unknown")
