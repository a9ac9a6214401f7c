"""Every output a fixed CLI session writes, pinned by its sha256 (``tests/make_outputs.py``)."""

import json

from make_outputs import MANIFEST, session


def test_every_output_matches_its_recorded_digest(tmp_path):
    with open(MANIFEST) as f:
        want = json.load(f)
    got = session(tmp_path)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []
