"""Default report bytes against ``tests/golden/sections.json``, generated by
``tests/golden/regenerate.py``.

The fixture holds a sha256 per report section; a failure names the sections
that moved.  The bytes depend on OpenBLAS's CPU-specific kernels, so the test
skips unless numpy's version and OpenBLAS's config string match the ones the
fixture was made with.
"""

import json

import pytest

from golden.regenerate import FIXTURE, environment, moved_sections, section_hashes


def test_default_report_bytes_match_the_golden_fixture():
    fixture = json.loads(FIXTURE.read_text())
    here = environment()
    if here != fixture["environment"]:
        pytest.skip(f"golden fixture made on {fixture['environment']}, this is {here}")
    moved = moved_sections(fixture["sections"], section_hashes())
    assert not moved, "sections whose bytes moved:\n" + "\n".join(moved)
