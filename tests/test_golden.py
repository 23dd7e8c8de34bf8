"""Default reports against ``tests/golden/``, generated by ``tests/golden/regenerate.py``.

``sections.json`` holds a sha256 per report section; a failure names the
sections that moved.  The bytes depend on OpenBLAS's CPU-specific kernels, so
that test skips unless numpy's version and OpenBLAS's config string match the
ones the fixture was made with.  ``values.json`` holds the same reports'
values, which every build must reproduce: discrete entries exactly, floats to
rounding.  The covered reports are computed once for both.
"""

import json

import pytest

from golden.regenerate import (FIXTURE, VALUES, covered_reports, environment, moved_sections,
                               report_values, section_hashes, value_differences)


@pytest.fixture(scope="session")
def covered():
    return covered_reports()


def test_default_report_bytes_match_the_golden_fixture(covered):
    fixture = json.loads(FIXTURE.read_text())
    here = environment()
    if here != fixture["environment"]:
        pytest.skip(f"golden fixture made on {fixture['environment']}, this is {here}")
    moved = moved_sections(fixture["sections"], section_hashes(covered))
    assert not moved, "sections whose bytes moved:\n" + "\n".join(moved)


def test_default_report_values_match_on_any_build(covered):
    differences = value_differences(json.loads(VALUES.read_text()), report_values(covered))
    assert not differences, "entries that moved:\n" + "\n".join(differences[:50])
