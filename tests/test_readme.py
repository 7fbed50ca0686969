"""The limits README quotes are the code's constants."""

import re
from pathlib import Path

import pytest

from foliationlab import genericity, jouanolou, spectral

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
LIMITS = {
    "MEMBER_MAX_ENTRIES": jouanolou.MEMBER_MAX_ENTRIES,
    "CENSUS_MAX_POINTS": genericity.CENSUS_MAX_POINTS,
    "SCAN_MAX_BYTES": spectral.SCAN_MAX_BYTES,
    "SAMPLE_BLOCK": genericity.SAMPLE_BLOCK,
    "DEFECT_NOISE_FLOOR": genericity.DEFECT_NOISE_FLOOR,
}


def _value(text: str):
    """A quoted value: an int, a float, or a power written base^exponent."""
    if "^" in text:
        base, exponent = text.split("^")
        return int(base) ** int(exponent)
    return float(text) if any(c in text for c in ".e") else int(text)


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_readme_quotes_each_limit_as_the_code_defines_it(name):
    quoted = re.findall(rf"`{name} = ([^`]+)`", README)
    assert quoted, f"README does not quote {name}"
    for text in quoted:
        assert _value(text) == LIMITS[name], (name, text)
