"""The limits README quotes are the code's constants, and its CLI examples run."""

import re
import shlex
from pathlib import Path

import pytest

from foliationlab import cli, genericity, jouanolou, spectral

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
LIMITS = {
    "MEMBER_MAX_ENTRIES": jouanolou.MEMBER_MAX_ENTRIES,
    "CENSUS_MAX_POINTS": genericity.CENSUS_MAX_POINTS,
    "SCAN_MAX_BYTES": spectral.SCAN_MAX_BYTES,
    "SAMPLE_BLOCK": genericity.SAMPLE_BLOCK,
    "DEFECT_NOISE_FLOOR": genericity.DEFECT_NOISE_FLOOR,
    "SUBMERSION_RTOL": genericity.SUBMERSION_RTOL,
    "RANK_GAP": genericity.RANK_GAP,
    "FACTOR_TOL": jouanolou.FACTOR_TOL,
}
# the commands of the code block under "## CLI"
EXAMPLES = [line for line in README.split("\n## CLI\n")[1].split("```")[1].splitlines()
            if line.startswith("foliationlab ")]


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


def test_readme_has_one_cli_example_per_subcommand():
    assert sorted(shlex.split(line)[1] for line in EXAMPLES) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_cli_example_exits_zero(capsys, line):
    assert cli.run(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
