"""Property test of the alignment census on point sets with planted lines.

Needs hypothesis; without it the module is skipped and the fixed census
cases in test_genericity.py still run.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from test_genericity import _assert_census_equals_pair_sweep, _points

from foliationlab import RunConfig


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 5), d=st.integers(2, 3), lines=st.integers(1, 3),
       per_line=st.integers(2, 4), extra=st.integers(0, 4),
       tol=st.sampled_from([1e-8, 1e-3, 0.05]), seed=st.integers(0, 2**32 - 1))
def test_census_of_planted_lines_equals_pair_sweep(n, d, lines, per_line, extra, tol, seed):
    # points on random complex lines, each off its line by 0, tol / 2,
    # tol (1 -+ 1e-6) or 2 tol, in random order among random points
    rng = np.random.default_rng(seed)
    coords = []
    for _ in range(lines):
        p0, u, v = rng.normal(size=(3, n, 2)) @ [1.0, 1j]
        u /= np.linalg.norm(u)
        z = v - np.vdot(u, v) * u
        z /= np.linalg.norm(z)
        for t in rng.normal(size=per_line + 1) * 2:
            off = tol * rng.choice([0.0, 0.5, 1 - 1e-6, 1 + 1e-6, 2.0])
            coords.append(p0 + t * u + off * np.exp(2j * np.pi * rng.random()) * z)
    coords += list(rng.normal(size=(extra, n, 2)) @ [1.0, 1j])
    coords = [coords[i] for i in rng.permutation(len(coords))]
    d = min(d, len(coords) - 1)
    _assert_census_equals_pair_sweep(_points(coords), d, RunConfig(align_tol=tol))

