"""Every name the benchmark's tracer wraps must exist in the program.

A traced run stops with MissingTarget when a public name it wraps is gone;
this test makes a rename of, say, curvature_fd or PointCurvature.sectional
fail the test suite as well.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402


@pytest.mark.parametrize("module, attr", [t[:2] for t in tracing.TARGETS],
                         ids=[t[1] for t in tracing.TARGETS])
def test_target_resolves(module, attr):
    owner = importlib.import_module("warpgeo." + module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
