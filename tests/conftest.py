import importlib.util
import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=deep runs the property tests that take their example
# count from the loaded profile (test_compiled_random_tree_matches_evaluate)
# at 10 times their tier-1 count; CI runs it as a step of its own
settings.register_profile("deep", max_examples=5000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def bench_problems():
    """perfbench/problems.py loaded by file path; it needs only the package."""
    path = Path(__file__).parents[1] / "perfbench" / "problems.py"
    module_spec = importlib.util.spec_from_file_location("_bench_problems", path)
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = module  # dataclasses look their module up
    module_spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def large_anchor(bench_problems):
    """The benchmark's large manufactured problem ("order/large"): gamma < 1,
    d != 0 and two taus."""
    return bench_problems.large_problem(random.Random("order/large")).spec


@pytest.fixture(scope="session")
def batch_anchor(bench_problems):
    """The benchmark's small-batch manufactured problem ("order/batch"),
    solved at n_base 128-256 there: gamma ~ 0.854, tau = b."""
    return bench_problems.batch_problem(random.Random("order/batch")).spec
