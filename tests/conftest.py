import importlib.util
import random
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def large_anchor():
    """The benchmark's large manufactured problem ("order/large"): gamma < 1,
    d != 0 and two taus; problems.py needs only the package."""
    path = Path(__file__).parents[1] / "perfbench" / "problems.py"
    module_spec = importlib.util.spec_from_file_location("_bench_problems", path)
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = module  # dataclasses look their module up
    module_spec.loader.exec_module(module)
    return module.large_problem(random.Random("order/large")).spec
