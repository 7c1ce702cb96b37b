import warnings

import numpy as np
import pytest
from hypothesis import settings

from pointscatter.verify import resolve_seed

# Hypothesis imports this module lazily to print a falsifying example, and the
# import (via libcst) raises a mypy_extensions DeprecationWarning, which the
# suite's "error" filter turns into an INTERNALERROR that hides the example.
# Loading it here, under a local filter, leaves the suite's filters as they are.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

SEED = resolve_seed()

settings.register_profile("pointscatter", deadline=None, max_examples=40,
                          derandomize=True)
settings.load_profile("pointscatter")


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)
