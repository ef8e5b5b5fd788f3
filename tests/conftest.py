"""Suite-wide configuration: the Hypothesis profiles.

``default`` is what tier-1 runs.  ``--hypothesis-profile=deep`` (the CI
``codec-fuzz`` job) gives every property that does not pin its own
``max_examples`` ten times the examples.
"""

from hypothesis import settings

settings.register_profile("default", max_examples=100)
settings.register_profile("deep", max_examples=1000)
