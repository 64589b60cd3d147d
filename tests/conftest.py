"""Suite-wide settings.

Property tests draw their examples from a fixed seed and have no time
limit per example, so a run is repeatable and does not fail on a slow
or busy machine.
"""

from hypothesis import settings

settings.register_profile("ncflux", derandomize=True, deadline=None)
settings.load_profile("ncflux")
