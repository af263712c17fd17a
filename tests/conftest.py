import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "blindcal",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI selects this profile (HYPOTHESIS_PROFILE=ci): five times the examples of
# every test that does not fix its own count
settings.register_profile(
    "ci",
    parent=settings.get_profile("blindcal"),
    max_examples=5 * settings.get_profile("blindcal").max_examples,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "blindcal"))
