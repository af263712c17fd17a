import os
import warnings

from hypothesis import HealthCheck, settings


def pytest_runtest_makereport(item, call):
    # To show a failing example, hypothesis writes a patch through
    # hypothesis.extra._patching, which imports libcst; that import warns through
    # mypy_extensions.TypedDict, and under -W error::DeprecationWarning the
    # warning would end the run as an INTERNALERROR with no example. Once a test
    # fails, import it here first, ignoring only DeprecationWarning. Importing
    # it up front would add libcst's import, 0.6 s on a 2-vCPU host, to every run.
    if call.when == "call" and call.excinfo is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # without libcst, hypothesis writes no patch
                pass


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
