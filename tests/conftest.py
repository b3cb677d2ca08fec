"""Keep hypothesis's files inside pytest's own cache directory.

The property tests store no examples (database=None), but hypothesis also
caches the constants it scans from local source files, by default under
.hypothesis/ in the working directory, and it does so while tests are
collected.  Pointing its home directory into .pytest_cache keeps a test run
from leaving that directory behind."""


def pytest_configure(config):
    cache = getattr(config, "cache", None)  # absent under -p no:cacheprovider
    if cache is not None:
        from hypothesis.configuration import set_hypothesis_home_dir

        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
