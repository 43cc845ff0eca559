from hypothesis import settings

# Property tests draw the same examples on every run, so tier-1 time and
# results stay fixed; no example database is written.
settings.register_profile("hybridiq", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("hybridiq")
