from hypothesis import settings

# Property tests draw the same examples on every run, never time out under
# load and keep no example database, so the suite stays deterministic.
settings.register_profile("fdbands", derandomize=True, deadline=None, database=None, max_examples=25)
settings.load_profile("fdbands")
