from hypothesis import settings

#: hypothesis runs the same examples on every run, with no example database
settings.register_profile(
    "latentid", derandomize=True, deadline=None, database=None, max_examples=60
)
settings.load_profile("latentid")
