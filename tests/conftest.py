from hypothesis import settings

# exact-arithmetic cases have wildly varying per-example cost; wall-clock
# deadlines would only add flakiness
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

