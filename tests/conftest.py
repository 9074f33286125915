import pytest
from hypothesis import settings

from hoeffding import characterization

# exact-arithmetic cases have wildly varying per-example cost; wall-clock
# deadlines would only add flakiness
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace verify_hd's process pool with an in-process stand-in that
    starts no process; the fixture value lists each pool's max_workers."""
    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(characterization, "ProcessPoolExecutor", RecordingPool)
    return created
