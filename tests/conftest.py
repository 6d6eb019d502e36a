import tracemalloc

import hypothesis

# first calls populate lru caches, which can trip the per-example deadline
hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")


def traced_peak(fn):
    """fn()'s result and the peak of the memory traced while it ran.

    Tracing stops in a finally, so a call that raises cannot leave it on
    for the tests after it, whose peaks would then start from this one's.
    """
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
