"""The reference kernel's time does not depend on the program's heap."""

import gc
import statistics

import reference


def retained_heap():
    """About a million container objects in reference cycles, kept alive."""
    heap = []
    for i in range(200_000):
        node = [i, None]
        node[1] = node
        heap.append((node, {i: node}, [node]))
    return heap


def collections_during(action):
    seen = []

    def callback(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(callback)
    try:
        action()
    finally:
        gc.callbacks.remove(callback)
    return seen


def test_the_kernel_runs_no_collection_and_restores_the_collector():
    heap = retained_heap()
    assert gc.isenabled()
    assert collections_during(lambda: reference.seconds(20)) == []
    assert gc.isenabled()
    gc.disable()
    try:
        reference.seconds(1)
        assert not gc.isenabled()
    finally:
        gc.enable()
    del heap


def test_a_large_retained_heap_does_not_slow_the_kernel():
    def fastest():
        return min(reference.seconds() for _ in range(40))

    gc.collect()
    alone = fastest()
    heap = retained_heap()
    with_heap = fastest()
    del heap
    assert 0.7 < with_heap / alone < 1.4
