"""The bounded LRU behind the process-global memo caches."""

from __future__ import annotations

from repro.lru import LRUCache


def test_holds_at_most_its_size_and_evicts_the_oldest_first():
    cache = LRUCache(3)
    for k in range(5):
        cache.put(k, str(k))
    assert len(cache) == 3
    assert [k in cache for k in range(5)] == [False, False, True, True, True]
    assert cache.get(0) is None
    assert cache.get(4) == "4"


def test_get_refreshes_recency_and_membership_does_not():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)  # evicts b, the least recently used
    assert "a" in cache and "b" not in cache
    assert "a" in cache  # a membership test touches nothing...
    cache.put("d", 4)  # ...so a, read before c was stored, goes next
    assert "a" not in cache and "c" in cache and "d" in cache


def test_put_on_a_held_key_replaces_and_refreshes():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)
    cache.put("c", 3)
    assert cache.get("a") == 10 and "b" not in cache
    cache.clear()
    assert len(cache) == 0 and cache.get("a") is None
