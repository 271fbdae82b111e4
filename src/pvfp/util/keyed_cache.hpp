#pragma once
/// \file keyed_cache.hpp
/// The one "join the in-flight build, else build and LRU-insert" cache
/// behind every resident store: decoded DSM tiles (gis::TileCache),
/// horizon macro-tile planes and their tile fingerprints
/// (gis::HorizonCache), and the serving daemon's prepared roofs and
/// per-site sky artifacts (serve::ResidentState).
///
/// Semantics:
///  * Joins.  The first requester of a missing key builds it with no
///    cache lock held, so misses on different keys build fully in
///    parallel.  Concurrent requesters of the same key wait on that
///    build's own latch (never the cache-wide mutex) and share its value.
///  * Errors.  A build that throws hands the same exception to every
///    joiner and caches nothing, so the next request retries.
///  * Versions.  Every entry carries the version (a content hash) it was
///    built for.  A request whose version differs from the resident
///    entry's drops that entry as stale and rebuilds.  A joiner whose
///    version differs from the running build's waits for it, then
///    retries instead of taking a value built from other inputs.
///  * Budget.  Every entry has a cost (1 unless a cost function is
///    given).  After each insert the least recently used entries are
///    evicted while the total cost exceeds the budget, always keeping
///    the newest, so one entry larger than the budget still serves
///    instead of rebuilding on every request.  shrink_to and clear go
///    below that floor.
///  * Counters.  hits (served resident), joins (waited on a running
///    build), misses (builds started), evictions (budget, shrink_to,
///    erase_if) and invalidations (stale version, erase).
///
/// Values are immutable and shared: dropping an entry releases the
/// cache's reference, never memory a caller still holds.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace pvfp {

/// Snapshot of one KeyedCache's counters and residency.
struct KeyedCacheStats {
    std::size_t hits = 0;           ///< served resident
    std::size_t joins = 0;          ///< waited on another caller's build
    std::size_t misses = 0;         ///< builds started
    std::size_t evictions = 0;      ///< dropped for the budget
    std::size_t invalidations = 0;  ///< dropped as stale
    std::size_t entries = 0;        ///< resident entries
    std::size_t cost = 0;           ///< total cost of the resident entries
};

template <typename K, typename V>
class KeyedCache {
public:
    using Value = std::shared_ptr<const V>;
    using Cost = std::function<std::size_t(const V&)>;

    /// \p budget bounds the total cost of resident entries; \p cost
    /// prices one value (unset: every entry costs 1).
    explicit KeyedCache(
        std::size_t budget = std::numeric_limits<std::size_t>::max(),
        Cost cost = {})
        : budget_(budget), cost_fn_(std::move(cost)) {}

    KeyedCache(const KeyedCache&) = delete;
    KeyedCache& operator=(const KeyedCache&) = delete;

    /// The value of \p key at \p version: the resident entry when its
    /// version matches, else the result of a running build of the same
    /// version, else `build()` (which must return a non-null Value).
    /// \p built, when non-null, is set to whether this call ran the
    /// build.  A build error propagates to this caller and every joiner.
    template <typename Build>
    Value get(const K& key, std::uint64_t version, Build&& build,
              bool* built = nullptr) {
        if (built) *built = false;
        for (;;) {
            std::shared_ptr<Flight> flight;
            bool owner = false;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                const auto it = index_.find(key);
                if (it != index_.end()) {
                    if (it->second->version == version) {
                        lru_.splice(lru_.begin(), lru_, it->second);
                        ++stats_.hits;
                        return it->second->value;
                    }
                    drop_locked(it);
                    ++stats_.invalidations;
                }
                const auto fl = in_flight_.find(key);
                if (fl != in_flight_.end()) {
                    flight = fl->second;
                    ++stats_.joins;
                } else {
                    flight = std::make_shared<Flight>();
                    flight->version = version;
                    in_flight_.emplace(key, flight);
                    owner = true;
                    ++stats_.misses;
                }
            }

            if (!owner) {
                std::unique_lock<std::mutex> lock(flight->mutex);
                flight->done_cv.wait(lock, [&] { return flight->done; });
                if (flight->error) std::rethrow_exception(flight->error);
                if (flight->version == version) return flight->value;
                continue;  // built from other inputs: look again
            }

            Value value;
            std::size_t cost = 1;
            std::exception_ptr error;
            try {
                value = build();
                if (cost_fn_) cost = cost_fn_(*value);
            } catch (...) {
                error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                in_flight_.erase(key);
                if (!error) {
                    lru_.push_front(Entry{key, version, value, cost});
                    index_[key] = lru_.begin();
                    cost_ += cost;
                    while (lru_.size() > 1 && cost_ > budget_) evict_locked();
                }
            }
            {
                std::lock_guard<std::mutex> lock(flight->mutex);
                flight->done = true;
                flight->value = value;
                flight->error = error;
            }
            flight->done_cv.notify_all();
            if (built) *built = true;
            if (error) std::rethrow_exception(error);
            return value;
        }
    }

    /// Evict least recently used entries while `over(total cost)` holds,
    /// keeping the newest — for budgets that also count state held
    /// outside this cache.  \p over runs under the cache lock.
    template <typename Over>
    void evict_while(Over&& over) {
        std::lock_guard<std::mutex> lock(mutex_);
        while (lru_.size() > 1 && over(cost_)) evict_locked();
    }

    /// Evict least recently used entries until the total cost is at
    /// most \p limit (no keep-newest floor).  Running builds still
    /// insert when they finish.
    void shrink_to(std::size_t limit) {
        std::lock_guard<std::mutex> lock(mutex_);
        while (cost_ > limit && !lru_.empty()) evict_locked();
    }

    /// Evict every resident entry whose Value satisfies \p pred.
    template <typename Pred>
    void erase_if(Pred&& pred) {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = lru_.begin(); it != lru_.end();) {
            const auto next = std::next(it);
            if (pred(it->value)) {
                drop_locked(index_.find(it->key));
                ++stats_.evictions;
            }
            it = next;
        }
    }

    /// Drop \p key's resident entry as stale (no-op when absent).
    void erase(const K& key) {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(key);
        if (it == index_.end()) return;
        drop_locked(it);
        ++stats_.invalidations;
    }

    /// Drop every resident entry (counts nothing).
    void clear() {
        std::lock_guard<std::mutex> lock(mutex_);
        lru_.clear();
        index_.clear();
        cost_ = 0;
    }

    /// Call `f(const V&)` on every resident value, under the cache lock.
    template <typename F>
    void for_each(F&& f) const {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Entry& entry : lru_) f(*entry.value);
    }

    /// Total cost of the resident entries.
    std::size_t cost() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return cost_;
    }

    KeyedCacheStats stats() const {
        std::lock_guard<std::mutex> lock(mutex_);
        KeyedCacheStats s = stats_;
        s.entries = lru_.size();
        s.cost = cost_;
        return s;
    }

private:
    struct Entry {
        K key;
        std::uint64_t version = 0;
        Value value;
        std::size_t cost = 0;
    };
    using Index = std::map<K, typename std::list<Entry>::iterator>;

    /// One build in progress; joiners block on its own latch.
    struct Flight {
        std::mutex mutex;
        std::condition_variable done_cv;
        bool done = false;
        std::uint64_t version = 0;
        Value value;
        std::exception_ptr error;
    };

    void drop_locked(typename Index::iterator it) {
        cost_ -= it->second->cost;
        lru_.erase(it->second);
        index_.erase(it);
    }

    void evict_locked() {
        drop_locked(index_.find(lru_.back().key));
        ++stats_.evictions;
    }

    const std::size_t budget_;
    const Cost cost_fn_;

    mutable std::mutex mutex_;
    std::list<Entry> lru_;  ///< front = most recently used
    Index index_;
    std::map<K, std::shared_ptr<Flight>> in_flight_;
    std::size_t cost_ = 0;
    KeyedCacheStats stats_;
};

}  // namespace pvfp
