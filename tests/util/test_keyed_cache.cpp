/// \file test_keyed_cache.cpp
/// pvfp::KeyedCache paths no user suite reaches: a stale-version joiner,
/// an error fanned out to gated joiners, the keep-newest floor under an
/// oversized entry, shrink_to(0), and the exact counters of a scripted
/// hit/join/miss/evict/invalidate sequence.  The gated builds wait on the
/// cache's own join counter, so every interleaving here is forced, not
/// hoped for; the TSan job runs this suite.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pvfp/util/keyed_cache.hpp"

namespace pvfp {
namespace {

using Cache = KeyedCache<std::string, int>;

std::shared_ptr<const int> value(int v) {
    return std::make_shared<const int>(v);
}

/// Block (bounded) until \p done holds for \p cache's counters.  A build
/// calls it to hold its latch until the joiners it expects are parked; a
/// test calls it to start a joiner only once the owner's build runs.
template <typename Done>
bool await_stats(const Cache& cache, Done done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!done(cache.stats())) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::yield();
    }
    return true;
}

bool await_joins(const Cache& cache, std::size_t n) {
    return await_stats(cache,
                       [n](const KeyedCacheStats& s) { return s.joins >= n; });
}

bool await_misses(const Cache& cache, std::size_t n) {
    return await_stats(
        cache, [n](const KeyedCacheStats& s) { return s.misses >= n; });
}

TEST(KeyedCache, StaleVersionJoinerRetriesInsteadOfTakingTheBuild) {
    Cache cache;
    std::atomic<int> builds{0};
    std::shared_ptr<const int> got_v1;
    std::thread owner([&] {
        got_v1 = cache.get("roof", 1, [&] {
            ++builds;
            if (!await_joins(cache, 1)) throw std::runtime_error("no join");
            return value(1);
        });
    });
    // Joins the version-1 build while it runs; must not take its value.
    EXPECT_TRUE(await_misses(cache, 1));
    std::shared_ptr<const int> got_v2;
    bool built_v2 = false;
    std::thread joiner([&] {
        got_v2 = cache.get(
            "roof", 2,
            [&] {
                ++builds;
                return value(2);
            },
            &built_v2);
    });
    owner.join();
    joiner.join();

    ASSERT_NE(got_v1, nullptr);
    ASSERT_NE(got_v2, nullptr);
    EXPECT_EQ(*got_v1, 1);
    EXPECT_EQ(*got_v2, 2);  // rebuilt for its own version
    EXPECT_TRUE(built_v2);
    EXPECT_EQ(builds.load(), 2);
    const KeyedCacheStats stats = cache.stats();
    EXPECT_EQ(stats.joins, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.invalidations, 1u);  // the version-1 entry, dropped
    EXPECT_EQ(stats.entries, 1u);
    // The resident entry is now version 2.
    EXPECT_EQ(*cache.get("roof", 2, [] { return value(-1); }), 2);
}

TEST(KeyedCache, ErrorReachesEveryGatedJoinerAndALaterCallRebuilds) {
    constexpr int kJoiners = 5;
    Cache cache;
    std::atomic<int> builds{0};
    std::atomic<int> errors{0};
    const auto failing = [&]() -> std::shared_ptr<const int> {
        ++builds;
        await_joins(cache, kJoiners);
        throw std::runtime_error("build failed");
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kJoiners + 1; ++t)
        threads.emplace_back([&] {
            try {
                (void)cache.get("tile", 0, failing);
            } catch (const std::runtime_error&) {
                ++errors;
            }
        });
    for (std::thread& t : threads) t.join();

    EXPECT_EQ(errors.load(), kJoiners + 1);  // owner and every joiner
    EXPECT_EQ(builds.load(), 1);
    KeyedCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.joins, static_cast<std::size_t>(kJoiners));
    EXPECT_EQ(stats.entries, 0u);  // nothing cached

    // The next call builds again, and a healthy build is cached.
    bool built = false;
    EXPECT_EQ(*cache.get("tile", 0, [] { return value(7); }, &built), 7);
    EXPECT_TRUE(built);
    stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(KeyedCache, OneOversizedEntryStaysResident) {
    // Priced at its value against a budget of 10.
    Cache cache(10, [](const int& v) { return static_cast<std::size_t>(v); });
    (void)cache.get("big", 0, [] { return value(100); });
    KeyedCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.cost, 100u);
    EXPECT_EQ(stats.evictions, 0u);
    bool built = true;
    EXPECT_EQ(*cache.get("big", 0, [] { return value(-1); }, &built), 100);
    EXPECT_FALSE(built);  // served resident, not rebuilt

    // A newer entry takes its place; the floor keeps the newest only.
    (void)cache.get("bigger", 0, [] { return value(50); });
    stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.cost, 50u);
    EXPECT_EQ(stats.evictions, 1u);
}

TEST(KeyedCache, ShrinkToZeroEmptiesTheCache) {
    Cache cache;
    for (const char* key : {"a", "b", "c"})
        (void)cache.get(key, 0, [] { return value(1); });
    ASSERT_EQ(cache.stats().entries, 3u);
    cache.shrink_to(0);
    const KeyedCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.cost, 0u);
    EXPECT_EQ(stats.evictions, 3u);
    EXPECT_EQ(cache.cost(), 0u);
}

TEST(KeyedCache, CountersFollowAScriptedSequence) {
    Cache cache(2);  // two entries of cost 1
    const auto build = [](int v) { return [v] { return value(v); }; };
    (void)cache.get("a", 0, build(1));  // miss
    (void)cache.get("a", 0, build(1));  // hit
    (void)cache.get("b", 0, build(2));  // miss
    (void)cache.get("a", 0, build(1));  // hit; "b" is now least recent
    (void)cache.get("c", 0, build(3));  // miss, evicts "b"
    (void)cache.get("b", 0, build(2));  // miss, evicts "a"
    (void)cache.get("c", 1, build(4));  // stale: invalidation, miss
    cache.erase("b");                   // invalidation
    cache.erase("absent");              // no-op

    // Miss and join: a second caller parks on the running build of "d".
    std::thread owner([&] {
        (void)cache.get("d", 0, [&] {
            await_joins(cache, 1);
            return value(5);
        });
    });
    EXPECT_TRUE(await_misses(cache, 6));
    std::thread joiner([&] { (void)cache.get("d", 0, build(-1)); });
    owner.join();
    joiner.join();

    const KeyedCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.joins, 1u);
    EXPECT_EQ(stats.misses, 6u);
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.invalidations, 2u);
    EXPECT_EQ(stats.entries, 2u);  // "c" (version 1) and "d"
    EXPECT_EQ(stats.cost, 2u);
}

}  // namespace
}  // namespace pvfp
