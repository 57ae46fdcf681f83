/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <bit>
#include <vector>

#include <gtest/gtest.h>

#include "memsim/cache.hh"
#include "support/random.hh"

namespace m4ps::memsim
{
namespace
{

CacheConfig
tiny(int size = 1024, int assoc = 2, int line = 32)
{
    return {static_cast<uint64_t>(size), assoc, line};
}

TEST(CacheConfig, GeometryDerivation)
{
    CacheConfig c{32 * 1024, 2, 32};
    EXPECT_EQ(c.numSets(), 512u);
    c.validate();
    EXPECT_EQ(c.str(), "32KB 2-way 32B lines");
    CacheConfig big{8ull * 1024 * 1024, 2, 128};
    EXPECT_EQ(big.str(), "8MB 2-way 128B lines");
}

TEST(CacheConfigDeathTest, RejectsBadGeometry)
{
    CacheConfig bad{1000, 2, 32}; // not divisible
    EXPECT_DEATH(bad.validate(), "assertion");
    CacheConfig badline{1024, 2, 24};
    EXPECT_DEATH(badline.validate(), "power of two");
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x11f, false).hit);  // same 32B line
    EXPECT_FALSE(c.access(0x120, false).hit); // next line
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Cache c(tiny());
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.access(0x40, false).hit);
    EXPECT_TRUE(c.probe(0x40));
    // Probe must not refresh LRU: fill the set and check eviction
    // order is unaffected by probes.
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way, 32B lines, 1024B -> 16 sets. Lines mapping to set 0:
    // addresses 0, 16*32=512, 1024, ...
    Cache c(tiny());
    c.access(0, false);      // way A
    c.access(512, false);    // way B
    c.access(0, false);      // A is now MRU
    c.access(1024, false);   // evicts B (512)
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(512));
    EXPECT_TRUE(c.probe(1024));
}

TEST(Cache, DirtyVictimReported)
{
    Cache c(tiny());
    c.access(0, true); // dirty
    c.access(512, false);
    const AccessResult r = c.access(1024, false); // evicts addr 0
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedAddr, 0u);
}

TEST(Cache, CleanVictimNotReported)
{
    Cache c(tiny());
    c.access(0, false);
    c.access(512, false);
    const AccessResult r = c.access(1024, false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.evictedDirty);
}

TEST(Cache, WriteMarksLineDirtyOnHitToo)
{
    Cache c(tiny());
    c.access(0, false);      // clean install
    c.access(0, true);       // dirtied by a later store
    c.access(512, false);
    const AccessResult r = c.access(1024, false);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedAddr, 0u);
}

TEST(Cache, EvictedAddressRecoversFullLineAddress)
{
    Cache c(tiny(1024, 1, 32)); // direct mapped, 32 sets
    const uint64_t a = 0x12340;
    c.access(a, true);
    const uint64_t conflict = a + 1024; // same set, different tag
    const AccessResult r = c.access(conflict, false);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedAddr, a & ~31ull);
}

TEST(Cache, ResetInvalidatesEverything)
{
    Cache c(tiny());
    for (int i = 0; i < 8; ++i)
        c.access(i * 64, false);
    EXPECT_GT(c.validLines(), 0u);
    c.reset();
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, FillInstallsLikeAccess)
{
    Cache c(tiny());
    const AccessResult r = c.fill(0x200, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(c.probe(0x200));
    EXPECT_TRUE(c.fill(0x200, false).hit);
}

TEST(Cache, ValidLinesSaturatesAtCapacity)
{
    Cache c(tiny(1024, 2, 32)); // 32 lines total
    for (int i = 0; i < 100; ++i)
        c.access(static_cast<uint64_t>(i) * 32, false);
    EXPECT_EQ(c.validLines(), 32u);
}

/**
 * LRU inclusion property: with the same number of sets and line
 * size, a cache with higher associativity under true LRU never
 * misses on an access that a lower-associativity cache hits
 * (per-set stack inclusion).  We verify the aggregate corollary:
 * miss count is non-increasing in associativity.
 */
class LruInclusion : public ::testing::TestWithParam<int>
{
};

TEST_P(LruInclusion, MissesMonotoneInAssociativity)
{
    const int sets = 16;
    const int line = 32;
    const int assoc = GetParam();
    Cache small(CacheConfig{
        static_cast<uint64_t>(sets * line * assoc), assoc, line});
    Cache big(CacheConfig{
        static_cast<uint64_t>(sets * line * assoc * 2), assoc * 2,
        line});

    Rng rng(1234 + assoc);
    uint64_t misses_small = 0, misses_big = 0;
    for (int i = 0; i < 20000; ++i) {
        // Skewed working set with hot and cold regions.
        const uint64_t addr =
            rng.chance(0.7)
                ? static_cast<uint64_t>(rng.uniformInt(0, 63)) * line
                : static_cast<uint64_t>(rng.uniformInt(0, 4095)) * line;
        misses_small += small.access(addr, false).hit ? 0 : 1;
        misses_big += big.access(addr, false).hit ? 0 : 1;
    }
    EXPECT_LE(misses_big, misses_small);
}

INSTANTIATE_TEST_SUITE_P(Assocs, LruInclusion,
                         ::testing::Values(1, 2, 4, 8));

/** Sequential streaming through a cache misses once per line. */
TEST(Cache, StreamingMissesOncePerLine)
{
    Cache c(tiny(4096, 2, 32));
    uint64_t misses = 0;
    for (uint64_t b = 0; b < 64 * 1024; ++b)
        misses += c.access(b, false).hit ? 0 : 1;
    EXPECT_EQ(misses, 64u * 1024 / 32);
}

/** Blocked reuse hits: the phenomenon behind the whole paper. */
TEST(Cache, BlockedReuseHitsAfterFirstTouch)
{
    Cache c(tiny(8192, 2, 32));
    // Touch a 1KB block 100 times: 32 cold misses, everything else
    // hits because the block fits.
    uint64_t misses = 0;
    for (int rep = 0; rep < 100; ++rep)
        for (uint64_t b = 0; b < 1024; b += 4)
            misses += c.access(b, false).hit ? 0 : 1;
    EXPECT_EQ(misses, 1024u / 32);
}

/**
 * The timestamp-LRU cache that the recency-ordered Cache replaced,
 * kept verbatim as the reference model the differential test below
 * pins Cache to: a global clock ticks on every access or fill, each
 * way remembers its last use, a miss fills the first invalid way or
 * else evicts the way with the oldest last use.
 */
class TimestampLruCache
{
  public:
    explicit TimestampLruCache(const CacheConfig &config)
        : config_(config)
    {
        lineShift_ = std::countr_zero(
            static_cast<uint64_t>(config_.lineBytes));
        const uint64_t sets = config_.numSets();
        setShift_ = std::countr_zero(sets);
        setMask_ = sets - 1;
        ways_.resize(sets * config_.assoc);
    }

    AccessResult access(uint64_t addr, bool is_write)
    {
        return touch(addr, is_write);
    }

    AccessResult fill(uint64_t addr, bool is_write)
    {
        return touch(addr, is_write);
    }

    bool probe(uint64_t addr) const
    {
        const uint64_t line = addr >> lineShift_;
        const Way *base = &ways_[(line & setMask_) * config_.assoc];
        for (int w = 0; w < config_.assoc; ++w) {
            if (base[w].valid && base[w].tag == line >> setShift_)
                return true;
        }
        return false;
    }

    void reset()
    {
        for (auto &w : ways_)
            w = Way{};
        tick_ = 0;
    }

    uint64_t validLines() const
    {
        uint64_t n = 0;
        for (const auto &w : ways_)
            n += w.valid ? 1 : 0;
        return n;
    }

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    AccessResult touch(uint64_t addr, bool is_write)
    {
        const uint64_t line = addr >> lineShift_;
        const uint64_t set = line & setMask_;
        const uint64_t tag = line >> setShift_;
        Way *base = &ways_[set * config_.assoc];
        ++tick_;

        for (int w = 0; w < config_.assoc; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == tag) {
                way.lastUse = tick_;
                way.dirty = way.dirty || is_write;
                return {true, false, 0};
            }
        }

        Way *victim = nullptr;
        for (int w = 0; w < config_.assoc; ++w) {
            Way &way = base[w];
            if (!way.valid) {
                victim = &way;
                break;
            }
            if (!victim || way.lastUse < victim->lastUse)
                victim = &way;
        }

        AccessResult res;
        if (victim->valid && victim->dirty) {
            res.evictedDirty = true;
            res.evictedAddr =
                ((victim->tag << setShift_) | set) << lineShift_;
        }
        victim->valid = true;
        victim->tag = tag;
        victim->dirty = is_write;
        victim->lastUse = tick_;
        return res;
    }

    CacheConfig config_;
    int lineShift_;
    int setShift_;
    uint64_t setMask_;
    uint64_t tick_ = 0;
    std::vector<Way> ways_;
};

/**
 * Cache against TimestampLruCache on seeded random streams of reads,
 * writes, fills, probes, validLines() and the occasional reset(),
 * over every associativity, line size and size the sweep names.
 * Every AccessResult field must agree, op by op.
 */
TEST(Cache, MatchesTimestampLruReference)
{
    for (const int assoc : {1, 2, 4, 8}) {
        for (const int line : {32, 128}) {
            for (const uint64_t sets : {16u, 128u}) {
                const CacheConfig cfg{sets * line * assoc, assoc, line};
                SCOPED_TRACE(cfg.str());
                Cache cache(cfg);
                TimestampLruCache ref(cfg);
                Rng rng(static_cast<uint64_t>(assoc * 1000 + line) ^
                        sets);
                // Four times the capacity, so sets overflow and
                // evict; a hot eighth of it for reuse hits; and a
                // few high addresses to check victim reconstruction.
                const uint64_t span = 4 * cfg.sizeBytes;
                for (int op = 0; op < 25000; ++op) {
                    const uint64_t pick = rng.next() % 16;
                    uint64_t addr = rng.next() % span;
                    if (pick < 8)
                        addr %= span / 32;
                    else if (pick == 15)
                        addr |= uint64_t{0xabcd} << 40;
                    const bool write = rng.next() % 3 == 0;
                    const uint64_t kind = rng.next() % 16;
                    if (kind == 0) {
                        ASSERT_EQ(cache.probe(addr), ref.probe(addr))
                            << "op " << op;
                    } else if (kind == 1) {
                        ASSERT_EQ(cache.validLines(), ref.validLines())
                            << "op " << op;
                        if (rng.next() % 64 == 0) {
                            cache.reset();
                            ref.reset();
                        }
                    } else {
                        // Kinds 2 and 3 are prefetch fills, the rest
                        // demand accesses.
                        const bool fill = kind < 4;
                        const AccessResult got =
                            fill ? cache.fill(addr, write)
                                 : cache.access(addr, write);
                        const AccessResult want =
                            fill ? ref.fill(addr, write)
                                 : ref.access(addr, write);
                        ASSERT_EQ(got.hit, want.hit) << "op " << op;
                        ASSERT_EQ(got.evictedDirty, want.evictedDirty)
                            << "op " << op;
                        ASSERT_EQ(got.evictedAddr, want.evictedAddr)
                            << "op " << op;
                    }
                }
                EXPECT_EQ(cache.validLines(), ref.validLines());
            }
        }
    }
}

} // namespace
} // namespace m4ps::memsim
