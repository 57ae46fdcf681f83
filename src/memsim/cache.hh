/**
 * @file
 * Set-associative, write-back, write-allocate cache model.
 *
 * Stands in for the MIPS R10000/R12000 primary data cache (32 KB,
 * 2-way, 32-byte lines) and the board-level secondary cache (1/2/8 MB,
 * 2-way, 128-byte lines).  The model is trace-driven and stateful:
 * tags, per-line dirty bits, and true-LRU replacement per set.
 *
 * Each set keeps its ways in recency order: way 0 is the most
 * recently used line and the last way the least recently used one,
 * so the order itself is the LRU state and no clock is needed.
 * Invalid ways always sit at the tail (only reset() invalidates), so
 * a miss evicts the last way.  MPEG-4 re-touches the line it just
 * used almost every time (L1 hit rates above 99.9%), and a hit on
 * way 0 changes nothing but the dirty bit: that compare is inline
 * here, and everything else is on an out-of-line slow path.
 */

#ifndef M4PS_MEMSIM_CACHE_HH
#define M4PS_MEMSIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace m4ps::memsim
{

/** Geometry of one cache level. */
struct CacheConfig
{
    uint64_t sizeBytes = 32 * 1024;
    int assoc = 2;
    int lineBytes = 32;

    uint64_t numSets() const
    {
        return sizeBytes / (static_cast<uint64_t>(lineBytes) * assoc);
    }

    /**
     * Why this geometry cannot be simulated, or "" when it can: the
     * line size must be a power of two, the size a multiple of line
     * size times associativity, and the set count a power of two.
     * Does not abort, so tools can turn a bad size into a usage error.
     */
    std::string whyInvalid() const;

    /** Aborts with whyInvalid() unless it is empty. */
    void validate() const;

    std::string str() const;

    bool operator==(const CacheConfig &) const = default;
};

/** Outcome of a cache access. */
struct AccessResult
{
    bool hit = false;
    bool evictedDirty = false;      //!< A dirty victim was evicted.
    uint64_t evictedAddr = 0;       //!< Base address of the victim line.
};

/** One level of cache: tags + dirty bits + true LRU per set. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access @p addr; allocate the line on a miss (write-allocate).
     *
     * @param addr byte address.
     * @param is_write marks the line dirty.
     * @return hit/miss and victim information.
     */
    AccessResult access(uint64_t addr, bool is_write)
    {
        if (hitMru(addr, is_write))
            return {true, false, 0};
        return touchSlow(addr, is_write);
    }

    /**
     * The fast path of access(): true, and the line marked dirty on a
     * write, when the line containing @p addr is its set's most
     * recently used line.  Changes no other state, and nothing at
     * all when it returns false.
     */
    bool hitMru(uint64_t addr, bool is_write)
    {
        const uint64_t line = lineAddr(addr);
        Way &mru = ways_[setIndex(line) * config_.assoc];
        if (mru.tag != tagOf(line))
            return false;
        mru.dirty |= is_write;
        return true;
    }

    /** True if the line containing @p addr is present (no state change). */
    bool probe(uint64_t addr) const;

    /**
     * Install the line containing @p addr without counting as a demand
     * access (used for prefetch fills).  Returns victim information;
     * hit is true when the line was already present.
     */
    AccessResult fill(uint64_t addr, bool is_write = false);

    /** Invalidate all lines (loses dirty data; for test setup only). */
    void reset();

    const CacheConfig &config() const { return config_; }

    /** Number of currently valid lines (for tests/inspection). */
    uint64_t validLines() const;

  private:
    /** Tag of an invalid way: no address shifts down to it. */
    static constexpr uint64_t kInvalidTag = ~uint64_t{0};

    struct Way
    {
        uint64_t tag = kInvalidTag;
        bool dirty = false;
    };

    uint64_t lineAddr(uint64_t addr) const { return addr >> lineShift_; }
    uint64_t setIndex(uint64_t line) const { return line & setMask_; }
    uint64_t tagOf(uint64_t line) const { return line >> setShift_; }

    /** access() past way 0: hit deeper in the set, or miss. */
    AccessResult touchSlow(uint64_t addr, bool is_write);

    CacheConfig config_;
    int lineShift_;
    int setShift_;
    uint64_t setMask_;
    std::vector<Way> ways_;      //!< sets * assoc, MRU first per set.
};

} // namespace m4ps::memsim

#endif // M4PS_MEMSIM_CACHE_HH
