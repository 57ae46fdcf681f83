/**
 * @file
 * Set-associative, write-back, write-allocate cache model.
 *
 * Stands in for the MIPS R10000/R12000 primary data cache (32 KB,
 * 2-way, 32-byte lines) and the board-level secondary cache (1/2/8 MB,
 * 2-way, 128-byte lines).  The model is trace-driven and stateful:
 * tags, per-line dirty bits, and true-LRU replacement per set.
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

    /** Validate the geometry (power-of-two line/sets, divisibility). */
    void validate() const;

    std::string str() const;
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
    AccessResult access(uint64_t addr, bool is_write);

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
    struct Way
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    uint64_t lineAddr(uint64_t addr) const { return addr >> lineShift_; }
    uint64_t setIndex(uint64_t line) const { return line & setMask_; }
    uint64_t tagOf(uint64_t line) const { return line >> setShift_; }

    AccessResult touch(uint64_t addr, bool is_write);

    CacheConfig config_;
    int lineShift_;
    int setShift_;
    uint64_t setMask_;
    uint64_t tick_ = 0;
    std::vector<Way> ways_;      //!< sets * assoc, row-major by set.
};

} // namespace m4ps::memsim

#endif // M4PS_MEMSIM_CACHE_HH
