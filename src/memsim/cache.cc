#include "memsim/cache.hh"

#include <bit>
#include <sstream>

#include "support/logging.hh"

namespace m4ps::memsim
{

void
CacheConfig::validate() const
{
    M4PS_ASSERT(lineBytes > 0 && std::has_single_bit(
                    static_cast<uint64_t>(lineBytes)),
                "line size must be a power of two: ", lineBytes);
    M4PS_ASSERT(assoc > 0, "associativity must be positive");
    M4PS_ASSERT(sizeBytes % (static_cast<uint64_t>(lineBytes) * assoc) == 0,
                "size must be divisible by line*assoc");
    M4PS_ASSERT(std::has_single_bit(numSets()),
                "number of sets must be a power of two: ", numSets());
}

std::string
CacheConfig::str() const
{
    std::ostringstream os;
    if (sizeBytes >= 1024 * 1024 && sizeBytes % (1024 * 1024) == 0)
        os << sizeBytes / (1024 * 1024) << "MB";
    else
        os << sizeBytes / 1024 << "KB";
    os << " " << assoc << "-way " << lineBytes << "B lines";
    return os.str();
}

Cache::Cache(const CacheConfig &config) : config_(config)
{
    config_.validate();
    lineShift_ = std::countr_zero(
        static_cast<uint64_t>(config_.lineBytes));
    const uint64_t sets = config_.numSets();
    setShift_ = std::countr_zero(sets);
    setMask_ = sets - 1;
    ways_.resize(sets * config_.assoc);
}

AccessResult
Cache::touch(uint64_t addr, bool is_write)
{
    const uint64_t line = lineAddr(addr);
    const uint64_t set = setIndex(line);
    const uint64_t tag = tagOf(line);
    Way *base = &ways_[set * config_.assoc];
    ++tick_;

    // Hit path first: tag match over the set's ways.
    for (int w = 0; w < config_.assoc; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.lastUse = tick_;
            way.dirty = way.dirty || is_write;
            return {true, false, 0};
        }
    }

    // Miss: fill an invalid way if one exists, else evict true LRU.
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
    res.hit = false;
    if (victim->valid && victim->dirty) {
        res.evictedDirty = true;
        res.evictedAddr = ((victim->tag << setShift_) | set) << lineShift_;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = is_write;
    victim->lastUse = tick_;
    return res;
}

AccessResult
Cache::access(uint64_t addr, bool is_write)
{
    return touch(addr, is_write);
}

AccessResult
Cache::fill(uint64_t addr, bool is_write)
{
    // A prefetch fill installs the line but gives it LRU age as if
    // freshly used; hardware typically inserts prefetches at MRU.
    return touch(addr, is_write);
}

bool
Cache::probe(uint64_t addr) const
{
    const uint64_t line = lineAddr(addr);
    const uint64_t set = setIndex(line);
    const uint64_t tag = tagOf(line);
    const Way *base = &ways_[set * config_.assoc];
    for (int w = 0; w < config_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::reset()
{
    for (auto &w : ways_)
        w = Way{};
    tick_ = 0;
}

uint64_t
Cache::validLines() const
{
    uint64_t n = 0;
    for (const auto &w : ways_)
        n += w.valid ? 1 : 0;
    return n;
}

} // namespace m4ps::memsim
