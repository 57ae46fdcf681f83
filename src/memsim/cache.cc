#include "memsim/cache.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "support/logging.hh"

namespace m4ps::memsim
{

std::string
CacheConfig::whyInvalid() const
{
    if (lineBytes <= 0 ||
        !std::has_single_bit(static_cast<uint64_t>(lineBytes)))
        return "line size must be a power of two: " +
               std::to_string(lineBytes);
    if (assoc <= 0)
        return "associativity must be positive";
    if (sizeBytes % (static_cast<uint64_t>(lineBytes) * assoc) != 0)
        return "size must be divisible by line*assoc";
    if (!std::has_single_bit(numSets()))
        return "number of sets must be a power of two: " +
               std::to_string(numSets());
    return "";
}

void
CacheConfig::validate() const
{
    const std::string why = whyInvalid();
    M4PS_ASSERT(why.empty(), "cache ", str(), ": ", why);
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
    // Tags are addresses shifted right by at least one bit, so none
    // can equal kInvalidTag.
    M4PS_ASSERT(lineShift_ + setShift_ > 0,
                "a one-set cache needs lines of at least 2 bytes");
    ways_.resize(sets * config_.assoc);
}

AccessResult
Cache::touchSlow(uint64_t addr, bool is_write)
{
    const uint64_t line = lineAddr(addr);
    const uint64_t set = setIndex(line);
    const uint64_t tag = tagOf(line);
    const int assoc = config_.assoc;
    Way *base = &ways_[set * assoc];

    // Hit below the MRU way: move it to the front, ageing the ways
    // that were more recent by one.
    for (int w = 1; w < assoc; ++w) {
        if (base[w].tag == tag) {
            const Way hit{tag, base[w].dirty || is_write};
            std::copy_backward(base, base + w, base + w + 1);
            base[0] = hit;
            return {true, false, 0};
        }
    }

    // Miss: the last way is the LRU line, or invalid if the set still
    // has room.  Evict it and insert the new line at the front.
    AccessResult res;
    const Way &victim = base[assoc - 1];
    if (victim.tag != kInvalidTag && victim.dirty) {
        res.evictedDirty = true;
        res.evictedAddr = ((victim.tag << setShift_) | set) << lineShift_;
    }
    std::copy_backward(base, base + assoc - 1, base + assoc);
    base[0] = {tag, is_write};
    return res;
}

AccessResult
Cache::fill(uint64_t addr, bool is_write)
{
    // A prefetch fill installs the line but gives it LRU age as if
    // freshly used; hardware typically inserts prefetches at MRU.
    return access(addr, is_write);
}

bool
Cache::probe(uint64_t addr) const
{
    const uint64_t line = lineAddr(addr);
    const uint64_t set = setIndex(line);
    const uint64_t tag = tagOf(line);
    const Way *base = &ways_[set * config_.assoc];
    for (int w = 0; w < config_.assoc; ++w) {
        if (base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::reset()
{
    for (auto &w : ways_)
        w = Way{};
}

uint64_t
Cache::validLines() const
{
    uint64_t n = 0;
    for (const auto &w : ways_)
        n += w.tag != kInvalidTag ? 1 : 0;
    return n;
}

} // namespace m4ps::memsim
