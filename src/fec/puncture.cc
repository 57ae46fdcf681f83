#include "fec/puncture.hh"

namespace m4ps::fec
{

namespace
{

constexpr uint8_t kKeep12[2] = {1, 1};
constexpr uint8_t kKeep23[4] = {1, 1, 0, 1};
constexpr uint8_t kKeep34[6] = {1, 1, 0, 1, 1, 0};

constexpr PuncturePattern kPatterns[kNumRates] = {
    {2, kKeep12, 2},
    {4, kKeep23, 3},
    {6, kKeep34, 4},
};

} // namespace

const char *
rateName(Rate r)
{
    switch (r) {
      case Rate::R1_2:
        return "1/2";
      case Rate::R2_3:
        return "2/3";
      case Rate::R3_4:
        return "3/4";
    }
    return "?";
}

bool
parseRate(std::string_view text, Rate &out)
{
    if (text == "1/2") {
        out = Rate::R1_2;
    } else if (text == "2/3") {
        out = Rate::R2_3;
    } else if (text == "3/4") {
        out = Rate::R3_4;
    } else {
        return false;
    }
    return true;
}

const PuncturePattern &
puncturePattern(Rate r)
{
    return kPatterns[static_cast<int>(r)];
}

size_t
puncturedSize(size_t coded_bits, Rate r)
{
    const PuncturePattern &p = puncturePattern(r);
    const size_t periods = coded_bits / p.period;
    size_t n = periods * static_cast<size_t>(p.kept);
    for (size_t i = periods * p.period; i < coded_bits; ++i)
        n += p.keep[i % p.period];
    return n;
}

} // namespace m4ps::fec
