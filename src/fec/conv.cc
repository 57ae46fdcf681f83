#include "fec/conv.hh"

namespace m4ps::fec
{

namespace
{

inline int
parity(unsigned v)
{
    return __builtin_parity(v);
}

/** Window = newest input at bit k-1, then the k-1 previous bits. */
inline unsigned
window(int state, int u, int k)
{
    return (static_cast<unsigned>(u) << (k - 1)) |
           static_cast<unsigned>(state);
}

} // namespace

bool
ConvCode::valid() const
{
    if (k < 3 || k > 7)
        return false;
    const unsigned span = 1u << k;
    if (g1 == 0 || g2 == 0 || g1 >= span || g2 >= span || g1 == g2)
        return false;
    // Both polynomials must tap the newest and the oldest register
    // bit, otherwise the effective constraint length is shorter than
    // advertised and the tail no longer terminates the trellis span.
    const unsigned newest = 1u << (k - 1);
    return (g1 & newest) && (g2 & newest) && (g1 & 1u) && (g2 & 1u);
}

uint8_t
branchBits(const ConvCode &code, int state, int u)
{
    const unsigned w = window(state, u, code.k);
    return static_cast<uint8_t>(parity(w & code.g1) |
                                (parity(w & code.g2) << 1));
}

int
nextState(const ConvCode &code, int state, int u)
{
    return static_cast<int>(window(state, u, code.k) >> 1);
}

void
convEncode(const ConvCode &code, const uint8_t *bytes, size_t n,
           std::vector<uint8_t> &coded)
{
    coded.resize(2 * (8 * n + static_cast<size_t>(code.tailBits())));
    uint8_t *out = coded.data();
    int state = 0;
    auto clock = [&](int u) {
        const uint8_t b = branchBits(code, state, u);
        *out++ = b & 1;
        *out++ = b >> 1;
        state = nextState(code, state, u);
    };
    for (size_t i = 0; i < n; ++i) {
        for (int bit = 7; bit >= 0; --bit)
            clock((bytes[i] >> bit) & 1);
    }
    for (int i = 0; i < code.tailBits(); ++i)
        clock(0);
}

} // namespace m4ps::fec
