#include "store/crc32.hh"

#include <array>

#include "common/serialize.hh"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define HERMES_CRC32_FOLDED 1
#include <immintrin.h>
#endif

namespace hermes::store
{

namespace
{

constexpr uint32_t kPoly = 0xEDB88320u;

/** Slice-by-8 tables: kTables[0] is the bytewise table; kTables[k][b] is
 *  the CRC of byte b followed by k zero bytes. */
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables
makeTables()
{
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}

constexpr Crc32Tables kTables = makeTables();

#ifdef HERMES_CRC32_FOLDED

#define HERMES_CRC32_TARGET __attribute__((target("pclmul,sse2")))

HERMES_CRC32_TARGET inline __m128i
load128(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** Carry-less multiply each 64-bit half of @p x by the matching half of
 *  @p k and XOR the products: advances x by the distance k encodes. */
HERMES_CRC32_TARGET inline __m128i
fold(__m128i x, __m128i k)
{
    return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                         _mm_clmulepi64_si128(x, k, 0x11));
}

/**
 * Fold @p len bytes (a multiple of 16, at least 64) into @p state. The
 * constants are x^n mod P in the bit-reflected domain, from the paper's
 * appendix: k1/k2 advance a lane by 512 bits (four lanes in flight),
 * k3/k4 by 128 bits, k5 reduces 64 bits to 32, and the last pair is the
 * Barrett reduction (P' = P with its x^32 term, mu = x^64 / P).
 */
HERMES_CRC32_TARGET uint32_t
foldBlocks(uint32_t state, const uint8_t *p, size_t len)
{
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    __m128i x1 = _mm_xor_si128(load128(p),
                               _mm_cvtsi32_si128(static_cast<int>(state)));
    __m128i x2 = load128(p + 16);
    __m128i x3 = load128(p + 32);
    __m128i x4 = load128(p + 48);
    for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
        x1 = _mm_xor_si128(fold(x1, k1k2), load128(p));
        x2 = _mm_xor_si128(fold(x2, k1k2), load128(p + 16));
        x3 = _mm_xor_si128(fold(x3, k1k2), load128(p + 32));
        x4 = _mm_xor_si128(fold(x4, k1k2), load128(p + 48));
    }

    x1 = _mm_xor_si128(fold(x1, k3k4), x2);
    x1 = _mm_xor_si128(fold(x1, k3k4), x3);
    x1 = _mm_xor_si128(fold(x1, k3k4), x4);
    for (; len >= 16; p += 16, len -= 16)
        x1 = _mm_xor_si128(fold(x1, k3k4), load128(p));

    // 128 -> 64 bits.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    // 64 -> 32 bits.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5,
                                            0x00));
    // Barrett reduction to the 32-bit remainder.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), barrett,
                                     0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
    x1 = _mm_xor_si128(x1, t);
    return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

#endif // HERMES_CRC32_FOLDED

} // namespace

uint32_t
crc32UpdatePortable(uint32_t state, const void *data, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    const Crc32Tables &t = kTables;
    for (; len >= 8; p += 8, len -= 8) {
        uint32_t lo = leLoad32(p) ^ state;
        uint32_t hi = leLoad32(p + 4);
        state = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF]
                ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24]
                ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF]
                ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        state = t[0][(state ^ *p) & 0xFF] ^ (state >> 8);
    return state;
}

bool
crc32FoldedSupported()
{
#ifdef HERMES_CRC32_FOLDED
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul");
#else
    return false;
#endif
}

uint32_t
crc32UpdateFolded(uint32_t state, const void *data, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
#ifdef HERMES_CRC32_FOLDED
    if (len >= 64) {
        size_t bulk = len & ~size_t{15};
        state = foldBlocks(state, p, bulk);
        p += bulk;
        len -= bulk;
    }
#endif
    return crc32UpdatePortable(state, p, len);
}

uint32_t
crc32Init()
{
    return 0xFFFFFFFFu;
}

uint32_t
crc32Update(uint32_t state, const void *data, size_t len)
{
    static const bool folded = crc32FoldedSupported();
    return folded ? crc32UpdateFolded(state, data, len)
                  : crc32UpdatePortable(state, data, len);
}

uint32_t
crc32Final(uint32_t state)
{
    return state ^ 0xFFFFFFFFu;
}

uint32_t
crc32(const void *data, size_t len)
{
    return crc32Final(crc32Update(crc32Init(), data, len));
}

} // namespace hermes::store
