/**
 * @file
 * CRC32C implementation.  crc32c() uses the CPU's CRC32C instruction
 * where one exists (SSE4.2 `crc32` on x86-64, selected at run time;
 * the ARMv8 CRC32 extension on aarch64, selected at compile time) and
 * the slice-by-4 table otherwise.  The tables are built at compile
 * time and stored constinit so touching them from a signal handler
 * never trips lazy initialization — this TU is on the pathlint
 * sigsafe fault-path audit list and must stay free of calls out of
 * the TU, allocation, and guard variables.
 */

#include "common/checksum.hh"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#endif

namespace viyojit::common
{

namespace
{

struct Crc32cTables
{
    std::uint32_t t[4][256];
};

constexpr Crc32cTables
buildTables()
{
    constexpr std::uint32_t poly = 0x82F63B78u; // Castagnoli, reflected
    Crc32cTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? poly : 0u);
        tables.t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
        tables.t[1][i] =
            (tables.t[0][i] >> 8) ^ tables.t[0][tables.t[0][i] & 0xFFu];
        tables.t[2][i] =
            (tables.t[1][i] >> 8) ^ tables.t[0][tables.t[1][i] & 0xFFu];
        tables.t[3][i] =
            (tables.t[2][i] >> 8) ^ tables.t[0][tables.t[2][i] & 0xFFu];
    }
    return tables;
}

constinit const Crc32cTables kTables = buildTables();

#if defined(__x86_64__)
/**
 * One stream of 8-byte `crc32q`, then a byte tail.  The 8-byte loads
 * go through memcpy (folded to one unaligned mov) so any start
 * alignment is fine.
 */
__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(const unsigned char *p, std::size_t len, std::uint32_t crc)
{
    std::uint64_t crc64 = crc;
    while (len >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof word);
        crc64 = _mm_crc32_u64(crc64, word);
        p += 8;
        len -= 8;
    }
    crc = static_cast<std::uint32_t>(crc64);
    while (len--)
        crc = _mm_crc32_u8(crc, *p++);
    return crc;
}
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
std::uint32_t
crc32cArm(const unsigned char *p, std::size_t len, std::uint32_t crc)
{
    while (len >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof word);
        crc = __crc32cd(crc, word);
        p += 8;
        len -= 8;
    }
    while (len--)
        crc = __crc32cb(crc, *p++);
    return crc;
}
#endif

} // namespace

std::uint32_t
crc32cPortable(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t crc = ~seed;
    while (len >= 4) {
        crc ^= static_cast<std::uint32_t>(p[0]) |
               (static_cast<std::uint32_t>(p[1]) << 8) |
               (static_cast<std::uint32_t>(p[2]) << 16) |
               (static_cast<std::uint32_t>(p[3]) << 24);
        crc = kTables.t[3][crc & 0xFFu] ^
              kTables.t[2][(crc >> 8) & 0xFFu] ^
              kTables.t[1][(crc >> 16) & 0xFFu] ^
              kTables.t[0][(crc >> 24) & 0xFFu];
        p += 4;
        len -= 4;
    }
    while (len--)
        crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
    return ~crc;
}

std::uint32_t
crc32c(const void *data, std::size_t len, std::uint32_t seed)
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("sse4.2"))
        return ~crc32cSse42(static_cast<const unsigned char *>(data),
                            len, ~seed);
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
    return ~crc32cArm(static_cast<const unsigned char *>(data), len,
                      ~seed);
#endif
    return crc32cPortable(data, len, seed);
}

std::uint32_t
crc32cU64(std::uint64_t value, std::uint32_t seed)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>(value >> (8 * i));
    return crc32c(bytes, sizeof bytes, seed);
}

} // namespace viyojit::common
