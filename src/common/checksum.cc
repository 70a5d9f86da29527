/**
 * @file
 * CRC32C implementation: slice-by-4 table lookup.  The tables are
 * built at compile time and stored constinit so touching them from a
 * signal handler never trips lazy initialization — this TU is on the
 * pathlint sigsafe fault-path audit list and must stay free of calls,
 * allocation, and guard variables.
 */

#include "common/checksum.hh"

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

} // namespace

std::uint32_t
crc32c(const void *data, std::size_t len, std::uint32_t seed)
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
crc32cU64(std::uint64_t value, std::uint32_t seed)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>(value >> (8 * i));
    return crc32c(bytes, sizeof bytes, seed);
}

} // namespace viyojit::common
