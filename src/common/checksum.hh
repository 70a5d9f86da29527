/**
 * @file
 * Shared CRC32C (Castagnoli) — the one checksum every durability
 * surface uses: flush-commit sidecars (sim and write-protect runtime),
 * plog record integrity, recovery verification, and the scrubber.
 *
 * Async-signal-safety contract: crc32c() is called from the write
 * fault path (inline persist -> sidecar commit), so it must stay
 * allocation-free, lock-free, and guard-variable-free.  The slice
 * tables are constinit namespace-scope constants — no lazy init, no
 * __cxa_guard_acquire.  `python3 tools/pathlint --contract sigsafe`
 * walks this TU.
 */

#ifndef VIYOJIT_COMMON_CHECKSUM_HH
#define VIYOJIT_COMMON_CHECKSUM_HH

#include <cstddef>
#include <cstdint>

namespace viyojit::common
{

/**
 * CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78) over `len`
 * bytes.  `seed` chains incremental computation:
 * crc32c(a+b) == crc32c(b, len_b, crc32c(a, len_a)).
 * Known-answer vector: crc32c("123456789", 9) == 0xE3069283.
 */
std::uint32_t crc32c(const void *data, std::size_t len,
                     std::uint32_t seed = 0);

/** CRC32C of a 64-bit value (little-endian byte order), chained. */
std::uint32_t crc32cU64(std::uint64_t value, std::uint32_t seed = 0);

} // namespace viyojit::common

#endif // VIYOJIT_COMMON_CHECKSUM_HH
