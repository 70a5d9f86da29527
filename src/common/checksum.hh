/**
 * @file
 * Shared CRC32C (Castagnoli) — the one checksum every durability
 * surface uses: flush-commit sidecars (sim and write-protect runtime),
 * plog record integrity, recovery verification, and the scrubber.
 *
 * How it is computed: crc32c() runs on the CPU's CRC32C instruction
 * where one exists and on a slice-by-4 table otherwise; every path
 * yields the same values (same polynomial, same reflection), so the
 * durable formats do not depend on which one ran.
 *   - x86-64: one stream of 8-byte `crc32q` plus a `crc32b` byte
 *     tail, compiled with target("sse4.2") and chosen per call by
 *     __builtin_cpu_supports("sse4.2").
 *   - aarch64 built with the CRC32 extension (__ARM_FEATURE_CRC32):
 *     __crc32cd / __crc32cb, chosen at compile time.
 *   - anything else: crc32cPortable(), the table implementation.
 *
 * Async-signal-safety contract: crc32c() is called from the write
 * fault path (inline persist -> sidecar commit), so it must stay
 * allocation-free, lock-free, and guard-variable-free.  The slice
 * tables are constinit namespace-scope constants — no lazy init, no
 * __cxa_guard_acquire.  __builtin_cpu_supports compiles to a load of
 * libgcc's __cpu_model, which libgcc's own constructor fills before
 * main(); it is not a call and needs no guard.  (Were it read before
 * that constructor ran, the feature bit would read 0 and the table
 * path would run — slower, same value.)  `python3 tools/pathlint
 * --contract sigsafe` walks this TU.
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

/**
 * The reference implementation: the slice-by-4 table, bit-identical
 * to crc32c() on every input.  crc32c() falls back to it on CPUs
 * without a CRC32C instruction; tests cross-check the two.
 */
std::uint32_t crc32cPortable(const void *data, std::size_t len,
                             std::uint32_t seed = 0);

/** CRC32C of a 64-bit value (little-endian byte order), chained. */
std::uint32_t crc32cU64(std::uint64_t value, std::uint32_t seed = 0);

} // namespace viyojit::common

#endif // VIYOJIT_COMMON_CHECKSUM_HH
