/**
 * @file
 * Dependency-free LZ-class page codec for the copy-out path.
 *
 * Flush energy is joules-per-byte while the dirty budget is counted
 * in pages, so shrinking the bytes a victim page costs on the wire
 * directly multiplies the admissible budget (DESIGN.md §11).  The
 * codec is built for that one job:
 *
 *   - byte-oriented LZ with greedy hash-chain matching: a token byte
 *     (literal-length nibble / match-length nibble, 15 = extended by
 *     255-continuation bytes), the literals, a 2-byte little-endian
 *     match distance, overlap-permitted matches of 4+ bytes;
 *   - bounded worst-case output (pagezipBound), so callers size one
 *     scratch buffer at construction and never reallocate;
 *   - an incompressible-page bypass: compress() reports "store raw"
 *     whenever the achieved ratio falls under ~1.05, so random pages
 *     cost one memcpy-free size probe and zero format overhead;
 *   - a strict decoder: every length and distance is bounds-checked,
 *     truncated or corrupted streams fail cleanly (false) without
 *     reading or writing out of bounds, and success requires the
 *     output to land exactly on the expected raw length.
 *
 * The decoder alone cannot catch every corruption (a damaged stream
 * can still decode to plausible bytes); durability surfaces keep the
 * CRC32C over the RAW page and verify it after decompression, so a
 * lying device is caught either by the decoder or by the checksum.
 *
 * ASYNC-SIGNAL-SAFETY: this codec is NOT fault-path code.  Compression
 * belongs to copier threads and the simulator only;
 * `python3 tools/pathlint --contract sigsafe` hard-fails (no
 * allowlist escape) if any pagezip symbol becomes reachable from the
 * write-fault handler.
 */

#ifndef VIYOJIT_COMMON_PAGEZIP_HH
#define VIYOJIT_COMMON_PAGEZIP_HH

#include <cstddef>
#include <cstdint>

namespace viyojit::common
{

/**
 * Worst-case encoded size for `len` input bytes.  Callers must hand
 * pagezipCompress a destination at least this large.
 */
constexpr std::size_t
pagezipBound(std::size_t len)
{
    return len + len / 255 + 16;
}

/**
 * Compress `len` bytes of `src` into `dst` (capacity `dst_cap`,
 * >= pagezipBound(len)).
 *
 * @return the encoded size in bytes, or 0 for "store raw": the input
 *         was too small, the destination too small, or the achieved
 *         ratio under the ~1.05 bypass threshold (storing the raw
 *         page costs less than the decode would ever save).
 */
std::size_t pagezipCompress(const void *src, std::size_t len,
                            void *dst, std::size_t dst_cap);

/**
 * Decompress a `stored_len`-byte stream produced by pagezipCompress
 * into exactly `raw_len` bytes at `dst`.
 *
 * @return true on success.  False on any malformed input — truncated
 *         stream, distance past the produced output, lengths that
 *         overrun either buffer, trailing garbage, or output that
 *         does not land exactly on `raw_len`.  On failure the dst
 *         contents are unspecified but no out-of-bounds access has
 *         occurred; callers classify the page into their quarantine
 *         machinery.
 */
bool pagezipDecompress(const void *src, std::size_t stored_len,
                       void *dst, std::size_t raw_len);

} // namespace viyojit::common

#endif // VIYOJIT_COMMON_PAGEZIP_HH
