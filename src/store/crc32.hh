/**
 * @file
 * CRC32 (IEEE 802.3): reflected polynomial 0xEDB88320, initial value and
 * final XOR 0xFFFFFFFF — the checksum framing every WAL record.
 *
 * crc32Update() runs one of two kernels, chosen once per process by CPU
 * feature detection (there is no knob):
 *  - a PCLMULQDQ folding kernel (Gopal et al., "Fast CRC Computation for
 *    Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) on x86
 *    CPUs that have carry-less multiply;
 *  - a portable slice-by-8 table kernel everywhere else.
 * Both compute the same function, so the checksum bytes on disk do not
 * depend on the machine that wrote them. Both kernels are exported so
 * tests can check each against a reference directly.
 */

#ifndef HERMES_STORE_CRC32_HH
#define HERMES_STORE_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace hermes::store
{

/** CRC32 (IEEE 802.3, reflected 0xEDB88320) of @p len bytes at @p data. */
uint32_t crc32(const void *data, size_t len);

/** Incremental CRC32: fold @p len more bytes into a running state.
 *  Start from crc32Init(), finish with crc32Final(). */
uint32_t crc32Init();
uint32_t crc32Update(uint32_t state, const void *data, size_t len);
uint32_t crc32Final(uint32_t state);

/** The portable slice-by-8 kernel behind crc32Update(). */
uint32_t crc32UpdatePortable(uint32_t state, const void *data, size_t len);

/** True when this CPU can run crc32UpdateFolded() (x86 with PCLMULQDQ). */
bool crc32FoldedSupported();

/**
 * The PCLMULQDQ folding kernel behind crc32Update(); inputs shorter than
 * one 64-byte fold block, and the sub-16-byte tail of longer ones, go
 * through the portable kernel. Call it only when crc32FoldedSupported();
 * builds for other architectures compile it as the portable kernel.
 */
uint32_t crc32UpdateFolded(uint32_t state, const void *data, size_t len);

} // namespace hermes::store

#endif // HERMES_STORE_CRC32_HH
