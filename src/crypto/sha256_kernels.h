// The SHA-256 compression kernels behind Sha256. Internal to src/crypto,
// its tests and its microbenchmarks; everything else goes through sha256.h.
//
// Two kernels compute the same function. CompressScalar is portable C++ and
// is the reference the tests compare against. CompressShaNi uses the x86
// SHA extensions and exists only on x86 builds. Selected() picks one on its
// first call from CPUID and keeps it for the life of the process; no
// option, flag or environment variable can choose.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/hash256.h"

namespace grub::sha256_kernels {

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
using Compress = void (*)(uint32_t state[8], const uint8_t* data,
                          size_t blocks);

void CompressScalar(uint32_t state[8], const uint8_t* data, size_t blocks);

#if defined(__x86_64__) || defined(__i386__)
/// Requires CpuHasShaNi().
void CompressShaNi(uint32_t state[8], const uint8_t* data, size_t blocks);
#endif

/// Whether CPUID reports the SHA extensions plus the SSSE3 and SSE4.1
/// shuffles CompressShaNi also uses. Always false off x86.
bool CpuHasShaNi();

/// The kernel this process uses: CompressShaNi when CpuHasShaNi(), else
/// CompressScalar.
Compress Selected();

/// Names Selected(): "sha-ni" or "scalar".
const char* SelectedName();

/// Digest of a message the caller has already padded to `blocks` whole
/// blocks, compressed from the initial hash value. For inputs of one fixed
/// shape (MerkleTree::HashNode), where the padding is known in advance.
/// Counts one sha256.digest probe hit, like Sha256::Digest.
Hash256 DigestPadded(const uint8_t* data, size_t blocks);

}  // namespace grub::sha256_kernels
