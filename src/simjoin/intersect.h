#ifndef COPYDETECT_SIMJOIN_INTERSECT_H_
#define COPYDETECT_SIMJOIN_INTERSECT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace copydetect {

/// Sorted-set intersection kernels — the one merge loop behind
/// ComputeOverlaps' pairwise path, UpdateOverlaps' provider diffing,
/// and the PAIRWISE detector's item merge (core/pairwise.cc).
///
/// Inputs are strictly ascending uint32 spans (ItemId / SourceId /
/// SlotId all alias uint32_t; Dataset guarantees strictness for
/// items_of / providers). Three implementations sit behind one entry
/// point:
///
///  * scalar  — the textbook two-pointer merge, always available; the
///              reference every other kernel is tested against;
///  * gallop  — exponential-probe binary search of the longer list,
///              chosen when the lengths are heavily skewed;
///  * simd    — 4-wide (SSE2) or 8-wide (AVX2, runtime-detected)
///              block compares for similar-length lists.
///
/// All kernels return exactly the same matches (set intersection of
/// strictly ascending inputs is unique), so routing a caller through
/// Dispatch never changes results — only speed. Building with
/// -DCOPYDETECT_NO_SIMD=ON (CI's portable leg) compiles the scalar
/// and galloping paths only.

/// One match position: a[i] == b[j].
struct IntersectMatch {
  uint32_t i = 0;
  uint32_t j = 0;
};

/// |a ∩ b| for strictly ascending spans.
uint32_t IntersectSize(std::span<const uint32_t> a,
                       std::span<const uint32_t> b);

/// Writes every match position, ascending in both coordinates, to
/// `out` (capacity >= min(a.size(), b.size())). Returns the count.
size_t IntersectIndices(std::span<const uint32_t> a,
                        std::span<const uint32_t> b, IntersectMatch* out);

/// The SIMD width the runtime dispatch selected: "avx2", "sse2", or
/// "portable" (no-SIMD build or non-x86 target).
std::string_view IntersectKernelName();

namespace intersect_internal {

/// Which implementation family Dispatch routes to. kAuto restores the
/// production heuristic (gallop on skew, SIMD when available).
enum class Kernel { kAuto, kScalar, kGalloping, kSimd };

/// Test hook: forces every IntersectSize/IntersectIndices call onto
/// one kernel until reset with kAuto. Not thread-safe; tests only.
void ForceKernelForTest(Kernel kernel);

/// True when the build + CPU provide a vector kernel (kSimd is legal
/// to force).
bool SimdAvailable();

// Individual kernels, exposed for differential tests.
uint32_t SizeScalar(std::span<const uint32_t> a,
                    std::span<const uint32_t> b);
uint32_t SizeGalloping(std::span<const uint32_t> a,
                       std::span<const uint32_t> b);
uint32_t SizeSimd(std::span<const uint32_t> a,
                  std::span<const uint32_t> b);
size_t IndicesScalar(std::span<const uint32_t> a,
                     std::span<const uint32_t> b, IntersectMatch* out);
size_t IndicesGalloping(std::span<const uint32_t> a,
                        std::span<const uint32_t> b, IntersectMatch* out);
size_t IndicesSimd(std::span<const uint32_t> a,
                   std::span<const uint32_t> b, IntersectMatch* out);

}  // namespace intersect_internal

}  // namespace copydetect

#endif  // COPYDETECT_SIMJOIN_INTERSECT_H_
