// NEON kernel-family member: aarch64 Advanced SIMD. The shared vector-
// extension source lowers v4df to a 128-bit q-register pair; no extra
// flags needed since Advanced SIMD is part of the aarch64 baseline.
#include "likelihood/kernels.h"

#if defined(__aarch64__) && defined(__GNUC__) && \
    !defined(RAXH_DISABLE_SIMD_KERNELS)
#define RAXH_KERNEL_IMPL_NAMESPACE isa_neon
#define RAXH_KERNEL_OPS_ACCESSOR ops_neon
#include "likelihood/kernels_impl.inl"
#else
namespace raxh::kern::detail {
const KernelOps* ops_neon() { return nullptr; }
}  // namespace raxh::kern::detail
#endif
