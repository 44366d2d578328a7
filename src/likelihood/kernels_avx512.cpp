// AVX-512 kernel-family member: the shared source compiled with -mavx512f
// -mavx512vl. CMake defines RAXH_HAVE_KERNEL_AVX512 and adds the flags only
// when the compiler accepts them; runtime CPUID gating lives in kernels.cpp.
#include "likelihood/kernels.h"

#if defined(RAXH_HAVE_KERNEL_AVX512) && defined(__GNUC__)
#define RAXH_KERNEL_IMPL_NAMESPACE isa_avx512
#define RAXH_KERNEL_OPS_ACCESSOR ops_avx512
#include "likelihood/kernels_impl.inl"
#else
namespace raxh::kern::detail {
const KernelOps* ops_avx512() { return nullptr; }
}  // namespace raxh::kern::detail
#endif
