#pragma once

/// \file isa_dispatch.hpp
/// Runtime ISA dispatch for the NN kernels (private to src/nn).
///
/// CVSAFE_NN_KERNEL compiles a kernel twice, for baseline x86-64 and for
/// x86-64-v3 (AVX2 + FMA), and lets the dynamic loader pick one per host
/// through an ifunc. Both clones give the same bits:
///  - the only fused operations are the explicit std::fma calls, because
///    the project builds with -ffp-contract=off, and hardware vfmadd and
///    libm fma are both correctly rounded;
///  - lane-wise mul/add/div results do not depend on the vector width;
///  - every kernel keeps its per-element accumulation order.
///
/// The macro is empty off GCC/x86-64, and under ThreadSanitizer: GCC
/// instruments the generated ifunc resolver with __tsan_func_entry, which
/// runs at load time before the TSan runtime is initialised and crashes
/// the process. TSan builds therefore run the baseline kernels.

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define CVSAFE_NN_KERNEL \
  __attribute__((target_clones("default", "arch=x86-64-v3")))
#define CVSAFE_NN_DISPATCH 1
#else
#define CVSAFE_NN_KERNEL
#define CVSAFE_NN_DISPATCH 0
#endif

/// Marks a kernel's pointer parameters as not aliasing one another, so
/// GCC vectorizes their loops without runtime overlap checks.
#if defined(__GNUC__) || defined(__clang__)
#define CVSAFE_RESTRICT __restrict__
#else
#define CVSAFE_RESTRICT
#endif
