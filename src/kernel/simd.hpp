#pragma once

/// Vectorized lane loops for the kernel layer.
///
/// The batched kernel bodies (kernel/bound_kernel.cpp, spmv_kernel.cpp)
/// sweep each row's k-wide strip as a unit-stride inner loop — the sweep
/// the row-major batch layout was designed for. Those loops carry
/// `RTL_SIMD_LOOP`, which expands to `#pragma omp simd` under the
/// `RTL_SIMD_ENABLED` define. That pragma needs no OpenMP *runtime*: the
/// build adds `-fopenmp-simd` (honor the pragma, link nothing) together
/// with the define whenever the compiler accepts the flag, so
/// vectorization is a property of the compiler, not a run-time choice.
/// Without the define — a compiler without the flag, or
/// `scripts/check_headers.sh`, which compiles every header standalone
/// with no project defines — the macro expands to nothing.
///
/// The pragma asserts lane independence (rhs/x strips of *different*
/// rows never alias within one body invocation) but never licenses
/// reassociation *within* a lane: each lane performs the single-RHS
/// body's operation sequence — initialize from rhs, subtract matrix
/// entries in storage order, divide by the diagonal last — so the
/// batched-equals-k-singles bit-for-bit pins (tests/property_test.cpp)
/// compare the vectorized lanes against the scalar single-RHS bodies.
#if defined(RTL_SIMD_ENABLED)
#define RTL_SIMD_LOOP _Pragma("omp simd")
#else
#define RTL_SIMD_LOOP
#endif

namespace rtl {

/// True when the library was compiled with `-fopenmp-simd`.
constexpr bool simd_compiled() noexcept {
#if defined(RTL_SIMD_ENABLED)
  return true;
#else
  return false;
#endif
}

/// Always false: there is no execution layout. Kept only because the
/// bench/e2e program still reports it.
constexpr bool layout_compiled() noexcept { return false; }

}  // namespace rtl
