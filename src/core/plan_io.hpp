#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/executors.hpp"
#include "runtime/types.hpp"

/// Persistent plans: versioned binary serialization of the inspector
/// artifact.
///
/// The paper's economic argument is that the inspector is paid once and
/// amortized over many executions (§5.1.1); in-process that amortization is
/// the `rtl::Runtime` LRU, but it dies with the process. This module makes
/// the artifact durable: a `Plan` — dependence CSR + wavefront CSR + flat
/// schedule + structure fingerprint — is written as one little-endian
/// binary image and restored *without running the inspector*, so one
/// inspector run can serve every process (and every replica) that sees the
/// same sparsity.
///
/// Format v2 (all integers little-endian; index arrays are `index_t` =
/// int32 elements). v1 had the same layout but an FNV-1a trailer and
/// FNV-1a fingerprints; a v1 image is refused as kUnsupportedVersion.
///
///   offset  size  field
///   0       8     magic "RTLPLAN\0"
///   8       u32   format version (kPlanFormatVersion)
///   12      u32   nproc (processor count the plan was compiled for)
///   16      u64   structure fingerprint (DependenceGraph::fingerprint)
///   24      u64   n       (loop iterations)
///   32      u64   edges   (dependence edges)
///   40      u64   num_waves
///   48      u64   num_phases (== num_waves for every inspector-built plan)
///   56      u32   SchedulingPolicy
///   60      u32   ExecutionPolicy
///   64      u64   0 (retired window field; non-zero is refused)
///   72      u64   0 (retired panel field; non-zero is refused)
///   80      u8    DoconsiderOptions::instrumented
///   81      u8    DoconsiderOptions::parallel_inspector
///   -- arrays, back to back (i32 each) --
///   graph ptr        n + 1
///   graph adj        edges
///   wavefront wave   n
///   wavefront order  n
///   wavefront ptr    num_waves + 1
///   schedule order   n
///   schedule proc_ptr nproc + 1
///   schedule phase_ptr nproc * (num_phases + 1)
///   -- trailer --
///   u64   XXH64 checksum (runtime/hash.hpp) of every preceding byte,
///         magic included
///
/// `load_plan` treats its input as untrusted: every header field, the
/// checksum, and all CSR invariants (monotone pointer arrays, in-range
/// indices, permutation property of the order arrays, wavefront levels
/// consistent with the dependence lists, schedule consistent with the
/// wavefronts) are verified before a `Plan` is materialized, and every
/// violation throws a typed `PlanIoError` — never a crash, hang, or a
/// malformed plan. A loaded plan is indistinguishable from a freshly
/// inspected one, including under `ExecutionPolicy::kPointToPoint` (the
/// wait lists are re-derived from the loaded schedule, so the byte format
/// carries no wait data and any schedule that passes validation executes
/// correctly).
namespace rtl {

class Plan;

/// Current on-disk format version. Bump procedure: see the golden-fixture
/// test in tests/plan_io_test.cpp — any change to the bytes of an image
/// (layout, checksum or fingerprint) must (1) increment this constant,
/// (2) write tests/data/golden_plan_v<V>.rtlplan next to the older
/// fixtures, and (3) keep rejecting files whose stored version differs.
inline constexpr std::uint32_t kPlanFormatVersion = 2;

/// Leading magic bytes ("RTLPLAN\0").
inline constexpr unsigned char kPlanMagic[8] = {'R', 'T', 'L', 'P',
                                                'L', 'A', 'N', '\0'};

/// Byte size of the fixed-width header (magic through parallel_inspector).
inline constexpr std::size_t kPlanHeaderBytes = 82;

/// Failure class of a plan (de)serialization.
enum class PlanIoErrc {
  kBadMagic,            ///< leading bytes are not kPlanMagic
  kUnsupportedVersion,  ///< stored format version != kPlanFormatVersion
  kTruncated,           ///< stream ended before the declared payload
  kTrailingData,        ///< bytes remain after the trailer
  kBadHeader,           ///< header field out of range / non-normalized
  kChecksumMismatch,    ///< trailer checksum does not match the bytes
  kFingerprintMismatch, ///< stored fingerprint != recomputed fingerprint
  kBadStructure,        ///< CSR / wavefront / schedule invariant violated
  kIoError,             ///< underlying stream or filesystem failure
};

/// Human-readable name of a PlanIoErrc ("bad_magic", "truncated", ...).
[[nodiscard]] const char* plan_io_errc_name(PlanIoErrc code) noexcept;

/// Typed error thrown by every plan_io failure path.
class PlanIoError : public std::runtime_error {
 public:
  PlanIoError(PlanIoErrc code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] PlanIoErrc code() const noexcept { return code_; }

 private:
  PlanIoErrc code_;
};

/// Serialize `plan` to `out` in format v2. Throws PlanIoError(kIoError)
/// when the stream reports failure.
void save_plan(const Plan& plan, std::ostream& out);

/// Deserialize and strictly validate a plan from `in`. Returns a plan
/// equivalent to the freshly inspected original in every observable way.
/// Throws PlanIoError on any malformed, corrupted, truncated, or
/// version-mismatched input.
[[nodiscard]] std::shared_ptr<const Plan> load_plan(std::istream& in);

/// File convenience wrappers. `save_plan_file` writes atomically: the
/// image is produced in a sibling temporary file and renamed into place,
/// so concurrent readers only ever observe a complete image.
void save_plan_file(const Plan& plan, const std::string& path);
[[nodiscard]] std::shared_ptr<const Plan> load_plan_file(
    const std::string& path);

/// Canonical file name of a cached plan inside a plan-cache directory:
/// deterministic across processes and hosts, keyed by exactly the fields
/// of the `rtl::Runtime` cache key plus the processor count. The constant
/// `-w0-c0` stands for the retired window/panel fields, so existing cache
/// directories still hit.
[[nodiscard]] std::string plan_cache_file_name(
    std::uint64_t fingerprint, index_t n, index_t edges, int nproc,
    const DoconsiderOptions& normalized);

}  // namespace rtl
