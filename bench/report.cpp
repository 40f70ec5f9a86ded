#include "report.hpp"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

namespace rtl::bench {

namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const int parsed = std::atoi(v);
  return parsed > 0 ? parsed : fallback;
}

/// JSON number: finite doubles with enough digits to round-trip short
/// timings; non-finite values become null (plain JSON has no inf/nan).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

int default_procs() { return env_int("RTL_PROCS", 16); }

int default_reps() { return env_int("RTL_REPS", 7); }

int work_amp() { return env_int("RTL_AMP", 4000); }

Stats stats_from_samples(const std::vector<double>& samples) {
  Stats s;
  s.reps = static_cast<int>(samples.size());
  if (samples.empty()) return s;
  s.min = *std::min_element(samples.begin(), samples.end());
  s.max = *std::max_element(samples.begin(), samples.end());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  if (samples.size() > 1) {
    double sq = 0.0;
    for (const double v : samples) sq += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(sq / static_cast<double>(samples.size() - 1));
  }
  return s;
}

Stats scalar_stat(double value) {
  Stats s;
  s.reps = 1;
  s.mean = s.min = s.max = value;
  return s;
}

MachineInfo detect_machine() {
  MachineInfo m;

  char host[256] = {};
  if (gethostname(host, sizeof host - 1) == 0) m.hostname = host;
  if (m.hostname.empty()) m.hostname = "unknown";

  m.hardware_concurrency =
      static_cast<int>(std::thread::hardware_concurrency());

#if defined(__clang__)
  m.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  m.compiler = "gcc " __VERSION__;
#else
  m.compiler = "unknown";
#endif

  utsname un{};
  if (uname(&un) == 0) {
    m.os = std::string(un.sysname) + " " + un.release;
  } else {
    m.os = "unknown";
  }

  if (const char* sha = std::getenv("RTL_GIT_SHA"); sha != nullptr && *sha) {
    m.git_sha = sha;
  } else {
#ifdef RTL_GIT_SHA
    m.git_sha = RTL_GIT_SHA;
#else
    m.git_sha = "unknown";
#endif
  }
  return m;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Reporter::Reporter(std::string driver) : driver_(std::move(driver)) {}

Reporter::~Reporter() {
  if (!flushed_) flush();
}

void Reporter::add(const std::string& group, const std::string& metric,
                   const Stats& stats, const std::string& unit) {
  records_.push_back(Record{group, metric, unit, stats});
}

void Reporter::add_scalar(const std::string& group, const std::string& metric,
                          double value, const std::string& unit) {
  records_.push_back(Record{group, metric, unit, scalar_stat(value)});
}

void Reporter::add_plan_stats(const std::string& group,
                              const PlanStats& stats) {
  add_scalar(group, "plan_phases", static_cast<double>(stats.phases),
             "count");
  add_scalar(group, "plan_max_wavefront",
             static_cast<double>(stats.max_wavefront), "count");
  add_scalar(group, "plan_avg_wavefront", stats.avg_wavefront, "count");
  add_scalar(group, "plan_bytes", static_cast<double>(stats.bytes), "bytes");
  // Point-to-point wait lists (0 under every other executor): how many
  // cross-processor waits one run performs and the bytes they occupy
  // (already part of plan_bytes).
  add_scalar(group, "plan_waits", static_cast<double>(stats.waits), "count");
  add_scalar(group, "plan_wait_bytes", static_cast<double>(stats.wait_bytes),
             "bytes");
  // Bind-time execution layout packing (kernel/layout.hpp): 0 for a bare
  // plan or a gather-only build; BoundKernel::stats() fills it in.
  add_scalar(group, "plan_layout_bytes",
             static_cast<double>(stats.layout_bytes), "bytes");
}

void Reporter::add_plan_cache(const Runtime::CacheCounters& counters) {
  add_scalar("plan_cache", "hits", static_cast<double>(counters.hits),
             "count");
  add_scalar("plan_cache", "misses", static_cast<double>(counters.misses),
             "count");
  add_scalar("plan_cache", "evictions",
             static_cast<double>(counters.evictions), "count");
  add_scalar("plan_cache", "entries", static_cast<double>(counters.entries),
             "count");
  add_scalar("plan_cache", "disk_hits",
             static_cast<double>(counters.disk_hits), "count");
  add_scalar("plan_cache", "disk_misses",
             static_cast<double>(counters.disk_misses), "count");
  add_scalar("plan_cache", "disk_writes",
             static_cast<double>(counters.disk_writes), "count");
  add_scalar("plan_cache", "disk_rejects",
             static_cast<double>(counters.disk_rejects), "count");
}

void Reporter::add_config(const std::string& key, const std::string& value) {
  extra_config_.emplace_back(key, value);
}

void Reporter::mark_skipped(const std::string& reason) {
  skipped_ = true;
  skip_reason_ = reason;
}

std::string Reporter::to_json() const {
  const MachineInfo m = detect_machine();
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"driver\": \"" << json_escape(driver_) << "\",\n";
  os << "  \"skipped\": " << (skipped_ ? "true" : "false") << ",\n";
  if (skipped_) {
    os << "  \"skip_reason\": \"" << json_escape(skip_reason_) << "\",\n";
  }
  os << "  \"timestamp_utc\": \"" << utc_timestamp() << "\",\n";
  os << "  \"machine\": {\n";
  os << "    \"hostname\": \"" << json_escape(m.hostname) << "\",\n";
  os << "    \"hardware_concurrency\": " << m.hardware_concurrency << ",\n";
  os << "    \"compiler\": \"" << json_escape(m.compiler) << "\",\n";
  os << "    \"os\": \"" << json_escape(m.os) << "\",\n";
  os << "    \"git_sha\": \"" << json_escape(m.git_sha) << "\"\n";
  os << "  },\n";
  os << "  \"config\": {\n";
  os << "    \"RTL_PROCS\": " << default_procs() << ",\n";
  os << "    \"RTL_REPS\": " << default_reps() << ",\n";
  os << "    \"RTL_AMP\": " << work_amp();
  for (const auto& [k, v] : extra_config_) {
    os << ",\n    \"" << json_escape(k) << "\": \"" << json_escape(v) << "\"";
  }
  os << "\n  },\n";
  os << "  \"records\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"group\": \"" << json_escape(r.group) << "\", \"metric\": \""
       << json_escape(r.metric) << "\", \"unit\": \"" << json_escape(r.unit)
       << "\", \"reps\": " << r.stats.reps
       << ", \"mean\": " << json_number(r.stats.mean)
       << ", \"stddev\": " << json_number(r.stats.stddev)
       << ", \"min\": " << json_number(r.stats.min)
       << ", \"max\": " << json_number(r.stats.max) << "}";
  }
  os << (records_.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

bool Reporter::flush() {
  flushed_ = true;
  const char* path = std::getenv("RTL_BENCH_JSON");
  if (path == nullptr || *path == '\0') return false;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "rtl::bench: cannot write RTL_BENCH_JSON=%s\n", path);
    return false;
  }
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace rtl::bench
