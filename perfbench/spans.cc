#include "spans.h"

#include <cstdio>

namespace perfbench {
namespace {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kCall:
      return "federation.call";
    case SpanName::kExport:
      return "obs.export";
    case SpanName::kSqlParse:
      return "sql.parse";
    case SpanName::kFdbsExecute:
      return "fdbs.execute";
    case SpanName::kWfmsRun:
      return "wfms.run";
    case SpanName::kLocalCall:
      return "appsys.local_call";
    case SpanName::kMarshal:
      return "codec.marshal";
    case SpanName::kLease:
      return "sim.lease";
    case SpanName::kMetricsInc:
      return "obs.metrics_inc";
  }
  return "?";
}

}  // namespace

uint64_t SpanShard::Add(SpanName name, uint64_t parent, uint64_t request,
                        int64_t start_ns, int64_t end_ns, uint8_t flags) {
  if (full()) return 0;
  BenchSpan span;
  span.id = next_id_++;
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.name = name;
  span.arch = arch_;
  span.phase = phase_;
  span.flags = flags;
  spans_.push_back(span);
  return span.id;
}

uint64_t SpanLog::NextIdBase() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t base = next_base_;
  next_base_ += uint64_t{1} << 40;
  return base;
}

void SpanLog::Merge(SpanShard& shard) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), shard.spans().begin(), shard.spans().end());
  shard.spans().clear();
}

std::vector<double> SpanLog::Micros(SpanName name, int arch, int phase,
                                    uint8_t flags_mask,
                                    uint8_t flags_value) const {
  std::vector<double> out;
  for (const BenchSpan& s : spans_) {
    if (s.name != name) continue;
    if (arch >= 0 && s.arch != arch) continue;
    if (phase >= 0 && s.phase != phase) continue;
    if ((s.flags & flags_mask) != flags_value) continue;
    out.push_back(s.micros());
  }
  return out;
}

bool SpanLog::WriteTsv(const std::string& path,
                       const std::vector<std::string>& arch_names,
                       const std::vector<std::string>& phase_names) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tarch\tphase\tflags\tstart_ns\tend_ns\n");
  for (const BenchSpan& s : spans_) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%s\t%s\t%u\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 SpanNameString(s.name), arch_names.at(s.arch).c_str(),
                 phase_names.at(s.phase).c_str(), s.flags,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
