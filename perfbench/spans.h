// The benchmark's own spans: one per call it makes into a layer of the
// program, stamped with host steady-clock times. Spans stay in memory while
// the benchmark runs and are written out once at exit.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The layer boundary a span covers.
enum class SpanName : uint8_t {
  kCall,        ///< one whole federated call (IntegrationServer), the root
  kExport,      ///< tracer Snapshot -> ChromeTraceJson -> Reset
  kSqlParse,    ///< sql::Parse of the call statement
  kFdbsExecute, ///< Database::Execute on the untimed functional path
  kWfmsRun,     ///< wfms::Engine::Run of the function's process
  kLocalCall,   ///< AppSystem::Call of one local function
  kMarshal,     ///< ByteWriter::PutTable + ByteReader::GetTable
  kLease,       ///< ControllerPool checkout + release
  kMetricsInc,  ///< a batch of MetricsRegistry::Inc
};

/// Flags on a kCall span.
inline constexpr uint8_t kSpanWrite = 1;     ///< a saga write
inline constexpr uint8_t kSpanCacheHit = 2;  ///< served at cache_hit_us

struct BenchSpan {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< shared by every span of one request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = SpanName::kCall;
  uint8_t arch = 0;
  uint8_t phase = 0;
  uint8_t flags = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans of one client thread; merged into the SpanLog when the thread ends.
/// Holds at most `capacity` spans, which bounds the memory and the size of
/// the span file however fast the program runs.
class SpanShard {
 public:
  SpanShard(uint8_t arch, uint8_t phase, uint64_t id_base, size_t capacity)
      : arch_(arch), phase_(phase), next_id_(id_base), capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Records a finished span and returns its id; 0 (nothing recorded) once
  /// the shard is full.
  uint64_t Add(SpanName name, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns, uint8_t flags = 0);

  bool full() const { return spans_.size() >= capacity_; }
  std::vector<BenchSpan>& spans() { return spans_; }

 private:
  uint8_t arch_;
  uint8_t phase_;
  uint64_t next_id_;
  size_t capacity_;
  std::vector<BenchSpan> spans_;
};

/// All spans of a run.
class SpanLog {
 public:
  /// Id base for a new shard; ids stay unique across shards.
  uint64_t NextIdBase();

  void Merge(SpanShard& shard);

  /// Durations (µs) of spans matching name/arch/phase; arch or phase < 0
  /// matches any. `flags_mask`/`flags_value` select by flags.
  std::vector<double> Micros(SpanName name, int arch, int phase,
                             uint8_t flags_mask = 0,
                             uint8_t flags_value = 0) const;

  size_t size() const { return spans_.size(); }

  /// Writes every span as one tab-separated line. False on I/O failure.
  bool WriteTsv(const std::string& path,
                const std::vector<std::string>& arch_names,
                const std::vector<std::string>& phase_names) const;

 private:
  std::mutex mu_;
  uint64_t next_base_ = 1;
  std::vector<BenchSpan> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
