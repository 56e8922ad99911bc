#include "workload.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "sql/ast.h"

namespace perfbench {

using fedflow::Rng;
using fedflow::Value;

namespace {

// The eight Fig. 5 read functions, in order of increasing mapping
// complexity.
const std::vector<std::string>& ReadFunctions() {
  static const std::vector<std::string> kFunctions = {
      "GibKompNr",     "GetNumberSupp1234", "GetSuppQual",
      "GetSuppQualRelia", "GetSubCompDiscounts", "GetNoSuppComp",
      "GetSuppInfo",   "BuySuppComp"};
  return kFunctions;
}

// One block of the read mix: every read function once and the paper's
// motivating example BuySuppComp twice. With nine slots the median of a
// block never falls on the boundary between two functions' latency
// clusters, so it does not flip between them from seed to seed.
std::vector<std::string> PointBlock() {
  std::vector<std::string> block = ReadFunctions();
  block.push_back("BuySuppComp");
  return block;
}

// Few-row results on hot controllers: each call's fixed cost dominates.
WorkloadConfig PointHot() {
  WorkloadConfig w;
  w.name = "point_hot";
  w.functions = ReadFunctions();
  w.stream_length = PointBlock().size() * 64;
  return w;
}

// point_hot behind an always-on per-flow trace exporter: isolates obs.
WorkloadConfig PointTraced() {
  WorkloadConfig w = PointHot();
  w.name = "point_traced";
  w.server_tracer = true;
  return w;
}

// ~1e3 offers per local call: the data path (appsys, codec, join)
// dominates and fixed costs are a few percent.
WorkloadConfig BulkJoin() {
  WorkloadConfig w;
  w.name = "bulk_join";
  w.scenario.num_suppliers = 32;
  w.scenario.num_components = 200;
  w.mix = Mix::kBulkJoin;
  w.functions = {"GetSubCompDiscounts"};
  w.stream_length = 9 * 24;
  return w;
}

// Saga writes beside Zipf-skewed reads on three threads: contention on the
// controller pool, result cache, metrics and saga locks.
WorkloadConfig FleetRw() {
  WorkloadConfig w;
  w.name = "fleet_rw";
  w.clients = 3;
  w.pool.max_size = 3;
  w.caching = true;
  w.mix = Mix::kReadsWrites;
  w.skew = ArgSkew::kZipf;
  w.functions = ReadFunctions();
  w.functions.push_back("ProcureComponent");
  w.stream_length = (PointBlock().size() + 1) * 60;
  return w;
}

/// Draws indices into a list of `n` scenario entries.
class Picker {
 public:
  Picker(size_t n, ArgSkew skew) {
    cumulative_.reserve(n);
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += skew == ArgSkew::kZipf ? 1.0 / static_cast<double>(i + 1) : 1.0;
      cumulative_.push_back(total);
    }
  }

  size_t Pick(Rng& rng) const {
    double u = rng.UniformDouble() * cumulative_.back();
    auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    return std::min(static_cast<size_t>(it - cumulative_.begin()),
                    cumulative_.size() - 1);
  }

 private:
  std::vector<double> cumulative_;
};

class ArgDrawer {
 public:
  ArgDrawer(const fedflow::appsys::Scenario& scenario, ArgSkew skew)
      : scenario_(scenario),
        suppliers_(scenario.suppliers.size(), skew),
        components_(scenario.components.size(), skew) {}

  Value SupplierName(Rng& rng) const {
    return Value::Varchar(scenario_.suppliers[suppliers_.Pick(rng)].name);
  }
  Value SupplierNo(Rng& rng) const {
    return Value::Int(scenario_.suppliers[suppliers_.Pick(rng)].supplier_no);
  }
  Value CompName(Rng& rng) const {
    return Value::Varchar(scenario_.components[components_.Pick(rng)].name);
  }
  Value CompNo(Rng& rng) const {
    return Value::Int(scenario_.components[components_.Pick(rng)].comp_no);
  }
  /// A component whose bill of material lists exactly `subs` entries (any
  /// component when the scenario has none).
  int32_t CompNoWithSubs(Rng& rng, size_t subs) const {
    std::vector<int32_t> matching;
    for (const fedflow::appsys::ComponentRecord& c : scenario_.components) {
      if (c.sub_components.size() == subs) matching.push_back(c.comp_no);
    }
    if (matching.empty()) return CompNo(rng).AsInt();
    return matching[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(matching.size()) - 1))];
  }

 private:
  const fedflow::appsys::Scenario& scenario_;
  Picker suppliers_;
  Picker components_;
};

// Discount levels of the generated purchasing conditions.
constexpr int32_t kDiscounts[] = {0, 5, 10, 15};

Request ReadRequest(const std::string& function, const ArgDrawer& draw,
                    size_t block, Rng& rng) {
  Request r;
  r.function = function;
  if (function == "GibKompNr") {
    r.args = {draw.CompName(rng)};
  } else if (function == "GetNumberSupp1234") {
    r.args = {draw.CompNo(rng)};
  } else if (function == "GetSuppQual" || function == "GetSuppInfo") {
    r.args = {draw.SupplierName(rng)};
  } else if (function == "GetSuppQualRelia") {
    r.args = {draw.SupplierNo(rng)};
  } else if (function == "GetSubCompDiscounts") {
    // Its cost grows tenfold with the offers matching the discount times the
    // bill-of-material size. Successive blocks cycle through every pairing,
    // so the tail of the latency distribution does not depend on the seed.
    const size_t pairing = block % 16;
    r.args = {Value::Int(draw.CompNoWithSubs(rng, pairing / 4)),
              Value::Int(kDiscounts[pairing % 4])};
  } else if (function == "GetNoSuppComp") {
    r.args = {draw.SupplierName(rng), draw.CompName(rng)};
  } else if (function == "BuySuppComp") {
    r.args = {draw.SupplierNo(rng), draw.CompName(rng)};
  }
  return r;
}

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    const int64_t j = rng.Uniform(0, static_cast<int64_t>(i) - 1);
    std::swap(items[i - 1], items[static_cast<size_t>(j)]);
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"point_hot", "point_traced",
                                                  "bulk_join", "fleet_rw"};
  return kNames;
}

fedflow::Result<WorkloadConfig> FindWorkload(const std::string& name) {
  if (name == "point_hot") return PointHot();
  if (name == "point_traced") return PointTraced();
  if (name == "bulk_join") return BulkJoin();
  if (name == "fleet_rw") return FleetRw();
  return fedflow::Status::NotFound("unknown workload: " + name);
}

std::vector<Request> GenerateStream(const WorkloadConfig& workload,
                                    const fedflow::appsys::Scenario& scenario,
                                    uint64_t seed, int client) {
  // One independent generator per client, derived from the seed alone.
  Rng rng(Rng(seed ^ (0xA0761D6478BD642FULL *
                      static_cast<uint64_t>(client + 1))).Next());
  ArgDrawer draw(scenario, workload.skew);
  std::vector<Request> stream;
  stream.reserve(workload.stream_length);
  for (size_t block_index = 0; stream.size() < workload.stream_length;
       ++block_index) {
    std::vector<Request> block;
    if (workload.mix == Mix::kBulkJoin) {
      // The UDTF lowerings re-read the discount offers once per
      // sub-component, so a call's cost is the offer count times the
      // bill-of-material size. Each block holds every pair of a discount
      // level matching ~1e3 offers and a bill of 1, 2 or 3 sub-components.
      for (size_t subs = 1; subs <= 3; ++subs) {
        for (int32_t discount : {0, 5, 10}) {
          Request r;
          r.function = "GetSubCompDiscounts";
          r.args = {Value::Int(draw.CompNoWithSubs(rng, subs)),
                    Value::Int(discount)};
          block.push_back(std::move(r));
        }
      }
    } else {
      for (const std::string& function : PointBlock()) {
        block.push_back(ReadRequest(function, draw, block_index, rng));
      }
      if (workload.mix == Mix::kReadsWrites) {
        Request w;
        w.function = "ProcureComponent";
        w.write = true;
        w.args = {draw.SupplierName(rng), draw.CompNo(rng),
                  Value::Int(static_cast<int32_t>(rng.Uniform(1, 9)))};
        block.push_back(std::move(w));
      }
    }
    Shuffle(block, rng);
    for (Request& r : block) {
      if (stream.size() == workload.stream_length) break;
      stream.push_back(std::move(r));
    }
  }
  return stream;
}

std::string CallSql(const Request& request) {
  return "SELECT * FROM TABLE (" + RequestKey(request) + ") AS R";
}

std::string RequestKey(const Request& request) {
  std::string key = request.function + "(";
  for (size_t i = 0; i < request.args.size(); ++i) {
    if (i > 0) key += ", ";
    key += fedflow::sql::LiteralExpr(request.args[i]).ToSql();
  }
  return key + ")";
}

}  // namespace perfbench
