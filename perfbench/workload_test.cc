// Properties of the request generator: the same seed gives the same stream,
// another seed another one, and every argument names something that exists
// in the workload's scenario.
#include <cstdio>
#include <set>
#include <string>

#include "workload.h"

namespace {

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

std::string Render(const std::vector<perfbench::Request>& stream) {
  std::string out;
  for (const perfbench::Request& r : stream) {
    out += perfbench::RequestKey(r) + (r.write ? " w\n" : "\n");
  }
  return out;
}

void CheckArgumentsExist(const perfbench::WorkloadConfig& w,
                         const fedflow::appsys::Scenario& s,
                         const std::vector<perfbench::Request>& stream) {
  std::set<std::string> names;
  std::set<int32_t> numbers;
  for (const auto& sup : s.suppliers) {
    names.insert(sup.name);
    numbers.insert(sup.supplier_no);
  }
  for (const auto& comp : s.components) {
    names.insert(comp.name);
    numbers.insert(comp.comp_no);
  }
  for (const perfbench::Request& r : stream) {
    for (size_t i = 0; i < r.args.size(); ++i) {
      const fedflow::Value& v = r.args[i];
      const bool discount = r.function == "GetSubCompDiscounts" && i == 1;
      const bool amount = r.function == "ProcureComponent" && i == 2;
      if (v.type() == fedflow::DataType::kVarchar) {
        Expect(names.count(v.AsVarchar()) == 1,
               w.name + ": unknown name in " + perfbench::RequestKey(r));
      } else if (discount) {
        Expect(v.AsInt() % 5 == 0 && v.AsInt() >= 0 && v.AsInt() <= 15,
               w.name + ": bad discount in " + perfbench::RequestKey(r));
      } else if (amount) {
        Expect(v.AsInt() >= 1 && v.AsInt() <= 9,
               w.name + ": bad amount in " + perfbench::RequestKey(r));
      } else {
        Expect(numbers.count(v.AsInt()) == 1,
               w.name + ": unknown number in " + perfbench::RequestKey(r));
      }
    }
  }
}

}  // namespace

int main() {
  for (const std::string& name : perfbench::WorkloadNames()) {
    auto workload = perfbench::FindWorkload(name);
    Expect(workload.ok(), "workload " + name + " exists");
    if (!workload.ok()) continue;
    const fedflow::appsys::Scenario scenario =
        fedflow::appsys::GenerateScenario(workload->scenario);
    for (int client = 0; client < workload->clients; ++client) {
      const auto a = perfbench::GenerateStream(*workload, scenario, 7, client);
      const auto b = perfbench::GenerateStream(*workload, scenario, 7, client);
      const auto c = perfbench::GenerateStream(*workload, scenario, 8, client);
      Expect(a.size() == workload->stream_length, name + ": stream length");
      Expect(Render(a) == Render(b), name + ": same seed, same stream");
      Expect(Render(a) != Render(c), name + ": other seed, other stream");
      if (client > 0) {
        const auto first = perfbench::GenerateStream(*workload, scenario, 7, 0);
        Expect(Render(a) != Render(first), name + ": clients differ");
      }
      CheckArgumentsExist(*workload, scenario, a);
      std::set<std::string> functions;
      size_t writes = 0;
      for (const perfbench::Request& r : a) {
        functions.insert(r.function);
        writes += r.write ? 1 : 0;
      }
      Expect(functions.size() == workload->functions.size(),
             name + ": every registered function is called");
      if (workload->mix == perfbench::Mix::kReadsWrites) {
        Expect(writes * 10 == a.size(), name + ": 10% writes");
      } else {
        Expect(writes == 0, name + ": read-only");
      }
    }
  }
  std::printf("%s\n", g_failures == 0 ? "workload_test: ok" : "workload_test: FAILED");
  return g_failures == 0 ? 0 : 1;
}
