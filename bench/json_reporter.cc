#include "json_reporter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/json.h"
#include "common/stringutil.h"

namespace copydetect {
namespace bench {
namespace {

// JSON has no NaN/Inf literals; non-finite measurements degrade to 0.
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  return StrFormat("%.9g", v);
}

}  // namespace

JsonReporter::JsonReporter(std::string benchmark_name)
    : benchmark_name_(std::move(benchmark_name)) {}

void JsonReporter::Add(BenchRecord record) {
  records_.push_back(std::move(record));
}

std::string JsonReporter::ToJson() const {
  std::string out;
  out += "{\n";
  out += StrFormat("  \"benchmark\": \"%s\",\n",
                   JsonEscape(benchmark_name_).c_str());
  out += "  \"schema_version\": 5,\n";
  out += StrFormat("  \"host_cpus\": %u,\n",
                   std::max(1u, std::thread::hardware_concurrency()));
  out += StrFormat("  \"build_type\": \"%s\",\n",
                   JsonEscape(COPYDETECT_BENCH_BUILD_TYPE).c_str());
  out += StrFormat("  \"sanitize\": \"%s\",\n",
                   JsonEscape(COPYDETECT_BENCH_SANITIZE).c_str());
  out += "  \"records\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const BenchRecord& r = records_[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat(
        "    {\"name\": \"%s\", \"detector\": \"%s\", "
        "\"dataset\": \"%s\", \"scale\": %s, \"real_seconds\": %s, "
        "\"cpu_seconds\": %s, \"iterations\": %llu, "
        "\"items_per_second\": %s, \"threads\": %llu",
        JsonEscape(r.name).c_str(), JsonEscape(r.detector).c_str(),
        JsonEscape(r.dataset).c_str(), Num(r.scale).c_str(),
        Num(r.real_seconds).c_str(), Num(r.cpu_seconds).c_str(),
        static_cast<unsigned long long>(r.iterations),
        Num(r.items_per_second).c_str(),
        static_cast<unsigned long long>(r.threads));
    if (r.computations > 0) {
      out += StrFormat(
          ", \"computations\": %llu, \"ns_per_computation\": %s",
          static_cast<unsigned long long>(r.computations),
          Num(r.real_seconds * 1e9 / static_cast<double>(r.computations))
              .c_str());
    }
    out += "}";
  }
  out += records_.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

namespace {

bool WriteDocument(const std::string& path, const std::string& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "json_reporter: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  bool closed = std::fclose(f) == 0;
  bool ok = written == doc.size() && closed;
  if (!ok) {
    std::fprintf(stderr, "json_reporter: short write to %s\n",
                 path.c_str());
  }
  return ok;
}

}  // namespace

bool JsonReporter::WriteFile(const std::string& path) const {
  return WriteDocument(path, ToJson());
}

QualityReporter::QualityReporter(std::string benchmark_name)
    : benchmark_name_(std::move(benchmark_name)) {}

void QualityReporter::Add(QualityRecord record) {
  records_.push_back(std::move(record));
}

std::string QualityReporter::ToJson() const {
  std::string out;
  out += "{\n";
  out += StrFormat("  \"benchmark\": \"%s\",\n",
                   JsonEscape(benchmark_name_).c_str());
  out += "  \"schema_version\": 1,\n";
  out += "  \"records\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const QualityRecord& r = records_[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat(
        "    {\"scenario\": \"%s\", \"detector\": \"%s\", "
        "\"scale\": %s, \"precision\": %s, \"recall\": %s, "
        "\"f1\": %s, \"fusion_accuracy\": %s, \"output_pairs\": %llu, "
        "\"reference_pairs\": %llu}",
        JsonEscape(r.scenario).c_str(), JsonEscape(r.detector).c_str(),
        Num(r.scale).c_str(), Num(r.precision).c_str(),
        Num(r.recall).c_str(), Num(r.f1).c_str(),
        Num(r.fusion_accuracy).c_str(),
        static_cast<unsigned long long>(r.output_pairs),
        static_cast<unsigned long long>(r.reference_pairs));
  }
  out += records_.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool QualityReporter::WriteFile(const std::string& path) const {
  return WriteDocument(path, ToJson());
}

}  // namespace bench
}  // namespace copydetect
