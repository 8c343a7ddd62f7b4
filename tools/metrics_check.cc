// Validates the metrics exposition the bench binaries emit (DESIGN.md §8)
// and the cluster observability facade (§13.4).  Trace exports are
// validated by tools/orion_trace.
//
//   metrics_check <metrics.prom> <metrics.json> [bench.json...]
//   metrics_check --cluster <cluster.prom> <cluster.json> <own.json>
//                 <cell1.json> [cell2.json...]
//
// Default mode checks, in order:
//   1. The Prometheus file parses: every non-comment line is
//      `name{labels} value` with a sane metric name, every sample is
//      preceded by a `# TYPE` for its family, histogram `_bucket` series
//      are cumulative and consistent with `_count`.
//   2. The JSON file parses (minimal recursive-descent parser — no
//      third-party dependency) and has the {counters, gauges, histograms}
//      shape.
//   3. The two expositions agree: every counter in the JSON appears as a
//      Prometheus sample with the same value, and vice versa.
//   4. Any extra bench JSON files parse too (shape check only).
//
// --cluster reconciles a Cluster::Stats() export against the registries it
// merged: <own.json> is the cluster's own (coordinator) registry and each
// <cellN.json> is one cell's Database::Stats(), all exported BEFORE the
// cluster snapshot.  Counters and histogram counts must satisfy
// cluster == own + sum(cells) exactly — no double-count, no missing family
// — except families a background thread advances between exports
// (reclaim.*, trace.dropped), which must only be monotone (cluster >=
// own + sum).  Gauges are point-in-time, so only their labeling is
// checked: every cell gauge appears as `name|cell=<tag>`, tag taken from
// the cell file's position (1-based).  When the export carries the §14
// rpc.* family it must also reconcile internally (requests ==
// request_us.count + shed) and be quiescent (rpc.connections and
// rpc.in_flight both zero — the server was stopped before the export).
//
// Exit code 0 on success; prints the first failure and exits 1 otherwise.

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json.h"

namespace tools {

void Fail(const std::string& message) {
  std::fprintf(stderr, "metrics_check: FAIL: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace tools

namespace {

using tools::Fail;
using tools::JsonParser;
using tools::JsonValue;
using tools::ReadFile;

// --- Prometheus exposition parser -------------------------------------------

struct PromSample {
  std::string name;    // full series name including _bucket/_sum/_count
  std::string labels;  // raw text between braces, "" if none
  double value = 0;
};

bool ValidMetricName(const std::string& name) {
  if (name.empty() || (!std::isalpha(static_cast<unsigned char>(name[0])) &&
                       name[0] != '_' && name[0] != ':')) {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':') {
      return false;
    }
  }
  return true;
}

struct PromDoc {
  std::vector<PromSample> samples;
  std::map<std::string, std::string> types;  // family -> counter/gauge/histogram
};

PromDoc ParsePrometheus(const std::string& text) {
  PromDoc doc;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      continue;
    }
    const std::string at = " (line " + std::to_string(lineno) + ")";
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, family, type;
      ls >> hash >> kind >> family >> type;
      if (kind == "TYPE") {
        if (family.empty() || type.empty()) {
          Fail("malformed # TYPE line" + at);
        }
        if (doc.types.count(family) > 0) {
          Fail("duplicate # TYPE for family " + family + at);
        }
        doc.types[family] = type;
      }
      continue;  // HELP and other comments are free-form
    }
    PromSample s;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') {
      ++i;
    }
    s.name = line.substr(0, i);
    if (!ValidMetricName(s.name)) {
      Fail("bad metric name '" + s.name + "'" + at);
    }
    if (i < line.size() && line[i] == '{') {
      const size_t close = line.find('}', i);
      if (close == std::string::npos) {
        Fail("unterminated label set" + at);
      }
      s.labels = line.substr(i + 1, close - i - 1);
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      Fail("expected space before sample value" + at);
    }
    const std::string value_text = line.substr(i + 1);
    char* end = nullptr;
    s.value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() ||
        (*end != '\0' && std::string(end) != "\n")) {
      if (value_text != "+Inf" && value_text != "-Inf" &&
          value_text != "NaN") {
        Fail("bad sample value '" + value_text + "'" + at);
      }
    }
    doc.samples.push_back(std::move(s));
  }
  return doc;
}

/// Family of a series name: strips the histogram suffixes.
std::string FamilyOf(const std::string& series) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (series.size() > s.size() &&
        series.compare(series.size() - s.size(), s.size(), s) == 0) {
      return series.substr(0, series.size() - s.size());
    }
  }
  return series;
}

void CheckPrometheus(const PromDoc& doc) {
  if (doc.samples.empty()) {
    Fail("Prometheus exposition contains no samples");
  }
  // Every sample's family must be declared, honoring that a histogram
  // family covers its _bucket/_sum/_count series.
  for (const PromSample& s : doc.samples) {
    if (doc.types.count(s.name) > 0) {
      continue;
    }
    const std::string family = FamilyOf(s.name);
    auto it = doc.types.find(family);
    if (it == doc.types.end()) {
      Fail("sample '" + s.name + "' has no # TYPE declaration");
    }
    if (it->second != "histogram") {
      Fail("series '" + s.name + "' uses histogram suffixes but family '" +
           family + "' is typed " + it->second);
    }
  }
  // Histogram checks: cumulative buckets ending in +Inf == _count.
  for (const auto& [family, type] : doc.types) {
    if (type != "histogram") {
      continue;
    }
    double last_bucket = -1;
    double inf_bucket = -1;
    double count = -1;
    bool saw_inf = false;
    for (const PromSample& s : doc.samples) {
      if (s.name == family + "_bucket") {
        if (s.value + 1e-9 < last_bucket) {
          Fail("histogram " + family + " buckets are not cumulative");
        }
        last_bucket = s.value;
        if (s.labels.find("le=\"+Inf\"") != std::string::npos) {
          saw_inf = true;
          inf_bucket = s.value;
        }
      } else if (s.name == family + "_count") {
        count = s.value;
      }
    }
    if (!saw_inf) {
      Fail("histogram " + family + " is missing the +Inf bucket");
    }
    if (count < 0) {
      Fail("histogram " + family + " is missing _count");
    }
    if (inf_bucket != count) {
      Fail("histogram " + family + ": +Inf bucket != _count");
    }
  }
}

// --- Cross-checks -----------------------------------------------------------

/// `orion_` + name with non-alphanumerics mapped to '_': must match
/// MetricsSnapshot::ToPrometheus.
std::string PromNameOf(const std::string& json_name) {
  std::string out = "orion_";
  for (char c : json_name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out;
}

void CrossCheck(const PromDoc& prom, const JsonValue& json) {
  const JsonValue* counters = json.Find("counters");
  const JsonValue* gauges = json.Find("gauges");
  const JsonValue* histograms = json.Find("histograms");
  if (counters == nullptr || gauges == nullptr || histograms == nullptr) {
    Fail("metrics JSON lacks the {counters, gauges, histograms} shape");
  }
  std::map<std::string, double> prom_values;
  for (const PromSample& s : prom.samples) {
    if (s.labels.empty()) {
      prom_values[s.name] = s.value;
    }
  }
  for (const auto& [name, value] : counters->object) {
    auto it = prom_values.find(PromNameOf(name));
    if (it == prom_values.end()) {
      Fail("counter '" + name + "' is in the JSON but not the Prometheus "
           "exposition");
    }
    if (it->second != value.number) {
      Fail("counter '" + name + "' disagrees between expositions (" +
           std::to_string(it->second) + " vs " +
           std::to_string(value.number) + ")");
    }
  }
  for (const auto& [name, h] : histograms->object) {
    const JsonValue* count = h.Find("count");
    if (count == nullptr) {
      Fail("histogram '" + name + "' in JSON lacks a count");
    }
    auto it = prom_values.find(PromNameOf(name) + "_count");
    if (it == prom_values.end()) {
      Fail("histogram '" + name + "' is in the JSON but not the Prometheus "
           "exposition");
    }
    if (it->second != count->number) {
      Fail("histogram '" + name + "' count disagrees between expositions");
    }
  }
  // Reverse direction: every Prometheus family must exist in the JSON.
  for (const auto& [family, type] : prom.types) {
    bool found = false;
    for (const auto* section : {counters, gauges, histograms}) {
      for (const auto& [name, v] : section->object) {
        if (PromNameOf(name) == family) {
          found = true;
          break;
        }
      }
    }
    if (!found) {
      Fail("Prometheus family '" + family + "' has no JSON counterpart");
    }
  }
}

// --- Cluster facade reconciliation (--cluster) ------------------------------

const JsonValue& Section(const JsonValue& doc, const char* key,
                         const std::string& file) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kObject) {
    Fail(file + " lacks the '" + key + "' section");
  }
  return *v;
}

/// True for families a background thread (the per-cell reclaimer) advances
/// between the per-part exports and the cluster snapshot: equality cannot
/// hold, monotonicity must.
bool BackgroundDriven(const std::string& family) {
  return family.compare(0, 8, "reclaim.") == 0 || family == "trace.dropped";
}

double HistCount(const JsonValue& hist, const std::string& family) {
  const JsonValue* count = hist.Find("count");
  if (count == nullptr || count->kind != JsonValue::Kind::kNumber) {
    Fail("histogram '" + family + "' lacks a numeric count");
  }
  return count->number;
}

void CheckCluster(const PromDoc& prom, const JsonValue& cluster,
                  const JsonValue& own,
                  const std::vector<const JsonValue*>& cells,
                  const std::vector<std::string>& files) {
  const JsonValue& c_counters = Section(cluster, "counters", files[1]);
  const JsonValue& c_gauges = Section(cluster, "gauges", files[1]);
  const JsonValue& c_hists = Section(cluster, "histograms", files[1]);
  // counters: cluster == own + sum(cells), per family, both directions.
  auto part_sum = [&](const char* section, const std::string& family,
                      double* sum) {
    bool found = false;
    const bool hist = section == std::string("histograms");
    const JsonValue* v = Section(own, section, files[2]).Find(family);
    if (v != nullptr) {
      *sum += hist ? HistCount(*v, family) : v->number;
      found = true;
    }
    for (const JsonValue* cell : cells) {
      const JsonValue* cv = Section(*cell, section, "cell file").Find(family);
      if (cv != nullptr) {
        *sum += hist ? HistCount(*cv, family) : cv->number;
        found = true;
      }
    }
    return found;
  };
  for (const char* section : {"counters", "histograms"}) {
    const JsonValue& merged =
        section == std::string("counters") ? c_counters : c_hists;
    for (const auto& [family, value] : merged.object) {
      double sum = 0;
      if (!part_sum(section, family, &sum)) {
        Fail("cluster " + std::string(section) + " family '" + family +
             "' exists in no per-part registry (invented family)");
      }
      const double merged_value = section == std::string("counters")
                                      ? value.number
                                      : HistCount(value, family);
      if (BackgroundDriven(family)) {
        if (merged_value + 1e-9 < sum) {
          Fail("cluster " + std::string(section) + " '" + family +
               "' went backwards: " + std::to_string(merged_value) +
               " < part sum " + std::to_string(sum));
        }
      } else if (merged_value != sum) {
        Fail("cluster " + std::string(section) + " '" + family +
             "' != own + sum(cells): " + std::to_string(merged_value) +
             " vs " + std::to_string(sum) + " (double-count or loss)");
      }
    }
    // Reverse: every per-part family must be in the merged snapshot.
    auto require_family = [&](const JsonValue& doc, const std::string& file) {
      for (const auto& [family, v] : Section(doc, section, file).object) {
        if (merged.Find(family) == nullptr) {
          Fail(file + " " + section + " family '" + family +
               "' is missing from the cluster snapshot");
        }
      }
    };
    require_family(own, files[2]);
    for (size_t i = 0; i < cells.size(); ++i) {
      require_family(*cells[i], files[3 + i]);
    }
  }
  // Gauges: cluster-own gauges pass through unlabeled; each cell's appear
  // as `name|cell=<tag>` (tag = 1-based file position).  Values are
  // point-in-time and not compared.
  for (const auto& [name, v] : Section(own, "gauges", files[2]).object) {
    if (c_gauges.Find(name) == nullptr) {
      Fail("cluster gauge '" + name + "' (own registry) is missing");
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    const std::string label = "|cell=" + std::to_string(i + 1);
    for (const auto& [name, v] :
         Section(*cells[i], "gauges", files[3 + i]).object) {
      if (c_gauges.Find(name + label) == nullptr) {
        Fail("cell " + std::to_string(i + 1) + " gauge '" + name +
             "' is missing its labeled cluster series '" + name + label +
             "'");
      }
    }
  }
  // Labeled keys must round-trip through the Prometheus renderer: the
  // `|cell=N` suffix becomes a proper {cell="N"} label block on the same
  // family name.
  for (const auto& [key, v] : c_gauges.object) {
    const size_t bar = key.find('|');
    if (bar == std::string::npos) {
      continue;
    }
    const std::string family = PromNameOf(key.substr(0, bar));
    bool found = false;
    for (const PromSample& s : prom.samples) {
      if (s.name == family && !s.labels.empty()) {
        found = true;
        break;
      }
    }
    if (!found) {
      Fail("labeled gauge '" + key + "' has no labeled Prometheus sample '" +
           family + "{...}'");
    }
  }
  // §14 rpc front-end (when one ran): every decoded request frame was
  // either shed at admission or measured by the dispatch histogram, and —
  // §14.7 quiescence — a stopped server's export carries authoritatively
  // zero rpc.connections / rpc.in_flight gauges.
  const JsonValue* rpc_requests = c_counters.Find("rpc.requests");
  if (rpc_requests != nullptr) {
    const JsonValue* shed = c_counters.Find("rpc.shed");
    const JsonValue* hist = c_hists.Find("rpc.request_us");
    if (shed == nullptr || hist == nullptr) {
      Fail("rpc.requests is exported but rpc.shed / rpc.request_us is "
           "missing (partial rpc.* family)");
    }
    const double accounted = HistCount(*hist, "rpc.request_us") + shed->number;
    if (accounted != rpc_requests->number) {
      Fail("rpc.requests != rpc.request_us.count + rpc.shed: " +
           std::to_string(rpc_requests->number) + " vs " +
           std::to_string(accounted) + " (requests lost at admission)");
    }
    for (const char* gauge : {"rpc.in_flight", "rpc.connections"}) {
      const JsonValue* v = c_gauges.Find(gauge);
      if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
        Fail("rpc.* family is exported but gauge '" + std::string(gauge) +
             "' is missing");
      }
      if (v->number != 0) {
        Fail("quiescent export has nonzero '" + std::string(gauge) +
             "' = " + std::to_string(v->number) +
             " (server not stopped before export, §14.7)");
      }
    }
  }
  std::printf(
      "metrics_check: cluster OK (%zu counters, %zu gauges, %zu histograms "
      "reconciled across %zu cells)\n",
      c_counters.object.size(), c_gauges.object.size(),
      c_hists.object.size(), cells.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--cluster") {
    if (argc < 6) {
      std::fprintf(stderr,
                   "usage: %s --cluster <cluster.prom> <cluster.json> "
                   "<own.json> <cell1.json> [cell2.json...]\n",
                   argv[0]);
      return 2;
    }
    const PromDoc prom = ParsePrometheus(ReadFile(argv[2]));
    CheckPrometheus(prom);
    const JsonValue cluster = JsonParser(ReadFile(argv[3])).Parse();
    const JsonValue own = JsonParser(ReadFile(argv[4])).Parse();
    std::vector<JsonValue> cell_docs;
    std::vector<std::string> files = {argv[0], argv[3], argv[4]};
    cell_docs.reserve(argc - 5);
    for (int i = 5; i < argc; ++i) {
      cell_docs.push_back(JsonParser(ReadFile(argv[i])).Parse());
      files.push_back(argv[i]);
    }
    std::vector<const JsonValue*> cells;
    cells.reserve(cell_docs.size());
    for (const JsonValue& doc : cell_docs) {
      cells.push_back(&doc);
    }
    CheckCluster(prom, cluster, own, cells, files);
    return 0;
  }
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <metrics.prom> <metrics.json> [bench.json...]\n"
                 "       %s --cluster <cluster.prom> <cluster.json> "
                 "<own.json> <cell1.json> [cell2.json...]\n",
                 argv[0], argv[0]);
    return 2;
  }
  const PromDoc prom = ParsePrometheus(ReadFile(argv[1]));
  CheckPrometheus(prom);
  const JsonValue metrics = JsonParser(ReadFile(argv[2])).Parse();
  CrossCheck(prom, metrics);
  for (int i = 3; i < argc; ++i) {
    const JsonValue doc = JsonParser(ReadFile(argv[i])).Parse();
    if (doc.kind != JsonValue::Kind::kObject) {
      Fail(std::string(argv[i]) + " is not a JSON object");
    }
  }
  std::printf("metrics_check: OK (%zu samples, %zu families)\n",
              prom.samples.size(), prom.types.size());
  return 0;
}
