// Dumps and validates the Chrome-trace JSON the engine's TraceBuffer
// exports (DESIGN.md §13).
//
//   orion_trace <trace.json> [trace_id]
//
// Groups the "traceEvents" complete events by args.trace_id, rebuilds each
// trace's span tree from span_id/parent_id, and prints it indented (one
// trace, or all of them).  Flat spans (trace_id == 0 — subsystems recorded
// outside any session) are counted and skipped.  Every event must be a
// complete ("X") event with a non-empty name, numeric ts/dur/tid and a
// {trace_id, span_id, parent_id, tag} args block; a span inside a trace
// must have a nonzero span_id.
//
// Connectivity is the §13 export invariant this tool enforces: every span
// must either be a root (parent_id == 0) or name a parent present in the
// same trace.  Ring wrap-around cannot break this on a quiescent export —
// children are recorded before their parents, so eviction (oldest first)
// only ever removes subtrees — which makes a dangling parent a real
// propagation bug, with one carve-out: an "rpc.server" span whose parent
// is absent is an adopting root (§14.6) — its parent is the client's
// "rpc.call" span in another process — and is treated as a root here.
// Exit code 1 on the first disconnected trace.
//
// Standalone by design, like the other tools/ binaries: no engine
// libraries; JSON is read by the tools' own parser (tools/json.h).

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "json.h"

namespace tools {

void Fail(const std::string& message) {
  std::fprintf(stderr, "orion_trace: FAIL: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace tools

namespace {

using tools::Fail;
using tools::JsonParser;
using tools::JsonValue;
using tools::ReadFile;

// --- Span trees -------------------------------------------------------------

struct SpanRow {
  std::string name;
  uint64_t ts = 0;
  uint64_t dur = 0;
  uint64_t tid = 0;
  uint64_t tag = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
};

uint64_t NumberField(const JsonValue& obj, const char* key,
                     const std::string& where) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    Fail("event " + where + " lacks numeric field '" + key + "'");
  }
  return static_cast<uint64_t>(v->number);
}

/// trace_id -> spans, in file (= recording) order.
using TraceMap = std::map<uint64_t, std::vector<SpanRow>>;

TraceMap GroupEvents(const JsonValue& doc, size_t* flat_count) {
  const JsonValue* events = doc.Find("traceEvents");
  if (doc.kind != JsonValue::Kind::kObject || events == nullptr ||
      events->kind != JsonValue::Kind::kArray) {
    Fail("document lacks the {\"traceEvents\": [...]} shape");
  }
  TraceMap traces;
  size_t index = 0;
  for (const JsonValue& ev : events->array) {
    const std::string where = std::string("#").append(std::to_string(index++));
    if (ev.kind != JsonValue::Kind::kObject) {
      Fail("event " + where + " is not an object");
    }
    const JsonValue* name = ev.Find("name");
    const JsonValue* ph = ev.Find("ph");
    const JsonValue* args = ev.Find("args");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        name->str.empty()) {
      Fail("event " + where + " lacks a string name");
    }
    if (ph == nullptr || ph->str != "X") {
      Fail("event " + where + " is not a complete ('X') event");
    }
    if (args == nullptr || args->kind != JsonValue::Kind::kObject) {
      Fail("event " + where + " lacks an args object");
    }
    SpanRow row;
    row.name = name->str;
    row.ts = NumberField(ev, "ts", where);
    row.dur = NumberField(ev, "dur", where);
    row.tid = NumberField(ev, "tid", where);
    row.tag = NumberField(*args, "tag", where);
    row.span_id = NumberField(*args, "span_id", where);
    row.parent_id = NumberField(*args, "parent_id", where);
    const uint64_t trace_id = NumberField(*args, "trace_id", where);
    if (trace_id == 0) {
      ++*flat_count;
      continue;
    }
    if (row.span_id == 0) {
      Fail("event " + where + " has trace_id but span_id 0");
    }
    traces[trace_id].push_back(std::move(row));
  }
  return traces;
}

void PrintSubtree(const std::map<uint64_t, std::vector<const SpanRow*>>& kids,
                  const SpanRow& row, int depth) {
  std::printf("  %*s%-18s %8" PRIu64 "us  tid=%" PRIu64, depth * 2, "",
              row.name.c_str(), row.dur, row.tid);
  if (row.tag != 0) {
    std::printf("  tag=%" PRIu64, row.tag);
  }
  std::printf("\n");
  auto it = kids.find(row.span_id);
  if (it == kids.end()) {
    return;
  }
  for (const SpanRow* child : it->second) {
    PrintSubtree(kids, *child, depth + 1);
  }
}

/// Prints one trace's tree; returns false if any span is disconnected.
bool PrintTrace(uint64_t trace_id, const std::vector<SpanRow>& rows) {
  std::map<uint64_t, const SpanRow*> by_id;
  for (const SpanRow& r : rows) {
    by_id[r.span_id] = &r;
  }
  std::vector<const SpanRow*> roots;
  std::vector<const SpanRow*> dangling;
  std::map<uint64_t, std::vector<const SpanRow*>> kids;
  for (const SpanRow& r : rows) {
    if (r.parent_id == 0) {
      roots.push_back(&r);
    } else if (by_id.count(r.parent_id) == 0) {
      if (r.name == "rpc.server") {
        // §14.6 adopting root: its parent span is the client's "rpc.call",
        // which lives in another process's buffer — remote-parented by
        // design, not a propagation bug.
        roots.push_back(&r);
      } else {
        dangling.push_back(&r);
      }
    } else {
      kids[r.parent_id].push_back(&r);
    }
  }
  for (auto& [parent, children] : kids) {
    std::sort(children.begin(), children.end(),
              [](const SpanRow* a, const SpanRow* b) { return a->ts < b->ts; });
  }
  std::printf("trace %" PRIu64 ": %zu spans, %zu root%s\n", trace_id,
              rows.size(), roots.size(), roots.size() == 1 ? "" : "s");
  for (const SpanRow* root : roots) {
    PrintSubtree(kids, *root, 0);
  }
  for (const SpanRow* r : dangling) {
    std::printf("  DISCONNECTED %s (span %" PRIu64 " -> missing parent %"
                PRIu64 ")\n",
                r->name.c_str(), r->span_id, r->parent_id);
  }
  if (roots.empty()) {
    std::printf("  DISCONNECTED: no root span\n");
  }
  return dangling.empty() && !roots.empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: %s <trace.json> [trace_id]\n", argv[0]);
    return 2;
  }
  const JsonValue doc = JsonParser(ReadFile(argv[1])).Parse();
  size_t flat = 0;
  const TraceMap traces = GroupEvents(doc, &flat);
  size_t spans = 0;
  for (const auto& [id, rows] : traces) {
    spans += rows.size();
  }
  std::printf("orion_trace: %zu trace%s, %zu span%s (%zu flat span%s)\n",
              traces.size(), traces.size() == 1 ? "" : "s", spans,
              spans == 1 ? "" : "s", flat, flat == 1 ? "" : "s");
  bool ok = true;
  if (argc == 3) {
    const uint64_t wanted = std::strtoull(argv[2], nullptr, 10);
    auto it = traces.find(wanted);
    if (it == traces.end()) {
      Fail("trace " + std::to_string(wanted) + " is not in this export");
    }
    ok = PrintTrace(it->first, it->second);
  } else {
    for (const auto& [id, rows] : traces) {
      ok = PrintTrace(id, rows) && ok;
    }
  }
  if (!ok) {
    Fail("disconnected span tree (see DISCONNECTED rows above)");
  }
  return 0;
}
