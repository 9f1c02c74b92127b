#include "obs/trace_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <unordered_map>

namespace itask::obs {

namespace {

// Display names for kMsgSend/kMsgRecv flow arrows, keyed by the wire message
// kind in the event's aux field. The numbering mirrors net::MsgKind (obs sits
// below net, so it cannot include the enum; net/message.h carries the matching
// static_assert). A send and its recv always compute the same name — Chrome
// pairs flow events by (name, id).
const char* FlowEventName(std::uint8_t msg_kind) {
  switch (msg_kind) {
    case 0: return "flow_shuffle";
    case 1: return "flow_shuffle_ack";
    case 2: return "flow_heartbeat";
    case 3: return "flow_join";
    case 4: return "flow_join_ack";
    case 5: return "flow_dispatch";
    case 6: return "flow_result";
    case 7: return "flow_bye";
    case 8: return "flow_metrics";
    default: return "flow_msg";
  }
}

bool IsFlowKind(EventKind kind) {
  return kind == EventKind::kMsgSend || kind == EventKind::kMsgRecv;
}

// One Chrome trace_event object. GC events carry their pause as a duration
// slice ending at the emission timestamp (the listener runs at GC end);
// message send/recv events become flow-begin/flow-end halves keyed by their
// span id; all other kinds are instants.
void AppendEventJson(std::string& out, const Event& event) {
  char buf[256];
  const bool is_gc = event.kind == EventKind::kGc;
  const bool is_flow = IsFlowKind(event.kind);
  const double pause_us = static_cast<double>(event.aux);
  double ts_us = static_cast<double>(event.t_ns) / 1000.0;
  if (is_gc) {
    ts_us = ts_us > pause_us ? ts_us - pause_us : 0.0;
  }
  const char* name = EventKindName(event.kind);
  const char* ph = is_gc ? "X" : "i";
  if (is_flow) {
    name = FlowEventName(FlowMsgKind(event.aux));
    ph = event.kind == EventKind::kMsgSend ? "s" : "f";
  }
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"irs\",\"ph\":\"%s\",\"ts\":%.3f,",
                name, ph, ts_us);
  out += buf;
  if (is_gc) {
    std::snprintf(buf, sizeof(buf), "\"dur\":%.3f,", pause_us);
    out += buf;
  } else if (is_flow) {
    // The span id doubles as the flow id; "bp":"e" binds the arrow's head to
    // the enclosing instant instead of the next slice.
    std::snprintf(buf, sizeof(buf), "\"id\":\"0x%" PRIx64 "\",%s", event.a,
                  event.kind == EventKind::kMsgRecv ? "\"bp\":\"e\"," : "");
    out += buf;
  } else {
    out += "\"s\":\"t\",";
  }
  std::snprintf(buf, sizeof(buf), "\"pid\":%u,\"tid\":%u,\"args\":{\"a\":%" PRIu64
                ",\"b\":%" PRIu64 ",\"aux\":%u,\"flags\":%u",
                event.node, event.tid, event.a, event.b, event.aux, event.flags);
  out += buf;
  switch (event.kind) {
    case EventKind::kGc:
      std::snprintf(buf, sizeof(buf), ",\"lugc\":%d", (event.flags & kFlagLugc) ? 1 : 0);
      out += buf;
      break;
    case EventKind::kVictimSelect:
    case EventKind::kTaskInterrupt:
      std::snprintf(buf, sizeof(buf), ",\"rule\":\"%s\"",
                    InterruptRuleName(static_cast<InterruptRule>(event.flags)));
      out += buf;
      break;
    case EventKind::kNetFlush:
    case EventKind::kNetStall:
      // The transport sink biases the endpoint by +1 so endpoint 0 survives an
      // unsigned aux; decode it back to a real endpoint here (-1 = driver).
      std::snprintf(buf, sizeof(buf), ",\"dst\":%d", static_cast<int>(event.aux) - 1);
      out += buf;
      break;
    case EventKind::kMsgSend:
    case EventKind::kMsgRecv:
      std::snprintf(buf, sizeof(buf), ",\"peer\":%d,\"msg\":%u", FlowPeer(event.aux),
                    FlowMsgKind(event.aux));
      out += buf;
      break;
    default:
      break;
  }
  out += "}}";
}

void AppendMetaJson(std::string& out, const TraceProcessMeta& meta) {
  char buf[384];
  // Chrome-standard lane label plus our own alignment record. The process
  // name lands in the meta record's "proc" key (not args.name) so the
  // line-based parser never has to disambiguate two "name" keys on one line.
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
                "\"args\":{\"label\":\"%s\"}},\n",
                meta.name.c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"itask_trace_meta\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
                "\"args\":{\"proc\":\"%s\",\"epoch_us\":%" PRIu64
                ",\"events_dropped\":%" PRIu64 "}}",
                meta.name.c_str(), meta.epoch_us, meta.events_dropped);
  out += buf;
}

bool FindRawField(const std::string& line, const std::string& key, std::string* value) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  std::size_t start = pos + needle.size();
  std::size_t end = start;
  if (start < line.size() && line[start] == '"') {
    ++start;
    end = line.find('"', start);
    if (end == std::string::npos) {
      return false;
    }
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') {
      ++end;
    }
  }
  *value = line.substr(start, end - start);
  return true;
}

// Re-serializes a parsed event for the merged trace. Mirrors AppendEventJson's
// shape so merged files round-trip through the same parser and the kind-extra
// args (rule names, lugc, decoded endpoints) survive the merge.
void AppendParsedEventJson(std::string& out, const ParsedEvent& event) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"irs\",\"ph\":\"%s\",\"ts\":%.3f,",
                event.name.c_str(), event.ph.c_str(), event.ts_us);
  out += buf;
  if (event.ph == "X") {
    std::snprintf(buf, sizeof(buf), "\"dur\":%.3f,", event.dur_us);
    out += buf;
  } else if (event.ph == "s" || event.ph == "f") {
    std::snprintf(buf, sizeof(buf), "\"id\":\"%s\",%s", event.id.c_str(),
                  event.ph == "f" ? "\"bp\":\"e\"," : "");
    out += buf;
  } else {
    out += "\"s\":\"t\",";
  }
  std::snprintf(buf, sizeof(buf), "\"pid\":%d,\"tid\":%d,\"args\":{\"a\":%" PRIu64
                ",\"b\":%" PRIu64 ",\"aux\":%u,\"flags\":%u",
                event.pid, event.tid, event.a, event.b, event.aux, event.flags);
  out += buf;
  if (event.name == "gc") {
    std::snprintf(buf, sizeof(buf), ",\"lugc\":%d", (event.flags & kFlagLugc) ? 1 : 0);
    out += buf;
  } else if (event.name == "victim_select" || event.name == "task_interrupt") {
    std::snprintf(buf, sizeof(buf), ",\"rule\":\"%s\"",
                  InterruptRuleName(static_cast<InterruptRule>(event.flags)));
    out += buf;
  } else if (event.name == "net_flush" || event.name == "net_stall") {
    std::snprintf(buf, sizeof(buf), ",\"dst\":%d", static_cast<int>(event.aux) - 1);
    out += buf;
  } else if (event.ph == "s" || event.ph == "f") {
    std::snprintf(buf, sizeof(buf), ",\"peer\":%d,\"msg\":%u", FlowPeer(event.aux),
                  FlowMsgKind(event.aux));
    out += buf;
  }
  out += "}}";
}

}  // namespace

std::string ChromeTraceJson(const std::vector<Event>& events,
                            const TraceProcessMeta* meta) {
  std::string out;
  out.reserve(events.size() * 160 + 512);
  out += "{\"traceEvents\":[\n";
  if (meta != nullptr) {
    AppendMetaJson(out, *meta);
    if (!events.empty()) {
      out += ',';
    }
    out += '\n';
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    AppendEventJson(out, events[i]);
    if (i + 1 < events.size()) {
      out += ',';
    }
    out += '\n';
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void WriteChromeTrace(std::ostream& os, const std::vector<Event>& events) {
  os << ChromeTraceJson(events);
}

void WriteChromeTrace(std::ostream& os, const std::vector<Event>& events,
                      const TraceProcessMeta& meta) {
  os << ChromeTraceJson(events, &meta);
}

bool ParseChromeTrace(const std::string& json, ParsedTrace* out, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  if (json.find("{\"traceEvents\":[") == std::string::npos) {
    return fail("missing traceEvents envelope");
  }
  long depth = 0;
  for (const char c : json) {
    if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth < 0) {
        return fail("unbalanced braces");
      }
    }
  }
  if (depth != 0) {
    return fail("unbalanced braces");
  }
  std::istringstream is(json);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"name\":") == std::string::npos) {
      continue;  // Envelope lines.
    }
    std::string name;
    std::string ph;
    std::string raw;
    if (!FindRawField(line, "name", &name) || !FindRawField(line, "ph", &ph)) {
      return fail("event line missing name/ph: " + line);
    }
    if (ph == "M") {
      // Metadata records carry no timestamp; fold the alignment header into
      // the trace-level fields and move on.
      if (name == "itask_trace_meta") {
        out->has_meta = true;
        FindRawField(line, "proc", &out->process_name);
        if (FindRawField(line, "epoch_us", &raw)) {
          out->epoch_us = std::strtoull(raw.c_str(), nullptr, 10);
        }
        if (FindRawField(line, "events_dropped", &raw)) {
          out->events_dropped = std::strtoull(raw.c_str(), nullptr, 10);
        }
      }
      continue;
    }
    ParsedEvent event;
    event.name = std::move(name);
    event.ph = std::move(ph);
    if (!FindRawField(line, "ts", &raw)) {
      return fail("event line missing ts: " + line);
    }
    event.ts_us = std::atof(raw.c_str());
    if (FindRawField(line, "dur", &raw)) {
      event.dur_us = std::atof(raw.c_str());
    }
    FindRawField(line, "id", &event.id);
    if (!FindRawField(line, "pid", &raw)) {
      return fail("event line missing pid: " + line);
    }
    event.pid = std::atoi(raw.c_str());
    if (!FindRawField(line, "tid", &raw)) {
      return fail("event line missing tid: " + line);
    }
    event.tid = std::atoi(raw.c_str());
    // args payload (optional for forward compatibility with hand-written
    // fixtures; the exporter always writes all four).
    if (FindRawField(line, "a", &raw)) {
      event.a = std::strtoull(raw.c_str(), nullptr, 10);
    }
    if (FindRawField(line, "b", &raw)) {
      event.b = std::strtoull(raw.c_str(), nullptr, 10);
    }
    if (FindRawField(line, "aux", &raw)) {
      event.aux = static_cast<std::uint32_t>(std::strtoul(raw.c_str(), nullptr, 10));
    }
    if (FindRawField(line, "flags", &raw)) {
      event.flags = static_cast<std::uint32_t>(std::strtoul(raw.c_str(), nullptr, 10));
    }
    out->events.push_back(std::move(event));
  }
  return true;
}

bool ParseChromeTrace(const std::string& json, std::vector<ParsedEvent>* out,
                      std::string* error) {
  ParsedTrace trace;
  if (!ParseChromeTrace(json, &trace, error)) {
    return false;
  }
  for (ParsedEvent& event : trace.events) {
    out->push_back(std::move(event));
  }
  return true;
}

bool MergeChromeTraces(const std::vector<std::string>& jsons, std::ostream& os,
                       MergedTraceStats* stats, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  if (jsons.empty()) {
    return fail("no input traces");
  }
  std::vector<ParsedTrace> traces(jsons.size());
  for (std::size_t i = 0; i < jsons.size(); ++i) {
    std::string perr;
    if (!ParseChromeTrace(jsons[i], &traces[i], &perr)) {
      return fail("input " + std::to_string(i) + ": " + perr);
    }
  }
  std::uint64_t min_epoch = UINT64_MAX;
  for (const ParsedTrace& trace : traces) {
    min_epoch = std::min(min_epoch, trace.epoch_us);
  }
  if (min_epoch == UINT64_MAX) {
    min_epoch = 0;
  }

  struct FlowEnds {
    int send_file = -1;
    int recv_file = -1;
  };
  std::unordered_map<std::string, FlowEnds> flows;
  struct MergedEvent {
    ParsedEvent event;
    int file = 0;
  };
  std::vector<MergedEvent> merged;
  MergedTraceStats local;
  local.files = traces.size();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const double shift_us =
        static_cast<double>(traces[i].epoch_us - min_epoch);
    local.events_dropped += traces[i].events_dropped;
    for (const ParsedEvent& src : traces[i].events) {
      MergedEvent out_event;
      out_event.event = src;
      out_event.event.ts_us += shift_us;
      out_event.event.pid += static_cast<int>(i) * kMergePidStride;
      out_event.file = static_cast<int>(i);
      if (src.ph == "s" && !src.id.empty()) {
        flows[src.id].send_file = static_cast<int>(i);
      } else if (src.ph == "f" && !src.id.empty()) {
        flows[src.id].recv_file = static_cast<int>(i);
      }
      merged.push_back(std::move(out_event));
    }
  }
  for (const auto& [id, ends] : flows) {
    if (ends.send_file >= 0 && ends.recv_file >= 0) {
      ++local.flow_pairs;
      if (ends.send_file != ends.recv_file) {
        ++local.cross_process_pairs;
      }
    } else {
      ++local.unmatched_flows;
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedEvent& lhs, const MergedEvent& rhs) {
                     return lhs.event.ts_us < rhs.event.ts_us;
                   });
  local.events = merged.size();

  std::string out;
  out.reserve(merged.size() * 200 + 1024);
  out += "{\"traceEvents\":[\n";
  char buf[384];
  // Lane labels: one per (input file, original pid) pair actually seen, plus a
  // merged alignment record carrying the common epoch and total drop count.
  std::vector<std::string> lane_lines;
  {
    std::map<int, std::size_t> lanes;  // merged pid -> file index
    for (const MergedEvent& ev : merged) {
      lanes.emplace(ev.event.pid, static_cast<std::size_t>(ev.file));
    }
    for (const auto& [pid, file] : lanes) {
      const std::string& proc = traces[file].process_name;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                    "\"args\":{\"label\":\"%s/node%d\"}}",
                    pid,
                    proc.empty() ? ("trace" + std::to_string(file)).c_str()
                                 : proc.c_str(),
                    pid - static_cast<int>(file) * kMergePidStride);
      lane_lines.emplace_back(buf);
    }
  }
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"itask_trace_meta\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
                "\"args\":{\"proc\":\"merged\",\"epoch_us\":%" PRIu64
                ",\"events_dropped\":%" PRIu64 "}}",
                min_epoch, local.events_dropped);
  lane_lines.emplace_back(buf);
  for (std::size_t i = 0; i < lane_lines.size(); ++i) {
    out += lane_lines[i];
    if (i + 1 < lane_lines.size() || !merged.empty()) {
      out += ',';
    }
    out += '\n';
  }
  for (std::size_t i = 0; i < merged.size(); ++i) {
    AppendParsedEventJson(out, merged[i].event);
    if (i + 1 < merged.size()) {
      out += ',';
    }
    out += '\n';
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  os << out;
  if (stats != nullptr) {
    *stats = local;
  }
  return true;
}

void WriteTraceSummary(std::ostream& os, const std::vector<Event>& events,
                       const TracerStats* stats) {
  std::map<std::string, std::uint64_t> by_kind;
  std::uint64_t lugcs = 0;
  std::uint64_t gc_pause_us = 0;
  std::uint64_t spill_write_bytes = 0;
  std::uint64_t spill_read_bytes = 0;
  std::uint64_t cancelled_writes = 0;
  std::uint64_t cancelled_write_bytes = 0;
  std::uint64_t codec_raw_bytes = 0;
  std::uint64_t codec_framed_bytes = 0;
  std::uint64_t read_stalls = 0;
  std::uint64_t read_stall_ns = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t msg_sends = 0;
  std::uint64_t msg_recvs = 0;
  std::uint64_t msg_bytes = 0;
  std::map<std::string, std::uint64_t> interrupts_by_rule;
  for (const Event& event : events) {
    ++by_kind[EventKindName(event.kind)];
    switch (event.kind) {
      case EventKind::kGc:
        gc_pause_us += event.aux;
        if (event.flags & kFlagLugc) {
          ++lugcs;
        }
        break;
      case EventKind::kSpillWrite:
        spill_write_bytes += event.a;
        break;
      case EventKind::kSpillRead:
        spill_read_bytes += event.a;
        break;
      case EventKind::kIoWriteCancelled:
        ++cancelled_writes;
        cancelled_write_bytes += event.a;
        break;
      case EventKind::kIoCodec:
        codec_raw_bytes += event.a;
        codec_framed_bytes += event.b;
        break;
      case EventKind::kIoReadStall:
        ++read_stalls;
        read_stall_ns += event.a;
        break;
      case EventKind::kIoQueueDepth:
        peak_queue_depth = std::max(peak_queue_depth, event.a);
        break;
      case EventKind::kTaskInterrupt:
        ++interrupts_by_rule[InterruptRuleName(static_cast<InterruptRule>(event.flags))];
        break;
      case EventKind::kMsgSend:
        ++msg_sends;
        msg_bytes += event.b;
        break;
      case EventKind::kMsgRecv:
        ++msg_recvs;
        break;
      default:
        break;
    }
  }
  os << "trace summary: " << events.size() << " events";
  if (stats != nullptr) {
    os << " (emitted=" << stats->emitted << " dropped=" << stats->dropped
       << " threads=" << stats->threads << ")";
  }
  os << "\n";
  for (const auto& [name, count] : by_kind) {
    os << "  " << name << ": " << count << "\n";
  }
  if (by_kind.count("gc") != 0) {
    os << "  gc detail: lugc=" << lugcs << " total_pause_ms="
       << static_cast<double>(gc_pause_us) / 1000.0 << "\n";
  }
  if (!interrupts_by_rule.empty()) {
    os << "  interrupt rules:";
    for (const auto& [rule, count] : interrupts_by_rule) {
      os << " " << rule << "=" << count;
    }
    os << "\n";
  }
  if (msg_sends != 0 || msg_recvs != 0) {
    os << "  message flows: sends=" << msg_sends << " recvs=" << msg_recvs
       << " bytes=" << msg_bytes << "\n";
  }
  if (spill_write_bytes != 0 || spill_read_bytes != 0) {
    os << "  spill io: written=" << spill_write_bytes << "B read=" << spill_read_bytes
       << "B\n";
  }
  if (cancelled_writes != 0 || codec_raw_bytes != 0 || read_stalls != 0 ||
      peak_queue_depth != 0) {
    os << "  async io: cancelled_writes=" << cancelled_writes << " ("
       << cancelled_write_bytes << "B) peak_queue_depth=" << peak_queue_depth;
    if (codec_raw_bytes != 0) {
      os << " codec=" << codec_framed_bytes << "/" << codec_raw_bytes << "B (ratio="
         << static_cast<double>(codec_framed_bytes) / static_cast<double>(codec_raw_bytes)
         << ")";
    }
    if (read_stalls != 0) {
      os << " read_stalls=" << read_stalls
         << " total_stall_ms=" << static_cast<double>(read_stall_ns) / 1e6;
    }
    os << "\n";
  }
}

void WriteTraceTimeline(std::ostream& os, const std::vector<Event>& events,
                        std::size_t max_lines) {
  char buf[224];
  std::size_t emitted = 0;
  for (const Event& event : events) {
    if (max_lines != 0 && emitted >= max_lines) {
      os << "  ... (" << events.size() - emitted << " more)\n";
      return;
    }
    std::snprintf(buf, sizeof(buf),
                  "  %10.3fms node%u/t%u %-20s a=%" PRIu64 " b=%" PRIu64 " aux=%u flags=%u",
                  static_cast<double>(event.t_ns) / 1e6, event.node, event.tid,
                  EventKindName(event.kind), event.a, event.b, event.aux, event.flags);
    os << buf;
    if (event.kind == EventKind::kNetFlush || event.kind == EventKind::kNetStall) {
      os << " dst=" << static_cast<int>(event.aux) - 1;
    } else if (IsFlowKind(event.kind)) {
      std::snprintf(buf, sizeof(buf), " peer=%d span=0x%" PRIx64 " %s",
                    FlowPeer(event.aux), event.a,
                    FlowEventName(FlowMsgKind(event.aux)));
      os << buf;
    }
    os << "\n";
    ++emitted;
  }
}

}  // namespace itask::obs
