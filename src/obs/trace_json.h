// Chrome trace_event JSON pieces shared by the two trace exporters in
// src/obs: the process-wide export_trace_fragment (obs.cpp) and the per-job
// JobObs::export_trace_fragment (metrics.cpp). Internal to raxh_obs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace raxh::obs::detail {

// Appends `s` as the body of a JSON string literal.
inline void append_json_escaped(std::string& out, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

// Appends one complete ("ph":"X") span event, preceded by ",\n" unless it is
// the fragment's first event.
inline void append_span_event(std::string& out, const std::string& name,
                              std::uint64_t start_ns, std::uint64_t dur_ns,
                              int pid, int tid, bool& first) {
  if (!first) out += ",\n";
  first = false;
  char buf[128];
  out += "{\"name\":\"";
  append_json_escaped(out, name);
  std::snprintf(buf, sizeof(buf),
                "\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                "\"dur\":%.3f}",
                pid, tid, static_cast<double>(start_ns) / 1000.0,
                static_cast<double>(dur_ns) / 1000.0);
  out += buf;
}

}  // namespace raxh::obs::detail
