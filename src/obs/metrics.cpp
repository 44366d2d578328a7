#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "obs/trace_json.h"

namespace raxh::obs {

// ---------------------------------------------------------------------------
// JobObs
// ---------------------------------------------------------------------------

void JobObs::add_span(std::string name, std::uint64_t start_ns,
                      std::uint64_t dur_ns, int lane) {
  std::lock_guard<std::mutex> lock(span_mu_);
  JobSpan span{std::move(name), start_ns, dur_ns, lane};
  if (spans_.size() < kJobSpanCapacity) {
    spans_.push_back(std::move(span));
    return;
  }
  span_full_ = true;
  spans_[span_next_] = std::move(span);
  span_next_ = (span_next_ + 1) % kJobSpanCapacity;
  dropped_spans_.fetch_add(1, std::memory_order_relaxed);
}

void JobObs::set_lane_name(int lane, std::string name) {
  std::lock_guard<std::mutex> lock(span_mu_);
  for (auto& [l, n] : lane_names_)
    if (l == lane) {
      n = std::move(name);
      return;
    }
  lane_names_.emplace_back(lane, std::move(name));
}

std::string JobObs::export_trace_fragment(
    int pid, const std::string& process_name,
    const std::vector<ExtraSpan>& extra) const {
  std::string out;
  bool first = true;
  {
    char buf[64];
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    std::snprintf(buf, sizeof(buf), "%d", pid);
    out += buf;
    out += ",\"args\":{\"name\":\"";
    detail::append_json_escaped(out, process_name);
    out += "\"}}";
    first = false;
  }
  std::lock_guard<std::mutex> lock(span_mu_);
  for (const auto& [lane, lname] : lane_names_) {
    char buf[64];
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
    std::snprintf(buf, sizeof(buf), "%d,\"tid\":%d", pid, lane);
    out += buf;
    out += ",\"args\":{\"name\":\"";
    detail::append_json_escaped(out, lname);
    out += "\"}}";
  }
  for (const auto& e : extra)
    detail::append_span_event(out, e.name, e.start_ns, e.dur_ns, pid, e.lane,
                              first);
  // Chronological emission once the ring wrapped.
  const std::size_t n = spans_.size();
  const std::size_t begin = span_full_ ? span_next_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    const JobSpan& s = spans_[(begin + i) % n];
    detail::append_span_event(out, s.name, s.start_ns, s.dur_ns, pid, s.lane,
                              first);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Thread binding
// ---------------------------------------------------------------------------

namespace detail {
thread_local JobObs* t_job_sink = nullptr;
thread_local int t_job_lane = -1;
}  // namespace detail

namespace {
// The owning reference behind detail::t_job_sink; a thread's binding dies
// with the thread (or at the next bind), never dangles.
thread_local std::shared_ptr<JobObs> t_job_ref;
}  // namespace

void bind_job(std::shared_ptr<JobObs> job) {
  detail::t_job_sink = job.get();
  t_job_ref = std::move(job);
}

std::shared_ptr<JobObs> current_job() { return t_job_ref; }

int current_job_lane() { return detail::t_job_lane; }

JobScope::JobScope(std::shared_ptr<JobObs> job, int lane)
    : saved_(t_job_ref), saved_lane_(detail::t_job_lane) {
  detail::t_job_sink = job.get();
  detail::t_job_lane = lane;
  t_job_ref = std::move(job);
}

JobScope::~JobScope() {
  detail::t_job_sink = saved_.get();
  detail::t_job_lane = saved_lane_;
  t_job_ref = std::move(saved_);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

std::string prom_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char ch : value) {
    switch (ch) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += ch;
    }
  }
  return out;
}

void PromWriter::preamble(const std::string& name, const std::string& help,
                          const char* type) {
  out_ += "# HELP " + name + " " + help + "\n";
  out_ += "# TYPE " + name + " ";
  out_ += type;
  out_ += "\n";
}

namespace {

std::string format_double(double value) {
  char buf[64];
  // %.17g round-trips doubles; trim the noise for the common clean cases.
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace

void PromWriter::gauge(const std::string& name, const std::string& help,
                       double value) {
  preamble(name, help, "gauge");
  out_ += name + " " + format_double(value) + "\n";
}

void PromWriter::counter(const std::string& name, const std::string& help,
                         std::uint64_t value) {
  preamble(name, help, "counter");
  out_ += name + " " + std::to_string(value) + "\n";
}

void PromWriter::counter_labeled(
    const std::string& name, const std::string& help,
    const std::string& label_name,
    const std::vector<std::pair<std::string, std::uint64_t>>& series) {
  preamble(name, help, "counter");
  for (const auto& [label, value] : series)
    out_ += name + "{" + label_name + "=\"" + prom_escape_label(label) +
            "\"} " + std::to_string(value) + "\n";
}

void PromWriter::gauge_labeled(
    const std::string& name, const std::string& help,
    const std::string& label_name,
    const std::vector<std::pair<std::string, double>>& series) {
  preamble(name, help, "gauge");
  for (const auto& [label, value] : series)
    out_ += name + "{" + label_name + "=\"" + prom_escape_label(label) +
            "\"} " + format_double(value) + "\n";
}

void PromWriter::counter_multilabeled(
    const std::string& name, const std::string& help,
    const std::vector<std::pair<std::string, std::uint64_t>>& series) {
  preamble(name, help, "counter");
  for (const auto& [labels, value] : series)
    out_ += name + "{" + labels + "} " + std::to_string(value) + "\n";
}

void PromWriter::gauge_multilabeled(
    const std::string& name, const std::string& help,
    const std::vector<std::pair<std::string, double>>& series) {
  preamble(name, help, "gauge");
  for (const auto& [labels, value] : series)
    out_ += name + "{" + labels + "} " + format_double(value) + "\n";
}

void PromWriter::histogram_ns(const std::string& name, const std::string& help,
                              const HistSnapshot& snap) {
  preamble(name, help, "histogram");
  // Cumulative `le` buckets in seconds at the log2 upper bounds. Every
  // scrape emits the same bucket boundaries (up to the fixed top) so a
  // Prometheus server sees a stable series set; empty high buckets beyond
  // the last occupied one collapse into +Inf to keep scrapes compact.
  int top = 0;
  for (int b = 0; b < kHistBuckets; ++b)
    if (snap.buckets[b] != 0) top = b;
  std::uint64_t cumulative = 0;
  for (int b = 0; b <= top; ++b) {
    cumulative += snap.buckets[b];
    const double le =
        static_cast<double>(hist_bucket_upper(b)) / 1e9;  // ns -> s
    out_ += name + "_bucket{le=\"" + format_double(le) + "\"} " +
            std::to_string(cumulative) + "\n";
  }
  out_ += name + "_bucket{le=\"+Inf\"} " + std::to_string(snap.count) + "\n";
  out_ += name + "_sum " +
          format_double(static_cast<double>(snap.sum_ns) / 1e9) + "\n";
  out_ += name + "_count " + std::to_string(snap.count) + "\n";
}

}  // namespace raxh::obs
