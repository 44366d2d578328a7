#include "obs/comm_obs.h"

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <mutex>
#include <new>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/telemetry.h"

namespace raxh::obs::comm {

namespace {

// Edge slot layout inside a block (see record_send/record_recv).
constexpr int kMsgsSent = 0;
constexpr int kBytesSent = 1;
constexpr int kSendNs = 2;
constexpr int kMsgsRecv = 3;
constexpr int kBytesRecv = 4;
constexpr int kRecvNs = 5;
constexpr int kEdgeFields = 6;

// Ring slot layout.
constexpr int kStalls = 0;
constexpr int kStalledNs = 1;
constexpr int kHwmBytes = 2;
constexpr int kRingFields = 3;

// Overlap slot layout.
constexpr int kReqs = 0;
constexpr int kReqTest = 1;
constexpr int kReqWait = 2;
constexpr int kReqInflightNs = 3;
constexpr int kReqBlockedNs = 4;
constexpr int kOverlapFields = 5;

}  // namespace

// One rank's accumulation block: relaxed atomics, owner-thread writes only
// (the thread-tally idiom of telemetry.h), snapshot reads from any thread.
// ~17 KiB per Comm.
struct alignas(64) Block {
  int rank = -1;
  std::atomic<std::uint64_t> edges[kMaxPeers][kNumOps][kEdgeFields];
  std::atomic<std::uint64_t> rings[kMaxPeers][kRingFields];
  std::atomic<std::uint64_t> overlap[kOverlapFields];
  std::atomic<std::uint64_t> clamped;
};

namespace {

// Plain (non-atomic) mirror a retired block folds into, one per rank.
struct PlainBlock {
  EdgeTotals edges[kMaxPeers][kNumOps];
  RingTotals rings[kMaxPeers];
  OverlapTotals overlap;
  std::uint64_t clamped = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<Block*> live;
  std::map<int, PlainBlock> retired;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during static teardown
  return *r;
}

std::atomic<int> g_stalled_now{0};

constexpr auto add_relaxed = detail::bump<detail::Writers::kOwner>;

inline int clamp_peer(Block* block, int peer) {
  if (peer >= 0 && peer < kMaxPeers) return peer;
  add_relaxed(block->clamped, 1);
  return kMaxPeers - 1;
}

void zero_block(Block* block) {
  for (auto& per_peer : block->edges)
    for (auto& per_op : per_peer)
      for (auto& f : per_op) f.store(0, std::memory_order_relaxed);
  for (auto& per_peer : block->rings)
    for (auto& f : per_peer) f.store(0, std::memory_order_relaxed);
  for (auto& f : block->overlap) f.store(0, std::memory_order_relaxed);
  block->clamped.store(0, std::memory_order_relaxed);
}

void fold_into(PlainBlock& out, const Block& block) {
  for (int p = 0; p < kMaxPeers; ++p) {
    for (int op = 0; op < kNumOps; ++op) {
      const auto& e = block.edges[p][op];
      EdgeTotals& t = out.edges[p][op];
      t.msgs_sent += e[kMsgsSent].load(std::memory_order_relaxed);
      t.bytes_sent += e[kBytesSent].load(std::memory_order_relaxed);
      t.send_ns += e[kSendNs].load(std::memory_order_relaxed);
      t.msgs_recv += e[kMsgsRecv].load(std::memory_order_relaxed);
      t.bytes_recv += e[kBytesRecv].load(std::memory_order_relaxed);
      t.recv_ns += e[kRecvNs].load(std::memory_order_relaxed);
    }
    const auto& r = block.rings[p];
    RingTotals& rt = out.rings[p];
    rt.stalls += r[kStalls].load(std::memory_order_relaxed);
    rt.stalled_ns += r[kStalledNs].load(std::memory_order_relaxed);
    rt.hwm_bytes = std::max(rt.hwm_bytes,
                            r[kHwmBytes].load(std::memory_order_relaxed));
  }
  out.overlap.requests += block.overlap[kReqs].load(std::memory_order_relaxed);
  out.overlap.test_completions +=
      block.overlap[kReqTest].load(std::memory_order_relaxed);
  out.overlap.wait_completions +=
      block.overlap[kReqWait].load(std::memory_order_relaxed);
  out.overlap.inflight_ns +=
      block.overlap[kReqInflightNs].load(std::memory_order_relaxed);
  out.overlap.blocked_ns +=
      block.overlap[kReqBlockedNs].load(std::memory_order_relaxed);
  out.clamped += block.clamped.load(std::memory_order_relaxed);
}

}  // namespace

const char* op_name(int op) {
  switch (op) {
    case kOpP2p:
      return "p2p";
    case kOpBarrier:
      return "barrier";
    case kOpBcast:
      return "bcast";
    case kOpReduce:
      return "reduce";
    case kOpGather:
      return "gather";
    default:
      return "unknown";
  }
}

int op_index(const std::string& name) {
  for (int op = 0; op < kNumOps; ++op)
    if (name == op_name(op)) return op;
  return -1;
}

Block* acquire(int rank) {
  auto* block = new Block;
  block->rank = rank;
  zero_block(block);
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.live.push_back(block);
  return block;
}

void retire(Block* block) {
  if (block == nullptr) return;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  fold_into(reg.retired[block->rank], *block);
  reg.live.erase(std::remove(reg.live.begin(), reg.live.end(), block),
                 reg.live.end());
  delete block;
}

void clear(Block* block) {
  if (block != nullptr) zero_block(block);
}

void record_send(Block* block, int peer, int op, std::uint64_t bytes,
                 bool timed, std::uint64_t ns) {
  auto& e = block->edges[clamp_peer(block, peer)][op];
  add_relaxed(e[kMsgsSent], 1);
  add_relaxed(e[kBytesSent], bytes);
  if (!timed) return;
  add_relaxed(e[kSendNs], ns);
  count(Counter::kCommBytesSent, bytes);
}

void record_recv(Block* block, int peer, int op, std::uint64_t bytes,
                 bool timed, std::uint64_t ns) {
  auto& e = block->edges[clamp_peer(block, peer)][op];
  add_relaxed(e[kMsgsRecv], 1);
  add_relaxed(e[kBytesRecv], bytes);
  if (!timed) return;
  add_relaxed(e[kRecvNs], ns);
  count(Counter::kCommBytesRecv, bytes);
}

void record_ring_stall(Block* block, int peer, std::uint64_t ns) {
  auto& r = block->rings[clamp_peer(block, peer)];
  add_relaxed(r[kStalls], 1);
  add_relaxed(r[kStalledNs], ns);
  count(Counter::kCommRingStalls, 1);
  count(Counter::kCommRingStallNs, ns);
}

void record_ring_depth(Block* block, int peer, std::uint64_t bytes) {
  auto& hwm = block->rings[clamp_peer(block, peer)][kHwmBytes];
  if (bytes > hwm.load(std::memory_order_relaxed))
    hwm.store(bytes, std::memory_order_relaxed);
}

void record_request(Block* block, bool completed_by_test,
                    std::uint64_t inflight_ns, std::uint64_t blocked_ns) {
  add_relaxed(block->overlap[kReqs], 1);
  add_relaxed(block->overlap[completed_by_test ? kReqTest : kReqWait], 1);
  add_relaxed(block->overlap[kReqInflightNs], inflight_ns);
  add_relaxed(block->overlap[kReqBlockedNs], blocked_ns);
}

void stall_enter() {
  g_stalled_now.fetch_add(1, std::memory_order_relaxed);
  if (JobObs* job = detail::t_job_sink) job->comm_stall_delta(1);
}

void stall_exit() {
  g_stalled_now.fetch_sub(1, std::memory_order_relaxed);
  if (JobObs* job = detail::t_job_sink) job->comm_stall_delta(-1);
}

int stalled_now() { return g_stalled_now.load(std::memory_order_relaxed); }

double OverlapTotals::overlap_ratio() const {
  if (inflight_ns == 0) return 0.0;
  const std::uint64_t blocked = std::min(blocked_ns, inflight_ns);
  return static_cast<double>(inflight_ns - blocked) /
         static_cast<double>(inflight_ns);
}

BlockTotals totals(const Block* block) {
  BlockTotals out{};
  if (block == nullptr) return out;
  PlainBlock plain;
  fold_into(plain, *block);
  for (int p = 0; p < kMaxPeers; ++p)
    for (int op = 0; op < kNumOps; ++op) {
      const EdgeTotals& e = plain.edges[p][op];
      EdgeTotals& t = out.per_op[static_cast<std::size_t>(op)];
      t.msgs_sent += e.msgs_sent;
      t.bytes_sent += e.bytes_sent;
      t.send_ns += e.send_ns;
      t.msgs_recv += e.msgs_recv;
      t.bytes_recv += e.bytes_recv;
      t.recv_ns += e.recv_ns;
    }
  out.overlap = plain.overlap;
  return out;
}

namespace {

bool edge_nonzero(const EdgeTotals& t) {
  return t.msgs_sent != 0 || t.msgs_recv != 0;
}

bool ring_nonzero(const RingTotals& t) {
  return t.stalls != 0 || t.stalled_ns != 0 || t.hwm_bytes != 0;
}

bool overlap_nonzero(const OverlapTotals& t) { return t.requests != 0; }

Snapshot snapshot_filtered(bool all_ranks, int only_rank) {
  // Fold every live block plus the retired aggregate into per-rank plains,
  // then flatten nonzero entries.
  std::map<int, PlainBlock> merged;
  Registry& reg = registry();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    merged = reg.retired;
    for (const Block* block : reg.live) fold_into(merged[block->rank], *block);
  }
  Snapshot snap;
  snap.stalled_now = stalled_now();
  for (const auto& [rank, plain] : merged) {
    if (!all_ranks && rank != only_rank) continue;
    for (int p = 0; p < kMaxPeers; ++p) {
      for (int op = 0; op < kNumOps; ++op)
        if (edge_nonzero(plain.edges[p][op]))
          snap.edges.push_back(EdgeSample{rank, p, op, plain.edges[p][op]});
      if (ring_nonzero(plain.rings[p]))
        snap.rings.push_back(RingSample{rank, p, plain.rings[p]});
    }
    if (overlap_nonzero(plain.overlap))
      snap.overlap.push_back(OverlapSample{rank, plain.overlap});
    snap.clamped_records += plain.clamped;
  }
  return snap;
}

}  // namespace

Snapshot snapshot() { return snapshot_filtered(true, -1); }

Snapshot snapshot_for_rank(int rank) { return snapshot_filtered(false, rank); }

std::string to_json_section(int rank) {
  const Snapshot snap = snapshot_for_rank(rank);
  std::string out = "\"comm_matrix\":{\"edges\":[";
  char buf[320];
  bool first = true;
  for (const auto& e : snap.edges) {
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"peer\":%d,\"op\":\"%s\",\"msgs_sent\":%llu,\"bytes_sent\":%llu,"
        "\"send_ns\":%llu,\"msgs_recv\":%llu,\"bytes_recv\":%llu,"
        "\"recv_ns\":%llu}",
        first ? "" : ",", e.peer, op_name(e.op),
        static_cast<unsigned long long>(e.t.msgs_sent),
        static_cast<unsigned long long>(e.t.bytes_sent),
        static_cast<unsigned long long>(e.t.send_ns),
        static_cast<unsigned long long>(e.t.msgs_recv),
        static_cast<unsigned long long>(e.t.bytes_recv),
        static_cast<unsigned long long>(e.t.recv_ns));
    out += buf;
    first = false;
  }
  out += "],\"rings\":[";
  first = true;
  for (const auto& r : snap.rings) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"peer\":%d,\"stalls\":%llu,\"stalled_ns\":%llu,"
                  "\"hwm_bytes\":%llu}",
                  first ? "" : ",", r.peer,
                  static_cast<unsigned long long>(r.t.stalls),
                  static_cast<unsigned long long>(r.t.stalled_ns),
                  static_cast<unsigned long long>(r.t.hwm_bytes));
    out += buf;
    first = false;
  }
  out += "],\"overlap\":{";
  OverlapTotals ov;
  for (const auto& o : snap.overlap) {
    ov.requests += o.t.requests;
    ov.test_completions += o.t.test_completions;
    ov.wait_completions += o.t.wait_completions;
    ov.inflight_ns += o.t.inflight_ns;
    ov.blocked_ns += o.t.blocked_ns;
  }
  std::snprintf(buf, sizeof(buf),
                "\"requests\":%llu,\"test_completions\":%llu,"
                "\"wait_completions\":%llu,\"inflight_ns\":%llu,"
                "\"blocked_ns\":%llu},\"clamped_records\":%llu}",
                static_cast<unsigned long long>(ov.requests),
                static_cast<unsigned long long>(ov.test_completions),
                static_cast<unsigned long long>(ov.wait_completions),
                static_cast<unsigned long long>(ov.inflight_ns),
                static_cast<unsigned long long>(ov.blocked_ns),
                static_cast<unsigned long long>(snap.clamped_records));
  out += buf;
  return out;
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (Block* block : reg.live) zero_block(block);
  reg.retired.clear();
  g_stalled_now.store(0, std::memory_order_relaxed);
}

void reset_for_fork() {
  // Called from the obs atfork child hook: the child is single-threaded, but
  // the inherited mutex may have been held mid-fork — re-initialize it
  // before touching the registry.
  Registry& reg = registry();
  new (&reg.mutex) std::mutex;
  for (Block* block : reg.live) zero_block(block);
  reg.retired.clear();
  g_stalled_now.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Offline analysis (tools/raxh_comm)
// ---------------------------------------------------------------------------

namespace {

// Minimal scanning parser for the metrics JSON we emit ourselves. It only
// needs to be robust against *our* output plus hand-edits, so it skips
// strings correctly but does not validate full JSON grammar.

// Advance past a JSON string starting at s[pos] == '"'; returns one past the
// closing quote (or npos on truncation).
std::size_t skip_string(const std::string& s, std::size_t pos) {
  ++pos;
  while (pos < s.size()) {
    if (s[pos] == '\\')
      pos += 2;
    else if (s[pos] == '"')
      return pos + 1;
    else
      ++pos;
  }
  return std::string::npos;
}

// [start, end) offsets of each top-level element object of a JSON array.
std::vector<std::pair<std::size_t, std::size_t>> array_objects(
    const std::string& s, std::size_t from, std::size_t limit) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  int depth = 0;
  std::size_t obj_start = 0;
  for (std::size_t i = from; i < limit && i < s.size();) {
    const char c = s[i];
    if (c == '"') {
      i = skip_string(s, i);
      if (i == std::string::npos) break;
      continue;
    }
    if (c == '{') {
      if (depth == 0) obj_start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) out.emplace_back(obj_start, i + 1);
    } else if (c == ']' && depth == 0) {
      break;
    }
    ++i;
  }
  return out;
}

// Find `"key":` inside [from, limit); returns offset just past the colon,
// or npos.
std::size_t find_key(const std::string& s, const char* key, std::size_t from,
                     std::size_t limit) {
  const std::string pat = std::string("\"") + key + "\":";
  const std::size_t pos = s.find(pat, from);
  if (pos == std::string::npos || pos + pat.size() > limit)
    return std::string::npos;
  return pos + pat.size();
}

std::uint64_t parse_u64_at(const std::string& s, std::size_t pos) {
  std::uint64_t v = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(s[pos] - '0');
    ++pos;
  }
  return v;
}

std::uint64_t u64_field(const std::string& s, const char* key,
                        std::size_t from, std::size_t limit) {
  const std::size_t pos = find_key(s, key, from, limit);
  return pos == std::string::npos ? 0 : parse_u64_at(s, pos);
}

std::string string_field(const std::string& s, const char* key,
                         std::size_t from, std::size_t limit) {
  std::size_t pos = find_key(s, key, from, limit);
  if (pos == std::string::npos || pos >= s.size() || s[pos] != '"') return "";
  const std::size_t end = skip_string(s, pos);
  if (end == std::string::npos) return "";
  return s.substr(pos + 1, end - pos - 2);
}

// End offset of the {...} value starting at the first '{' at/after `pos`.
std::size_t object_end(const std::string& s, std::size_t pos,
                       std::size_t limit) {
  while (pos < limit && s[pos] != '{') ++pos;
  int depth = 0;
  for (std::size_t i = pos; i < limit;) {
    if (s[i] == '"') {
      i = skip_string(s, i);
      if (i == std::string::npos) return std::string::npos;
      continue;
    }
    if (s[i] == '{') ++depth;
    if (s[i] == '}' && --depth == 0) return i + 1;
    ++i;
  }
  return std::string::npos;
}

void parse_rank_object(const std::string& s, std::size_t from,
                       std::size_t limit, RankDump& out) {
  const std::size_t rank_pos = find_key(s, "rank", from, limit);
  if (rank_pos != std::string::npos)
    out.rank = static_cast<int>(parse_u64_at(s, rank_pos));

  // CommStats section: "comm":{"p2p":{...},...}.
  const std::size_t comm_pos = s.find("\"comm\":{", from);
  if (comm_pos != std::string::npos && comm_pos < limit) {
    const std::size_t comm_end = object_end(s, comm_pos + 7, limit);
    if (comm_end != std::string::npos) {
      out.has_comm_stats = true;
      std::size_t cursor = comm_pos;
      for (int op = 0; op < kNumOps; ++op) {
        const std::string pat = std::string("\"") + op_name(op) + "\":{";
        const std::size_t op_pos = s.find(pat, cursor);
        if (op_pos == std::string::npos || op_pos >= comm_end) continue;
        const std::size_t op_end =
            object_end(s, op_pos + pat.size() - 1, comm_end);
        if (op_end == std::string::npos) continue;
        EdgeTotals& t = out.comm_stats[static_cast<std::size_t>(op)];
        t.msgs_sent = u64_field(s, "msgs_sent", op_pos, op_end);
        t.bytes_sent = u64_field(s, "bytes_sent", op_pos, op_end);
        t.msgs_recv = u64_field(s, "msgs_recv", op_pos, op_end);
        t.bytes_recv = u64_field(s, "bytes_recv", op_pos, op_end);
        cursor = op_end;
      }
    }
  }

  // Matrix section: "comm_matrix":{"edges":[...],"rings":[...],...}.
  const std::size_t mat_pos = s.find("\"comm_matrix\":{", from);
  if (mat_pos == std::string::npos || mat_pos >= limit) return;
  const std::size_t mat_end = object_end(s, mat_pos + 14, limit);
  if (mat_end == std::string::npos) return;
  out.has_matrix = true;

  const std::size_t edges_pos = find_key(s, "edges", mat_pos, mat_end);
  if (edges_pos != std::string::npos) {
    for (const auto& [b, e] : array_objects(s, edges_pos + 1, mat_end)) {
      EdgeSample sample;
      sample.rank = out.rank;
      sample.peer = static_cast<int>(u64_field(s, "peer", b, e));
      sample.op = op_index(string_field(s, "op", b, e));
      if (sample.op < 0) continue;
      sample.t.msgs_sent = u64_field(s, "msgs_sent", b, e);
      sample.t.bytes_sent = u64_field(s, "bytes_sent", b, e);
      sample.t.send_ns = u64_field(s, "send_ns", b, e);
      sample.t.msgs_recv = u64_field(s, "msgs_recv", b, e);
      sample.t.bytes_recv = u64_field(s, "bytes_recv", b, e);
      sample.t.recv_ns = u64_field(s, "recv_ns", b, e);
      out.edges.push_back(sample);
    }
  }
  const std::size_t rings_pos = find_key(s, "rings", mat_pos, mat_end);
  if (rings_pos != std::string::npos) {
    for (const auto& [b, e] : array_objects(s, rings_pos + 1, mat_end)) {
      RingSample sample;
      sample.rank = out.rank;
      sample.peer = static_cast<int>(u64_field(s, "peer", b, e));
      sample.t.stalls = u64_field(s, "stalls", b, e);
      sample.t.stalled_ns = u64_field(s, "stalled_ns", b, e);
      sample.t.hwm_bytes = u64_field(s, "hwm_bytes", b, e);
      out.rings.push_back(sample);
    }
  }
  const std::size_t ov_pos = s.find("\"overlap\":{", mat_pos);
  if (ov_pos != std::string::npos && ov_pos < mat_end) {
    const std::size_t ov_end = object_end(s, ov_pos + 10, mat_end);
    if (ov_end != std::string::npos) {
      out.overlap.requests = u64_field(s, "requests", ov_pos, ov_end);
      out.overlap.test_completions =
          u64_field(s, "test_completions", ov_pos, ov_end);
      out.overlap.wait_completions =
          u64_field(s, "wait_completions", ov_pos, ov_end);
      out.overlap.inflight_ns = u64_field(s, "inflight_ns", ov_pos, ov_end);
      out.overlap.blocked_ns = u64_field(s, "blocked_ns", ov_pos, ov_end);
    }
  }
  out.clamped_records = u64_field(s, "clamped_records", mat_pos, mat_end);
}

void append_fmt(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

std::vector<RankDump> parse_metrics_report(const std::string& json,
                                           std::string* error) {
  std::vector<RankDump> out;
  const std::size_t open = json.find('[');
  if (open == std::string::npos) {
    if (error != nullptr) *error = "not a metrics JSON array";
    return out;
  }
  const auto objects = array_objects(json, open + 1, json.size());
  if (objects.empty()) {
    if (error != nullptr) *error = "metrics array holds no rank objects";
    return out;
  }
  for (const auto& [b, e] : objects) {
    RankDump rank;
    parse_rank_object(json, b, e, rank);
    out.push_back(std::move(rank));
  }
  return out;
}

bool reconciles(const RankDump& rank, std::string* detail) {
  if (!rank.has_matrix || !rank.has_comm_stats) return true;
  std::array<EdgeTotals, kNumOps> matrix{};
  for (const auto& e : rank.edges) {
    EdgeTotals& t = matrix[static_cast<std::size_t>(e.op)];
    t.msgs_sent += e.t.msgs_sent;
    t.bytes_sent += e.t.bytes_sent;
    t.msgs_recv += e.t.msgs_recv;
    t.bytes_recv += e.t.bytes_recv;
  }
  bool ok = true;
  for (int op = 0; op < kNumOps; ++op) {
    const EdgeTotals& m = matrix[static_cast<std::size_t>(op)];
    const EdgeTotals& c = rank.comm_stats[static_cast<std::size_t>(op)];
    if (m.msgs_sent == c.msgs_sent && m.bytes_sent == c.bytes_sent &&
        m.msgs_recv == c.msgs_recv && m.bytes_recv == c.bytes_recv)
      continue;
    ok = false;
    if (detail != nullptr)
      append_fmt(*detail,
                 "  rank %d op %s: matrix %llu/%llu sent %llu/%llu recv vs "
                 "CommStats %llu/%llu sent %llu/%llu recv\n",
                 rank.rank, op_name(op),
                 static_cast<unsigned long long>(m.msgs_sent),
                 static_cast<unsigned long long>(m.bytes_sent),
                 static_cast<unsigned long long>(m.msgs_recv),
                 static_cast<unsigned long long>(m.bytes_recv),
                 static_cast<unsigned long long>(c.msgs_sent),
                 static_cast<unsigned long long>(c.bytes_sent),
                 static_cast<unsigned long long>(c.msgs_recv),
                 static_cast<unsigned long long>(c.bytes_recv));
  }
  return ok;
}

std::string format_report(const std::vector<RankDump>& ranks, int top_k,
                          bool* ok) {
  if (ok != nullptr) *ok = true;
  std::string out = "=== comm reconciliation ===\n";
  int with_matrix = 0;
  for (const auto& rank : ranks) {
    if (!rank.has_matrix) {
      append_fmt(out, "rank %d: no comm matrix (run had observability off)\n",
                 rank.rank);
      continue;
    }
    ++with_matrix;
    std::string detail;
    if (reconciles(rank, &detail)) {
      std::uint64_t sent = 0;
      std::uint64_t recv = 0;
      for (const auto& e : rank.edges) {
        sent += e.t.bytes_sent;
        recv += e.t.bytes_recv;
      }
      append_fmt(out, "rank %d: OK (%llu bytes sent / %llu recv, %zu edges)\n",
                 rank.rank, static_cast<unsigned long long>(sent),
                 static_cast<unsigned long long>(recv), rank.edges.size());
    } else {
      if (ok != nullptr) *ok = false;
      append_fmt(out, "rank %d: MISMATCH\n", rank.rank);
      out += detail;
    }
    if (rank.clamped_records > 0)
      append_fmt(out, "rank %d: WARNING %llu records clamped (peer >= %d)\n",
                 rank.rank,
                 static_cast<unsigned long long>(rank.clamped_records),
                 kMaxPeers);
  }
  if (with_matrix == 0) {
    out += "no comm matrices found; re-run with observability enabled "
           "(--metrics-out)\n";
    return out;
  }
  if (ok == nullptr || *ok)
    out += "byte totals reconcile exactly with CommStats\n";

  // Directed hot edges, sender side.
  struct Directed {
    int src, dst, op;
    EdgeTotals t;
  };
  std::vector<Directed> edges;
  for (const auto& rank : ranks)
    for (const auto& e : rank.edges)
      if (e.t.msgs_sent > 0)
        edges.push_back(Directed{rank.rank, e.peer, e.op, e.t});
  std::sort(edges.begin(), edges.end(), [](const Directed& a,
                                           const Directed& b) {
    return a.t.bytes_sent > b.t.bytes_sent;
  });
  out += "\n=== top edges by bytes sent ===\n";
  for (std::size_t i = 0;
       i < edges.size() && i < static_cast<std::size_t>(top_k); ++i) {
    const Directed& e = edges[i];
    append_fmt(out, "#%-2zu r%d -> r%-2d %-8s %10llu bytes %7llu msgs\n",
               i + 1, e.src, e.dst, op_name(e.op),
               static_cast<unsigned long long>(e.t.bytes_sent),
               static_cast<unsigned long long>(e.t.msgs_sent));
  }

  // Slow edges: receiver-side mean latency. The receive clock includes the
  // wait for the sender, so a delayed/straggling parent shows up on its
  // outgoing edges here — this is what names an injected slow edge.
  struct SlowEdge {
    int src, dst, op;
    double avg_ns;
    std::uint64_t msgs;
  };
  std::vector<SlowEdge> slow;
  for (const auto& rank : ranks)
    for (const auto& e : rank.edges)
      if (e.t.msgs_recv > 0)
        slow.push_back(SlowEdge{e.peer, rank.rank, e.op,
                                static_cast<double>(e.t.recv_ns) /
                                    static_cast<double>(e.t.msgs_recv),
                                e.t.msgs_recv});
  std::sort(slow.begin(), slow.end(),
            [](const SlowEdge& a, const SlowEdge& b) {
              return a.avg_ns > b.avg_ns;
            });
  out += "\n=== slow edges by receive latency ===\n";
  for (std::size_t i = 0;
       i < slow.size() && i < static_cast<std::size_t>(top_k); ++i) {
    const SlowEdge& e = slow[i];
    append_fmt(out, "#%-2zu r%d -> r%-2d %-8s avg %9.3f ms over %llu msgs\n",
               i + 1, e.src, e.dst, op_name(e.op), e.avg_ns / 1e6,
               static_cast<unsigned long long>(e.msgs));
  }

  // Traffic shape over collective edges: star routes everything through
  // rank 0; tree collectives produce edges touching neither endpoint 0.
  out += "\n=== traffic shape ===\n";
  const std::size_t p = ranks.size();
  std::size_t coll_edges = 0;
  std::size_t off_hub = 0;
  for (const auto& rank : ranks)
    for (const auto& e : rank.edges) {
      if (e.op == kOpP2p || e.t.msgs_sent == 0) continue;
      ++coll_edges;
      if (rank.rank != 0 && e.peer != 0) ++off_hub;
    }
  if (coll_edges == 0)
    out += "no collective traffic recorded\n";
  else if (p <= 2)
    append_fmt(out, "p=%zu: star and tree topologies coincide\n", p);
  else if (off_hub == 0)
    append_fmt(out,
               "star-shaped: all %zu collective edges touch rank 0 (p=%zu)\n",
               coll_edges, p);
  else
    append_fmt(out,
               "tree-shaped: %zu of %zu collective edges bypass rank 0 "
               "(p=%zu)\n",
               off_hub, coll_edges, p);

  out += "\n=== shm ring stalls ===\n";
  bool any_stall = false;
  for (const auto& rank : ranks)
    for (const auto& r : rank.rings) {
      if (r.t.stalls == 0 && r.t.hwm_bytes == 0) continue;
      any_stall = true;
      append_fmt(out,
                 "r%d -> r%-2d %6llu stalls %10.3f ms stalled, hwm %llu "
                 "bytes\n",
                 rank.rank, r.peer,
                 static_cast<unsigned long long>(r.t.stalls),
                 ms(r.t.stalled_ns),
                 static_cast<unsigned long long>(r.t.hwm_bytes));
    }
  if (!any_stall) out += "no ring pressure recorded (or non-shm transport)\n";

  out += "\n=== nonblocking overlap ===\n";
  bool any_req = false;
  for (const auto& rank : ranks) {
    if (rank.overlap.requests == 0) continue;
    any_req = true;
    append_fmt(out,
               "rank %d: %llu requests (%llu via test, %llu via wait), "
               "in-flight %.3f ms, blocked %.3f ms, overlap %.1f%%\n",
               rank.rank,
               static_cast<unsigned long long>(rank.overlap.requests),
               static_cast<unsigned long long>(rank.overlap.test_completions),
               static_cast<unsigned long long>(rank.overlap.wait_completions),
               ms(rank.overlap.inflight_ns), ms(rank.overlap.blocked_ns),
               100.0 * rank.overlap.overlap_ratio());
  }
  if (!any_req) out += "no nonblocking requests recorded\n";
  return out;
}

}  // namespace raxh::obs::comm
