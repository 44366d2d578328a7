// Communication observability plane: per-rank (peer, op) edge matrices,
// shm-ring backpressure gauges, and nonblocking-request overlap accounting.
//
// Each minimpi Comm owns one block and feeds it from its counted
// send()/recv() layer, once per message, whether or not observability is
// on. Comm::Stats is a per-op fold of that block, so the matrix
// "reconciles exactly" with CommStats by construction; raxh_comm's offline
// check still guards the two sections of a --metrics-out file against each
// other. Accumulation follows the thread-tally idiom of telemetry.h: each
// block is padded relaxed atomics written only by the communicating thread;
// snapshots read them from any thread.
//
// Layering: this header is part of raxh_obs, which minimpi links — so it
// must not include minimpi headers. The (peer, op) convention is defined
// here and minimpi translates into it (op indices match the declaration
// order of Comm::Stats: p2p, barrier, bcast, reduce, gather).
//
// Message and byte counts are always on. Everything timed — send/recv ns,
// ring gauges, overlap — is gated on obs::enabled() by the callers: with
// observability off the comm plane costs minimpi one relaxed load + branch
// per send/recv on top of the counts (bench_obs_overhead's comm mode
// enforces the <2% budget).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace raxh::obs::comm {

// Peers at or above the clamp accumulate into the last slot so byte totals
// still reconcile at any rank count; Snapshot::clamped_records counts how
// many records were clamped (0 in every supported deployment — the hybrid
// paper tops out at far fewer ranks).
inline constexpr int kMaxPeers = 64;

// Op indices, matching Comm::Stats declaration order.
inline constexpr int kOpP2p = 0;
inline constexpr int kOpBarrier = 1;
inline constexpr int kOpBcast = 2;
inline constexpr int kOpReduce = 3;
inline constexpr int kOpGather = 4;
inline constexpr int kNumOps = 5;
[[nodiscard]] const char* op_name(int op);   // "p2p", "barrier", ...
[[nodiscard]] int op_index(const std::string& name);  // -1 if unknown

// One rank's accumulation block. Opaque: allocated by acquire(), written
// through the record_* hooks, read through totals()/snapshot().
struct Block;

// Allocate + register a block for `rank` (minimpi calls this on the first
// counted send or recv of a Comm). retire() folds the block's content into
// a process-wide retired aggregate and frees it (null-safe) — a Comm's
// traffic stays visible in snapshot() after the Comm is destroyed.
[[nodiscard]] Block* acquire(int rank);
void retire(Block* block);
// Zero one block (null-safe): Comm::reset_stats().
void clear(Block* block);

// --- hot-path hooks (relaxed owner-thread writes) ---
// One message of `bytes` on the (peer, op) edge. `ns`, the time spent in
// the op, is booked only when `timed` — the caller sampled obs::enabled()
// once for the op — together with the process-wide byte counter.
void record_send(Block* block, int peer, int op, std::uint64_t bytes,
                 bool timed, std::uint64_t ns);
void record_recv(Block* block, int peer, int op, std::uint64_t bytes,
                 bool timed, std::uint64_t ns);
// One completed full-ring stall episode on the send path to `peer`.
void record_ring_stall(Block* block, int peer, std::uint64_t ns);
// Post-send occupancy sample of the ring to `peer`; keeps the high-water mark.
void record_ring_depth(Block* block, int peer, std::uint64_t bytes);
// One completed nonblocking request: total posted→completed time and the
// slice of it the caller spent blocked inside test()/wait()'s receive.
void record_request(Block* block, bool completed_by_test,
                    std::uint64_t inflight_ns, std::uint64_t blocked_ns);

// Process-wide "a sender is stalled on a full ring right now" gauge; bracket
// calls come from the ring stall scope. Mirrored into the bound JobObs (if
// any) so raxh_top can show per-job stall state.
void stall_enter();
void stall_exit();
[[nodiscard]] int stalled_now();

// --- read side ---

struct EdgeTotals {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t recv_ns = 0;
};
struct RingTotals {
  std::uint64_t stalls = 0;
  std::uint64_t stalled_ns = 0;
  std::uint64_t hwm_bytes = 0;
};
struct OverlapTotals {
  std::uint64_t requests = 0;
  std::uint64_t test_completions = 0;
  std::uint64_t wait_completions = 0;
  std::uint64_t inflight_ns = 0;
  std::uint64_t blocked_ns = 0;
  // Fraction of in-flight time the caller was NOT blocked waiting; the
  // overlap the nonblocking API actually bought. 0 when nothing completed.
  [[nodiscard]] double overlap_ratio() const;
};

// Per-op totals of one live block (Comm::stats() is built from these).
// Null block → zeros.
struct BlockTotals {
  std::array<EdgeTotals, kNumOps> per_op;
  OverlapTotals overlap;
};
[[nodiscard]] BlockTotals totals(const Block* block);

struct EdgeSample {
  int rank = -1;
  int peer = -1;
  int op = 0;
  EdgeTotals t;
};
struct RingSample {
  int rank = -1;
  int peer = -1;
  RingTotals t;
};
struct OverlapSample {
  int rank = -1;
  OverlapTotals t;
};

// Merged view of every live block plus the retired aggregate, nonzero
// entries only, sorted by (rank, peer, op).
struct Snapshot {
  std::vector<EdgeSample> edges;
  std::vector<RingSample> rings;
  std::vector<OverlapSample> overlap;
  std::uint64_t clamped_records = 0;
  int stalled_now = 0;
};
[[nodiscard]] Snapshot snapshot();
[[nodiscard]] Snapshot snapshot_for_rank(int rank);

// This rank's matrix as a pre-rendered metrics section
// ("comm_matrix":{...}), appended after Comm::Stats::to_json() in the
// --metrics-out fragment. Emitted even when empty so raxh_comm can tell
// "comm plane on, no traffic" from "comm plane off".
[[nodiscard]] std::string to_json_section(int rank);

// Zero every live block and drop the retired aggregate (tests; forked
// children via the obs atfork hook — a child must not re-export the
// parent's pre-fork traffic).
void reset();
// Fork-safe variant for the obs atfork child hook: re-initializes the
// registry mutex (which may have been held mid-fork) before clearing.
void reset_for_fork();

// ---------------------------------------------------------------------------
// Offline analysis (tools/raxh_comm)
// ---------------------------------------------------------------------------

// One rank's decoded slice of a merged --metrics-out document: the CommStats
// "comm" section and (when the run had observability on) the "comm_matrix"
// section emitted by to_json_section().
struct RankDump {
  int rank = -1;
  bool has_comm_stats = false;
  bool has_matrix = false;
  // From "comm": per-op msgs/bytes (ns fields stay 0 — CommStats has none).
  std::array<EdgeTotals, kNumOps> comm_stats;
  std::vector<EdgeSample> edges;
  std::vector<RingSample> rings;
  OverlapTotals overlap;
  std::uint64_t clamped_records = 0;
};

// Parse the JSON array --metrics-out writes (obs::merge_metrics_fragments
// output). Tolerant of ranks without comm sections; hard errors (not an
// array, malformed numbers) set *error and return {}.
[[nodiscard]] std::vector<RankDump> parse_metrics_report(
    const std::string& json, std::string* error);

// Exact per-op reconciliation of one rank's matrix totals against its
// CommStats; mismatch details (if any) are appended to *detail.
[[nodiscard]] bool reconciles(const RankDump& rank, std::string* detail);

// The raxh_comm report: reconciliation table, top-k hot edges, tree-vs-star
// traffic-shape classification, ring stall table, and overlap summary.
// Sets *ok=false when any rank fails reconciliation.
[[nodiscard]] std::string format_report(const std::vector<RankDump>& ranks,
                                        int top_k, bool* ok);

}  // namespace raxh::obs::comm
