// Flight recorder ("black box"): an always-on, per-thread lock-free ring of
// fixed-size binary event records covering the hybrid stack — phase begin/end,
// minimpi send/recv/collective, crew job dispatch/join, checkpoint writes,
// fault-plan triggers, rank-death detection, and work re-grants.
//
// Design constraints, in order:
//  * Always on. Unlike the obs:: tracing layer (opt-in via --trace-out), the
//    recorder runs in production so a crash is explainable after the fact.
//    The steady-state cost is one relaxed load + four relaxed stores + a
//    clock sample per event; bench_obs_overhead enforces the <2% budget.
//  * Async-signal-safe dump. The SIGSEGV/SIGBUS/SIGABRT handlers and the
//    std::terminate hook write DIR/rank<r>.blackbox using only open/write/
//    mkdir — no malloc, no stdio, paths prebuilt into fixed buffers. The
//    file carries a trailing FNV-1a checksum + end marker mirroring
//    checkpoint v2, so torn dumps are rejected, never half-parsed.
//  * Lock-free recording. Each thread owns a preallocated ring and a bump
//    cursor; event words are relaxed atomics so a dump (or TSan) can read a
//    live ring without writer coordination. A slot being overwritten during
//    a dump can decode torn — the reader skips undecodable slots and counts
//    them instead of failing.
//
// The binary format is native-endian: black boxes are decoded on the machine
// (class) that wrote them, like checkpoints.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace raxh::obs::flight {

// Fixed per-thread ring capacity in events (32 B each → 128 KiB per thread).
inline constexpr std::size_t kRingCapacity = 1 << 12;

enum class Kind : std::uint32_t {
  kPhaseBegin = 1,  // a = name id
  kPhaseEnd,        // a = name id, b = duration ns (same sample run_phases gets)
  kSendBegin,       // a = peer_tag(dest, tag), b = payload bytes
  kSendEnd,         // a = peer_tag(dest, tag), b = payload bytes
  kRecvBegin,       // a = peer_tag(src, tag)
  kRecvEnd,         // a = peer_tag(src, tag), b = payload bytes
  kCollBegin,       // a = name id ("mpi.barrier", "ft.barrier", ...)
  kCollEnd,         // a = name id, b = duration ns
  kJobBegin,        // crew job dispatched (every 64th job is sampled);
                    // a = crew size, b = job index
  kJobEnd,          // a = crew size, b = duration ns (dispatch + the
                    // master's own job execution — the master's wait for
                    // the crew is booked separately as kJobWait, so the
                    // duration means the same thing on the 1-thread and
                    // crew paths)
  kJobWait,         // a = crew size, b = ns the master waited on the crew
                    // barrier after finishing its own share (imbalance)
  kCkptWrite,       // a = name id of path, b = serialized bytes
  kFault,           // a = FaultAction::Kind, b = 1-based op index
  kRankDead,        // a = dead rank, b = name id of detection site
  kRegrant,         // a = logical share, b = executing rank
  kNote,            // a = name id
  kReqPost,         // nonblocking request posted; a = peer_tag(peer, tag),
                    // b = 1 for irecv, 0 for isend
  kReqTestOk,       // request completed inside test(); a = peer_tag,
                    // b = posted-to-complete (in-flight) ns
  kReqWaitDone,     // request completed inside wait(); a = peer_tag,
                    // b = ns blocked in the wait
  kCollEdge,        // one hop of a collective (see coll_edge_* helpers);
                    // a = (per-comm collective seq << 32) | name id,
                    // b = packed peer / direction / hop duration ns
  kMaxKind = kCollEdge
};

// Peer + tag packed into the `a` word of send/recv events.
inline std::uint64_t peer_tag(int peer, int tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer)) << 32) |
         static_cast<std::uint32_t>(tag);
}
inline int peer_of(std::uint64_t a) { return static_cast<int>(a >> 32); }
inline int tag_of(std::uint64_t a) {
  return static_cast<int>(static_cast<std::uint32_t>(a));
}

// kCollEdge packing. `a` identifies the collective instance (a per-comm
// sequence number, so one rank's hops of the same collective call group
// together) and its interned name; `b` carries the peer, the direction
// (recv = the edge peer→me, send = me→peer), and the hop duration, capped
// at 2^47-1 ns (~1.6 days — effectively never).
inline std::uint64_t coll_edge_a(std::uint32_t seq, std::uint32_t name) {
  return (static_cast<std::uint64_t>(seq) << 32) | name;
}
inline std::uint32_t coll_edge_seq(std::uint64_t a) {
  return static_cast<std::uint32_t>(a >> 32);
}
inline std::uint32_t coll_edge_name(std::uint64_t a) {
  return static_cast<std::uint32_t>(a);
}
inline constexpr std::uint64_t kCollEdgeNsMask = (std::uint64_t{1} << 47) - 1;
inline std::uint64_t coll_edge_b(int peer, bool recv_side, std::uint64_t ns) {
  return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(peer)) << 48) |
         (recv_side ? (std::uint64_t{1} << 47) : 0) |
         (ns < kCollEdgeNsMask ? ns : kCollEdgeNsMask);
}
inline int coll_edge_peer(std::uint64_t b) {
  return static_cast<int>(static_cast<std::uint16_t>(b >> 48));
}
inline bool coll_edge_is_recv(std::uint64_t b) {
  return ((b >> 47) & 1) != 0;
}
inline std::uint64_t coll_edge_ns(std::uint64_t b) {
  return b & kCollEdgeNsMask;
}

// Recorder switch, separate from obs::enabled() (which stays opt-in).
// Default: on.
namespace detail {
extern std::atomic<bool> g_enabled;
void do_record(Kind k, std::uint64_t a, std::uint64_t b);
}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// Stamp the calling thread's events with a coarse-grained rank (the minimpi
// harnesses call this at rank entry for both backends). Also remembered
// process-wide as the fallback rank for crash-dump file naming.
void set_thread_rank(int rank);

// Intern a short name into the process-wide table written into every dump;
// returns a stable nonzero id, or 0 when the table is full ("?" on decode).
// Cheap after first call for a given string; hot call sites cache the id in
// a function-local static.
std::uint32_t name_id(const char* name);

// Record one event into the calling thread's ring. No-op when disabled.
inline void record(Kind k, std::uint64_t a = 0, std::uint64_t b = 0) {
  if (!enabled()) return;
  detail::do_record(k, a, b);
}

// Where dumps go ("" disables dumping; the directory is created lazily at
// dump time with a plain mkdir, so it must be at most one level deep).
void set_dump_dir(const std::string& dir);
// DIR/rank<r>.blackbox, or "" when no dump dir is configured.
[[nodiscard]] std::string dump_path_for_rank(int rank);

// Write every ring to DIR/rank<rank>.blackbox. rank < 0 picks the calling
// thread's rank, else the last rank any thread registered, else 0. `fatal`
// marks the box as a death record (crash/injected death) for the analyzer.
// Returns false when no dir is configured or the write failed. Safe from
// signal handlers.
bool dump_now(int rank = -1, const char* reason = nullptr, bool fatal = false);

// Install SIGSEGV/SIGBUS/SIGABRT handlers and a std::terminate hook that
// dump once (fatal) and then re-raise the default action.
void install_crash_handlers();

// Total events recorded process-wide since the last reset() (ring-wrap
// overwrites still count; used by bench_obs_overhead).
[[nodiscard]] std::uint64_t events_recorded();

// Clear all rings (tests; sequential chaos runs call this between plans so a
// dump only shows the current run). Interned names survive — ids are stable.
void reset();

// ---------------------------------------------------------------------------
// Decoded black boxes (normal, non-signal context)
// ---------------------------------------------------------------------------

struct DecodedEvent {
  std::uint64_t ts_ns = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  Kind kind{};
  int rank = -1;  // recording thread's rank; -1 = unattributed
};

struct Blackbox {
  int rank = -1;  // the rank this box was dumped for (file-name authority)
  std::uint32_t pid = 0;
  bool fatal = false;
  std::string reason;
  std::vector<std::string> names;  // id i+1 → names[i]
  struct RingDump {
    std::uint32_t tid = 0;    // ring registration order within the process
    std::uint64_t head = 0;   // total events ever recorded into this ring
    std::vector<DecodedEvent> events;  // oldest first
  };
  std::vector<RingDump> rings;
  std::uint64_t dropped = 0;  // events lost to ring wrap (sum over rings)
  std::uint64_t torn = 0;     // slots skipped as undecodable (live-dump races)

  [[nodiscard]] const std::string& name(std::uint64_t id) const;
  [[nodiscard]] std::vector<DecodedEvent> all_events() const;
};

// Decode one black box file. Throws std::runtime_error with a diagnostic on
// any malformed input — truncation, bit flips, trailing garbage — mirroring
// checkpoint v2's rejection semantics.
Blackbox read_blackbox(const std::string& path);

}  // namespace raxh::obs::flight
