// minimpi: the message-passing runtime hosting the coarse-grained level of
// the hybrid parallelization. The paper's MPI usage is deliberately minimal —
// per-rank independent work, one barrier after the bootstrap stage, one
// broadcast of the winning tree at the end — so this runtime implements
// exactly that contract: blocking tagged point-to-point, nonblocking
// isend/irecv with wait/test, plus the collectives Barrier / Bcast /
// Allreduce / Gather built on top of it.
//
// Collectives run one of two algorithms (CommOptions::collectives):
//  * kTree (default) — latency-scalable: dissemination barrier, binomial
//    broadcast, binomial gather-and-fold reduces. Critical path O(log p).
//  * kStar — everyone talks to rank 0; O(p) on rank 0. Kept selectable for
//    A/B benching (the pre-scale behaviour).
// Both fold reduction operands in ascending rank order, so every collective
// result is bit-identical across algorithms, backends, and transports — the
// reproducibility contract the chaos suite pins down.
//
// Two backends share the Comm interface:
//  * ProcessComm — ranks are forked OS processes wired by a full mesh of
//    Unix socketpairs (the real coarse-grained deployment), or by per-pair
//    shared-memory rings with the socketpairs retained as liveness channels
//    (Transport::kShm).
//  * ThreadComm  — ranks are threads with in-process channels (deterministic
//    unit testing), or the same shm rings placed in heap memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace raxh::obs::comm {
struct Block;  // comm-plane accumulation block (obs/comm_obs.h)
}  // namespace raxh::obs::comm

namespace raxh::mpi {

using Bytes = std::vector<std::uint8_t>;

// Thrown when a communication op touches a rank that is gone: the process
// backend maps EOF / EPIPE / ECONNRESET on the mesh to this, the thread
// backend throws it when a peer's rank thread has exited and its channel is
// drained. Fault-tolerant drivers catch it and re-grant the dead rank's
// work; everything else treats it as fatal (the harnesses print a clean
// error instead of hanging forever on a dead peer).
class RankFailed : public std::runtime_error {
 public:
  RankFailed(int failed_rank, const std::string& what)
      : std::runtime_error(what), rank(failed_rank) {}
  int rank;
};

// The unwind signal for an *injected* rank death (minimpi/fault.h): thrown
// through the dying rank's stack; the rank harnesses catch it, mark the rank
// dead, and let the remaining ranks observe RankFailed. Not an error type —
// it deliberately does not derive from std::exception so generic handlers
// cannot swallow it.
struct RankDeath {
  int rank;
};

// Exit status of a process-backed rank that died by fault injection; the
// parent in run_process_ranks treats it as a rank failure, not a crash.
inline constexpr int kRankDeathExit = 86;

// Collective algorithm: tree is the scalable default, star the O(p)
// pre-scale baseline kept for A/B comparisons (bench_parallel and the
// collective conformance matrix). raxh always runs tree.
enum class CollectiveAlgo { kStar, kTree };

// Per-pair transport of a rank mesh; raxh always runs kSocketpair. For the
// thread backend, kSocketpair selects its native in-process channel mesh
// (the thread analogue of the socketpair mesh).
enum class Transport { kSocketpair, kShm };

// How to wire a rank mesh; accepted by run_thread_ranks/run_process_ranks.
struct CommOptions {
  CollectiveAlgo collectives = CollectiveAlgo::kTree;
  Transport transport = Transport::kSocketpair;
  // Per-ordered-pair ring capacity (kShm). Bounds buffering, not message
  // size: larger messages stream through the ring in chunks.
  std::size_t shm_ring_bytes = std::size_t{1} << 16;
};

class Packer;
class Unpacker;

class Comm {
 public:
  // Retires this comm's comm-plane block (obs/comm_obs.h) so its traffic
  // stays visible in process-wide snapshots after the comm is gone.
  virtual ~Comm();

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;

  // --- per-rank communication statistics ---
  // A view of this comm's comm-plane block (obs/comm_obs.h), which the
  // send/recv layer of the base class feeds once per message whether or not
  // observability is on — so both backends report identical numbers for
  // identical protocols, and the per-op fold of comm_matrix() equals these
  // by construction. Attribution is to the *outermost* collective in flight
  // (e.g. the broadcast inside an allreduce counts as reduce traffic);
  // traffic outside any collective is p2p.
  struct OpStats {
    std::uint64_t msgs_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t msgs_recv = 0;
    std::uint64_t bytes_recv = 0;
  };
  struct Stats {
    OpStats p2p, barrier, bcast, reduce, gather;
    // Time blocked inside barrier(): the barrier's collective latency
    // sample, booked whether or not observability is on.
    std::uint64_t barrier_wait_ns = 0;
    // Fault-plan sleeps this rank served (FaultyComm `delay` actions). Kept
    // separate — and subtracted from this rank's own latency samples — so
    // chaos runs don't pollute p95/p99 comm latency in --metrics-out.
    std::uint64_t synthetic_delay_ns = 0;
    [[nodiscard]] OpStats total() const;
    [[nodiscard]] std::string to_json() const;  // {"comm":{...}} section
  };
  [[nodiscard]] Stats stats() const;
  // Zeroes this comm's block and wait totals. A reset while a collective is
  // in flight would split that collective's traffic across the reset, so it
  // is a contract violation (asserted).
  void reset_stats();

  // Collective algorithm selection; run_*_ranks applies CommOptions, and
  // decorators copy the inner comm's choice. Switch only between
  // collectives, never inside one.
  void set_collectives(CollectiveAlgo algo) { collectives_ = algo; }
  [[nodiscard]] CollectiveAlgo collectives() const { return collectives_; }

  // Blocking tagged point-to-point. recv blocks until a message with the
  // exact (src, tag) arrives; messages from one src preserve send order.
  // Either may throw RankFailed when the peer is dead (see class comment).
  void send(int dest, int tag, const Bytes& payload);
  Bytes recv(int src, int tag);

  // --- nonblocking point-to-point ---
  // isend completes eagerly into the transport's buffering (channel queue,
  // kernel socket buffer, or shm ring) — it may block only when that
  // buffering is full, exactly like MPI's eager path. irecv is posted
  // lazily: test() polls the transport and performs the receive once the
  // message has started arriving; wait() blocks for it. Ordering contract:
  // requests on one (src, tag) complete in posted order, and an outstanding
  // irecv must be completed before a blocking recv on the same src (the
  // per-pair FIFO would otherwise hand the irecv's message to the recv).
  class Request {
   public:
    Request() = default;
    [[nodiscard]] bool done() const { return done_; }
    [[nodiscard]] int peer() const { return peer_; }
    [[nodiscard]] const Bytes& payload() const { return payload_; }

   private:
    friend class Comm;
    bool done_ = true;
    int peer_ = -1;
    int tag_ = 0;
    // Overlap accounting: post time (0 when observability was off at post),
    // cleared once the completion is booked.
    std::uint64_t posted_ns_ = 0;
    Bytes payload_;
  };
  Request isend(int dest, int tag, const Bytes& payload);
  Request irecv(int src, int tag);
  // True once the request is complete; performs the pending receive when
  // the transport has the message. Throws RankFailed like recv.
  bool test(Request& req);
  // Blocks until complete; returns the received payload ({} for sends).
  Bytes wait(Request& req);

  // Cheap idempotent poll: a message (or the peer's death) is observable on
  // src's channel right now. Decorators forward it uncounted — probes are
  // timing-dependent, and counting them would break fault-plan replay.
  [[nodiscard]] bool probe(int src) { return do_probe(src); }

  // --- transport access for decorators (minimpi/fault.h) ---
  // Bypass the stats-counting layer and talk straight to the backend; only
  // fault-injection wrappers should need these.
  void raw_send(int dest, int tag, const Bytes& payload) {
    do_send(dest, tag, payload);
  }
  Bytes raw_recv(int src, int tag) { return do_recv(src, tag); }
  // Deliver a deliberately torn message: the receiver must observe the same
  // RankFailed it would see if the sender crashed mid-write. The default
  // (for backends without torn-write support) sends nothing, which yields the
  // same observable outcome once the sender dies.
  virtual void raw_send_torn(int dest, int tag, const Bytes& payload,
                             std::size_t keep_bytes) {
    (void)dest;
    (void)tag;
    (void)payload;
    (void)keep_bytes;
  }

  // Progress hook for fault injection: analysis loops call this once per
  // completed work unit so seeded fault plans can strike between collectives
  // (mid-bootstrap, mid-search). A plain Comm ignores it.
  virtual void fault_tick() {}

  // --- comm-plane observability (obs/comm_obs.h) ---
  // The per-(peer, op) edge matrix this comm accumulates into; nullptr until
  // the first counted send or recv. Message and byte counts are always on;
  // send/recv times only while obs::enabled(). stats() is its per-op fold.
  [[nodiscard]] const obs::comm::Block* comm_matrix() const { return block_; }
  // Transport hooks (shm_ring.h's RingChannel): one completed full-ring
  // stall episode toward `peer`, and a post-send occupancy sample.
  void note_ring_stall(int peer, std::uint64_t ns);
  void note_ring_depth(int peer, std::uint64_t bytes);

  // --- collectives (implemented over send/recv; every rank must call) ---
  void barrier();
  void bcast(Bytes& data, int root);
  void bcast_string(std::string& data, int root);

  // Max over all ranks, plus the lowest rank attaining it (MPI_MAXLOC).
  struct MaxLoc {
    double value;
    int rank;
  };
  MaxLoc allreduce_maxloc(double value);
  double allreduce_sum(double value);
  double allreduce_max(double value);
  long allreduce_sum_long(long value);

  // Root receives every rank's vector (in rank order); others get {}.
  std::vector<std::vector<double>> gather_doubles(
      const std::vector<double>& mine, int root);
  std::vector<std::string> gather_strings(const std::string& mine, int root);

 protected:
  // Backend transport, wrapped by the counting send()/recv() above.
  virtual void do_send(int dest, int tag, const Bytes& payload) = 0;
  virtual Bytes do_recv(int src, int tag) = 0;
  // Nonblocking message-availability poll (see probe()). The conservative
  // default makes test() degrade to wait() on backends without one.
  virtual bool do_probe(int src) {
    (void)src;
    return true;
  }

  // Fault decorators report their injected sleeps (see Stats above).
  void note_synthetic_delay_ns(std::uint64_t ns) { synthetic_delay_ns_ += ns; }

  static constexpr int kTagBarrier = 1000000;
  static constexpr int kTagBcast = 1000001;
  static constexpr int kTagReduce = 1000002;
  static constexpr int kTagGather = 1000003;

 private:
  // One collective call's single measurement (comm.cpp): attribution by op
  // index (outermost wins), one pair of clock samples feeding the flight
  // kCollBegin/kCollEnd pair, the span, the collective-latency histogram
  // and, for barrier, barrier_wait_ns. Every collective entry point opens
  // exactly one.
  class CollectiveScope;

  // This comm's block, acquired on the first counted send or recv.
  obs::comm::Block* block();

  // Routing building blocks (comm.cpp). gather_blobs moves every rank's blob
  // to root (binomial tree or star) and returns them in rank order on root
  // ({} elsewhere) — reduces fold over that order, which is what keeps tree
  // results bit-identical to star's.
  void barrier_star();
  void barrier_dissemination();
  void bcast_binomial(Bytes& data, int root, int tag);
  std::vector<Bytes> gather_blobs(const Bytes& mine, int root, int tag);
  std::vector<Bytes> tree_gather(const Bytes& mine, int root, int tag);
  std::vector<Bytes> star_gather(const Bytes& mine, int root, int tag);
  // The bodies the allreduce and gather flavours share (comm.cpp).
  template <typename T, typename Fold>
  Bytes allreduce_of(T value, const Fold& fold);
  template <typename T>
  std::vector<T> gather_of(const T& mine, int root,
                           void (Packer::*put)(const T&),
                           T (Unpacker::*get)());
  // Performs a pending irecv's receive and books its completion.
  void complete(Request& req, bool by_test);

  CollectiveAlgo collectives_ = CollectiveAlgo::kTree;
  obs::comm::Block* block_ = nullptr;  // retired by ~Comm
  // obs::comm op slot of the outermost collective in flight (p2p outside
  // any), the number of collective scopes open (reset_stats() rejects a
  // reset inside one), and the count of outermost collectives, so hops of
  // one call share a kCollEdge instance id.
  int op_ = 0;
  int open_collectives_ = 0;
  std::uint32_t coll_seq_ = 0;
  std::uint64_t barrier_wait_ns_ = 0;
  std::uint64_t synthetic_delay_ns_ = 0;
};

// --- serialization helpers for payloads ---

class Packer {
 public:
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    data_.insert(data_.end(), p, p + sizeof(T));
  }
  void put_string(const std::string& s);
  void put_doubles(const std::vector<double>& v);
  void put_bytes(const Bytes& b);

  [[nodiscard]] const Bytes& bytes() const { return data_; }
  Bytes take() { return std::move(data_); }

 private:
  Bytes data_;
};

class Unpacker {
 public:
  explicit Unpacker(const Bytes& data) : data_(&data) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    read(reinterpret_cast<std::uint8_t*>(&value), sizeof(T));
    return value;
  }
  std::string get_string();
  std::vector<double> get_doubles();
  Bytes get_bytes();

  [[nodiscard]] bool exhausted() const { return offset_ == data_->size(); }

 private:
  void read(std::uint8_t* out, std::size_t n);

  const Bytes* data_;
  std::size_t offset_ = 0;
};

// Run `fn(comm)` on `nranks` thread-backed ranks; returns when all finish.
// A rank that finishes (or dies via RankDeath) is marked dead so late recvs
// from it raise RankFailed instead of hanging — mirroring the EOF a closed
// socket gives the process backend. Other exceptions escaping a rank abort
// the program (as an MPI error would), except RankFailed from rank 0, which
// propagates to the caller after the remaining ranks are joined.
void run_thread_ranks(int nranks, const std::function<void(Comm&)>& fn,
                      const CommOptions& options);
void run_thread_ranks(int nranks, const std::function<void(Comm&)>& fn);

// Run `fn(comm)` on `nranks` process-backed ranks. The calling process
// becomes rank 0 (its fn return is the caller's); ranks 1.. are forked
// children that _exit after fn. Call before creating any threads. A child
// that dies via RankDeath exits with kRankDeathExit and is tolerated; an
// unhandled RankFailed on rank 0 kills the remaining children and
// propagates.
void run_process_ranks(int nranks, const std::function<void(Comm&)>& fn,
                       const CommOptions& options);
void run_process_ranks(int nranks, const std::function<void(Comm&)>& fn);

}  // namespace raxh::mpi
