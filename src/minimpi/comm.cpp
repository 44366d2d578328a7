#include "minimpi/comm.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "obs/comm_obs.h"
#include "obs/flight.h"
#include "obs/hist.h"
#include "obs/obs.h"
#include "util/check.h"

namespace raxh::mpi {

namespace {

namespace flight = obs::flight;
using obs::comm::kOpBarrier;
using obs::comm::kOpBcast;
using obs::comm::kOpGather;
using obs::comm::kOpP2p;
using obs::comm::kOpReduce;

// Span and flight-recorder names of the collectives, by obs::comm op index.
// p2p traffic opens no collective scope.
constexpr const char* kCollectiveName[obs::comm::kNumOps] = {
    nullptr, "mpi.barrier", "mpi.bcast", "mpi.allreduce", "mpi.gather"};

std::uint32_t flight_name(int op) {
  static const auto ids = [] {
    std::array<std::uint32_t, obs::comm::kNumOps> out{};
    for (int i = kOpBarrier; i < obs::comm::kNumOps; ++i)
      out[static_cast<std::size_t>(i)] = flight::name_id(kCollectiveName[i]);
    return out;
  }();
  return ids[static_cast<std::size_t>(op)];
}

}  // namespace

// One collective call, measured once: the outermost scope's single pair of
// clock samples feeds the flight kCollBegin/kCollEnd pair and the `mpi.<op>`
// span (raw duration), and the collective-latency histogram plus, for
// barrier, barrier_wait_ns (duration minus the fault-plan sleeps this thread
// served: those are chaos-test artifacts, not comm latency). It also routes
// every send/recv inside it to its op and starts a new collective instance
// for kCollEdge hop events. A nested scope (the bcast inside allreduce_of)
// books nothing: one call, one record.
class Comm::CollectiveScope {
 public:
  CollectiveScope(Comm& comm, int op)
      : comm_(comm),
        op_(op),
        outermost_(comm.op_ == kOpP2p),
        obs_(outermost_ && obs::enabled()),
        flight_(outermost_ && flight::enabled()) {
    if (outermost_) {
      comm_.op_ = op;
      ++comm_.coll_seq_;
    }
    ++comm_.open_collectives_;
    if (timed()) {
      start_ = obs::now_ns();
      synth0_ = obs::synthetic_delay_ns_this_thread();
    }
    if (flight_) flight::record(flight::Kind::kCollBegin, flight_name(op_));
  }
  ~CollectiveScope() {
    --comm_.open_collectives_;
    if (outermost_) comm_.op_ = kOpP2p;
    if (!timed()) return;
    const std::uint64_t dur = obs::now_ns() - start_;
    if (flight_) flight::record(flight::Kind::kCollEnd, flight_name(op_), dur);
    const std::uint64_t synth =
        obs::synthetic_delay_ns_this_thread() - synth0_;
    const std::uint64_t latency = dur - std::min(dur, synth);
    if (obs_) {
      obs::record_span(kCollectiveName[op_], start_, dur);
      obs::detail::hist_add(obs::Hist::kCollectiveNs, latency);
    }
    if (op_ == kOpBarrier) comm_.barrier_wait_ns_ += latency;
  }
  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;

 private:
  // Barrier wait is booked with observability off too.
  [[nodiscard]] bool timed() const {
    return obs_ || flight_ || (outermost_ && op_ == kOpBarrier);
  }

  Comm& comm_;
  int op_;
  bool outermost_;
  bool obs_;
  bool flight_;
  std::uint64_t start_ = 0;
  std::uint64_t synth0_ = 0;
};

Comm::~Comm() { obs::comm::retire(block_); }

obs::comm::Block* Comm::block() {
  if (block_ == nullptr) block_ = obs::comm::acquire(rank());
  return block_;
}

void Comm::note_ring_stall(int peer, std::uint64_t ns) {
  obs::comm::record_ring_stall(block(), peer, ns);
}

void Comm::note_ring_depth(int peer, std::uint64_t bytes) {
  obs::comm::record_ring_depth(block(), peer, bytes);
}

void Comm::send(int dest, int tag, const Bytes& payload) {
  const bool timed = obs::enabled();
  const bool fl = flight::enabled();
  // Hop events are only meaningful inside a collective: one kCollEdge per
  // send/recv lets the postmortem attribute a slow collective instance to a
  // specific parent→child tree edge.
  const bool edge = fl && op_ != kOpP2p;
  const std::uint64_t t0 = (timed || edge) ? obs::now_ns() : 0;
  if (fl)
    flight::record(flight::Kind::kSendBegin, flight::peer_tag(dest, tag),
                   payload.size());
  do_send(dest, tag, payload);
  if (fl)
    flight::record(flight::Kind::kSendEnd, flight::peer_tag(dest, tag),
                   payload.size());
  const std::uint64_t dur = (timed || edge) ? obs::now_ns() - t0 : 0;
  obs::comm::record_send(block(), dest, op_, payload.size(), timed, dur);
  if (edge)
    flight::record(flight::Kind::kCollEdge,
                   flight::coll_edge_a(coll_seq_, flight_name(op_)),
                   flight::coll_edge_b(dest, /*recv_side=*/false, dur));
}

Bytes Comm::recv(int src, int tag) {
  const bool timed = obs::enabled();
  const bool fl = flight::enabled();
  const bool edge = fl && op_ != kOpP2p;
  // recv duration includes the wait for the sender, so a slow upstream edge
  // (e.g. a fault-plan delay) shows up as receiver-side latency — exactly
  // what raxh_comm's slow-edge table keys on.
  const std::uint64_t t0 = (timed || edge) ? obs::now_ns() : 0;
  if (fl)
    flight::record(flight::Kind::kRecvBegin, flight::peer_tag(src, tag));
  Bytes payload = do_recv(src, tag);
  if (fl)
    flight::record(flight::Kind::kRecvEnd, flight::peer_tag(src, tag),
                   payload.size());
  const std::uint64_t dur = (timed || edge) ? obs::now_ns() - t0 : 0;
  obs::comm::record_recv(block(), src, op_, payload.size(), timed, dur);
  if (edge)
    flight::record(flight::Kind::kCollEdge,
                   flight::coll_edge_a(coll_seq_, flight_name(op_)),
                   flight::coll_edge_b(src, /*recv_side=*/true, dur));
  return payload;
}

Comm::Stats Comm::stats() const {
  const obs::comm::BlockTotals t = obs::comm::totals(block_);
  const auto op = [&t](int index) {
    const obs::comm::EdgeTotals& e = t.per_op[static_cast<std::size_t>(index)];
    return OpStats{e.msgs_sent, e.bytes_sent, e.msgs_recv, e.bytes_recv};
  };
  Stats s;
  s.p2p = op(kOpP2p);
  s.barrier = op(kOpBarrier);
  s.bcast = op(kOpBcast);
  s.reduce = op(kOpReduce);
  s.gather = op(kOpGather);
  s.barrier_wait_ns = barrier_wait_ns_;
  s.synthetic_delay_ns = synthetic_delay_ns_;
  return s;
}

void Comm::reset_stats() {
  RAXH_EXPECTS(open_collectives_ == 0);
  obs::comm::clear(block_);
  barrier_wait_ns_ = 0;
  synthetic_delay_ns_ = 0;
}

Comm::OpStats Comm::Stats::total() const {
  OpStats sum;
  for (const OpStats op : {p2p, barrier, bcast, reduce, gather}) {
    sum.msgs_sent += op.msgs_sent;
    sum.bytes_sent += op.bytes_sent;
    sum.msgs_recv += op.msgs_recv;
    sum.bytes_recv += op.bytes_recv;
  }
  return sum;
}

std::string Comm::Stats::to_json() const {
  const std::pair<const char*, OpStats> ops[] = {
      {"p2p", p2p},       {"barrier", barrier}, {"bcast", bcast},
      {"reduce", reduce}, {"gather", gather}};
  std::string out = "\"comm\":{";
  char buf[160];
  for (const auto& [name, op] : ops) {
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"msgs_sent\":%llu,\"bytes_sent\":%llu,"
                  "\"msgs_recv\":%llu,\"bytes_recv\":%llu},",
                  name, static_cast<unsigned long long>(op.msgs_sent),
                  static_cast<unsigned long long>(op.bytes_sent),
                  static_cast<unsigned long long>(op.msgs_recv),
                  static_cast<unsigned long long>(op.bytes_recv));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "\"barrier_wait_ns\":%llu,\"synthetic_delay_ns\":%llu}",
                static_cast<unsigned long long>(barrier_wait_ns),
                static_cast<unsigned long long>(synthetic_delay_ns));
  out += buf;
  return out;
}

void Comm::barrier() {
  const CollectiveScope scope(*this, kOpBarrier);
  if (collectives_ == CollectiveAlgo::kTree)
    barrier_dissemination();
  else
    barrier_star();
}

// Central coordinator: everyone checks in with rank 0, rank 0 releases.
// O(p) serial work on rank 0 — the pre-scale baseline.
void Comm::barrier_star() {
  const Bytes empty;
  if (rank() == 0) {
    for (int r = 1; r < size(); ++r) recv(r, kTagBarrier);
    for (int r = 1; r < size(); ++r) send(r, kTagBarrier, empty);
  } else {
    send(0, kTagBarrier, empty);
    recv(0, kTagBarrier);
  }
}

// Dissemination barrier: ceil(log2 p) rounds; in round k every rank sends to
// (r + 2^k) mod p and receives from (r - 2^k) mod p. No rank leaves before
// every rank has entered, and no rank is a serial bottleneck. The round
// distances are distinct powers of two below p, so each ordered pair carries
// at most one message per barrier and per-pair FIFO keeps consecutive
// barriers from interleaving.
void Comm::barrier_dissemination() {
  const int n = size();
  const Bytes empty;
  for (int dist = 1; dist < n; dist <<= 1) {
    const int to = (rank() + dist) % n;
    const int from = (rank() - dist + n) % n;
    send(to, kTagBarrier, empty);
    recv(from, kTagBarrier);
  }
}

void Comm::bcast(Bytes& data, int root) {
  const CollectiveScope scope(*this, kOpBcast);
  RAXH_EXPECTS(root >= 0 && root < size());
  if (collectives_ == CollectiveAlgo::kTree) {
    bcast_binomial(data, root, kTagBcast);
    return;
  }
  if (rank() == root) {
    for (int r = 0; r < size(); ++r)
      if (r != root) send(r, kTagBcast, data);
  } else {
    data = recv(root, kTagBcast);
  }
}

// Binomial broadcast on ranks relative to root: a rank receives from the
// parent that owns its lowest set relative-rank bit, then relays down every
// lower bit. Root's serial sends drop from p-1 to ceil(log2 p) and the
// critical path is ceil(log2 p) hops. Payload bytes are forwarded verbatim,
// so the delivered data is bit-identical to the star path's.
void Comm::bcast_binomial(Bytes& data, int root, int tag) {
  const int n = size();
  const int rr = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((rr & mask) != 0) {
      const int src = ((rr & ~mask) + root) % n;
      data = recv(src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rr + mask < n) {
      const int dst = ((rr + mask) % n + root) % n;
      send(dst, tag, data);
    }
    mask >>= 1;
  }
}

std::vector<Bytes> Comm::gather_blobs(const Bytes& mine, int root, int tag) {
  return collectives_ == CollectiveAlgo::kTree ? tree_gather(mine, root, tag)
                                               : star_gather(mine, root, tag);
}

// Star gather: every non-root rank sends its blob straight to root; root
// receives in ascending rank order. Returns blobs indexed by rank on root,
// {} elsewhere.
std::vector<Bytes> Comm::star_gather(const Bytes& mine, int root, int tag) {
  std::vector<Bytes> out;
  if (rank() == root) {
    out.resize(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(root)] = mine;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = recv(r, tag);
    }
  } else {
    send(root, tag, mine);
  }
  return out;
}

// Binomial gather: the mirror of bcast_binomial. Each rank accumulates
// (rank, blob) entries from the subtree hanging off its set relative-rank
// bits, then forwards the batch to its parent. Root ends up holding every
// rank's original blob and indexes them by absolute rank — the rank-ordered
// view allreduce_of folds over, which is what keeps tree reductions
// bit-identical to star ones (same operands, same fold order; the tree only
// changes the routing).
std::vector<Bytes> Comm::tree_gather(const Bytes& mine, int root, int tag) {
  const int n = size();
  const int rr = (rank() - root + n) % n;
  std::vector<std::pair<int, Bytes>> entries;
  entries.emplace_back(rank(), mine);
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((rr & mask) == 0) {
      const int src_rr = rr | mask;
      if (src_rr >= n) continue;
      const int src = (src_rr + root) % n;
      const Bytes packed = recv(src, tag);
      Unpacker u(packed);
      const auto count = u.get<std::uint32_t>();
      for (std::uint32_t i = 0; i < count; ++i) {
        const int r = u.get<std::int32_t>();
        entries.emplace_back(r, u.get_bytes());
      }
    } else {
      const int dst = ((rr & ~mask) + root) % n;
      Packer p;
      p.put(static_cast<std::uint32_t>(entries.size()));
      for (const auto& [r, blob] : entries) {
        p.put(static_cast<std::int32_t>(r));
        p.put_bytes(blob);
      }
      send(dst, tag, p.bytes());
      entries.clear();
      break;
    }
  }
  std::vector<Bytes> out;
  if (rank() == root) {
    out.resize(static_cast<std::size_t>(n));
    for (auto& [r, blob] : entries)
      out[static_cast<std::size_t>(r)] = std::move(blob);
  }
  return out;
}

// The reduce skeleton shared by every allreduce flavour: move per-rank
// operands to rank 0, fold them there in ascending rank order — `fold`
// packs its result from the operand vector — and broadcast the packed
// result. Folding at a single rank over rank-ordered operands is the
// reproducibility contract — FP association order is identical across
// algorithms, backends, transports, and MAXLOC ties resolve to the lowest
// rank.
template <typename T, typename Fold>
Bytes Comm::allreduce_of(T value, const Fold& fold) {
  Packer p;
  p.put(value);
  const std::vector<Bytes> blobs = gather_blobs(p.take(), 0, kTagReduce);
  Bytes result;
  if (rank() == 0) {
    std::vector<T> operands;
    for (const Bytes& blob : blobs) operands.push_back(Unpacker(blob).get<T>());
    Packer out;
    fold(operands, out);
    result = out.take();
  }
  bcast(result, 0);  // books nothing: the reduce's scope is the record
  return result;
}

void Comm::bcast_string(std::string& data, int root) {
  Bytes bytes(data.begin(), data.end());
  bcast(bytes, root);
  data.assign(bytes.begin(), bytes.end());
}

Comm::MaxLoc Comm::allreduce_maxloc(double value) {
  const CollectiveScope scope(*this, kOpReduce);
  const Bytes result =
      allreduce_of(value, [](const std::vector<double>& v, Packer& out) {
        // Strict > with ascending rank order: ties go to the lowest rank.
        MaxLoc best{v[0], 0};
        for (std::size_t r = 1; r < v.size(); ++r)
          if (v[r] > best.value) best = MaxLoc{v[r], static_cast<int>(r)};
        out.put(best.value);
        out.put(best.rank);
      });
  Unpacker u(result);
  MaxLoc best{};
  best.value = u.get<double>();
  best.rank = u.get<int>();
  return best;
}

double Comm::allreduce_sum(double value) {
  const CollectiveScope scope(*this, kOpReduce);
  const Bytes result =
      allreduce_of(value, [](const std::vector<double>& v, Packer& out) {
        double total = v[0];  // seed with rank 0's operand (not 0.0:
                              // preserves -0.0 semantics)
        for (std::size_t r = 1; r < v.size(); ++r) total += v[r];
        out.put(total);
      });
  return Unpacker(result).get<double>();
}

double Comm::allreduce_max(double value) {
  const CollectiveScope scope(*this, kOpReduce);
  const Bytes result =
      allreduce_of(value, [](const std::vector<double>& v, Packer& out) {
        double best = v[0];
        for (std::size_t r = 1; r < v.size(); ++r) best = std::max(best, v[r]);
        out.put(best);
      });
  return Unpacker(result).get<double>();
}

long Comm::allreduce_sum_long(long value) {
  const CollectiveScope scope(*this, kOpReduce);
  const Bytes result =
      allreduce_of(value, [](const std::vector<long>& v, Packer& out) {
        long total = v[0];
        for (std::size_t r = 1; r < v.size(); ++r) total += v[r];
        out.put(total);
      });
  return Unpacker(result).get<long>();
}

// Gather skeleton: pack this rank's value, route the blobs to root, unpack
// them there in rank order ({} elsewhere).
template <typename T>
std::vector<T> Comm::gather_of(const T& mine, int root,
                               void (Packer::*put)(const T&),
                               T (Unpacker::*get)()) {
  Packer p;
  (p.*put)(mine);
  std::vector<T> out;
  for (const Bytes& blob : gather_blobs(p.take(), root, kTagGather)) {
    Unpacker u(blob);
    out.push_back((u.*get)());
  }
  return out;
}

std::vector<std::vector<double>> Comm::gather_doubles(
    const std::vector<double>& mine, int root) {
  const CollectiveScope scope(*this, kOpGather);
  return gather_of(mine, root, &Packer::put_doubles, &Unpacker::get_doubles);
}

std::vector<std::string> Comm::gather_strings(const std::string& mine,
                                              int root) {
  const CollectiveScope scope(*this, kOpGather);
  return gather_of(mine, root, &Packer::put_string, &Unpacker::get_string);
}

// --- nonblocking point-to-point ---

Comm::Request Comm::isend(int dest, int tag, const Bytes& payload) {
  // Eager completion into the transport's buffering (see comm.h): by the
  // time send() returns the message is queued, so the request is done.
  Request req;
  req.peer_ = dest;
  req.tag_ = tag;
  const bool timed = obs::enabled();
  const bool fl = flight::enabled();
  const std::uint64_t t0 = (timed || fl) ? obs::now_ns() : 0;
  if (fl)
    flight::record(flight::Kind::kReqPost, flight::peer_tag(dest, tag),
                   /*is_recv=*/0);
  send(dest, tag, payload);
  // Eager sends are in flight exactly as long as the caller is blocked in
  // them, so they honestly contribute zero overlap.
  if (timed) {
    const std::uint64_t dur = obs::now_ns() - t0;
    obs::comm::record_request(block(), /*completed_by_test=*/false, dur, dur);
  }
  return req;
}

Comm::Request Comm::irecv(int src, int tag) {
  Request req;
  req.done_ = false;
  req.peer_ = src;
  req.tag_ = tag;
  const bool fl = flight::enabled();
  if (fl || obs::enabled()) req.posted_ns_ = obs::now_ns();
  if (fl)
    flight::record(flight::Kind::kReqPost, flight::peer_tag(src, tag),
                   /*is_recv=*/1);
  return req;
}

// The recv below is the normal counted path, so Stats and flight events are
// identical whether a message arrives via recv, wait, or a test that
// completed it. The overlap record splits the request's posted→completed
// time from the slice spent blocked in this receive; the flight event
// carries the in-flight time for test() and the blocked time for wait().
void Comm::complete(Request& req, bool by_test) {
  const bool timed = obs::enabled();
  const bool fl = flight::enabled();
  const std::uint64_t t0 =
      ((timed || fl) && req.posted_ns_ != 0) ? obs::now_ns() : 0;
  req.payload_ = recv(req.peer_, req.tag_);
  req.done_ = true;
  if (t0 == 0) return;
  const std::uint64_t now = obs::now_ns();
  if (timed)
    obs::comm::record_request(block(), by_test, now - req.posted_ns_,
                              now - t0);
  if (fl)
    flight::record(
        by_test ? flight::Kind::kReqTestOk : flight::Kind::kReqWaitDone,
        flight::peer_tag(req.peer_, req.tag_),
        now - (by_test ? req.posted_ns_ : t0));
  req.posted_ns_ = 0;
}

bool Comm::test(Request& req) {
  if (req.done_) return true;
  // do_probe is per-source: it reports a message (or the peer's death)
  // observable on src's channel.
  if (!do_probe(req.peer_)) return false;
  complete(req, /*by_test=*/true);
  return true;
}

Bytes Comm::wait(Request& req) {
  if (!req.done_) complete(req, /*by_test=*/false);
  return std::move(req.payload_);
}

void Packer::put_string(const std::string& s) {
  put(static_cast<std::uint64_t>(s.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  data_.insert(data_.end(), p, p + s.size());
}

void Packer::put_doubles(const std::vector<double>& v) {
  put(static_cast<std::uint64_t>(v.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  data_.insert(data_.end(), p, p + v.size() * sizeof(double));
}

void Packer::put_bytes(const Bytes& b) {
  put(static_cast<std::uint64_t>(b.size()));
  data_.insert(data_.end(), b.begin(), b.end());
}

void Unpacker::read(std::uint8_t* out, std::size_t n) {
  RAXH_EXPECTS(offset_ + n <= data_->size());
  std::memcpy(out, data_->data() + offset_, n);
  offset_ += n;
}

std::string Unpacker::get_string() {
  const auto n = static_cast<std::size_t>(get<std::uint64_t>());
  std::string s(n, '\0');
  read(reinterpret_cast<std::uint8_t*>(s.data()), n);
  return s;
}

std::vector<double> Unpacker::get_doubles() {
  const auto n = static_cast<std::size_t>(get<std::uint64_t>());
  std::vector<double> v(n);
  read(reinterpret_cast<std::uint8_t*>(v.data()), n * sizeof(double));
  return v;
}

Bytes Unpacker::get_bytes() {
  const auto n = static_cast<std::size_t>(get<std::uint64_t>());
  Bytes b(n);
  read(b.data(), n);
  return b;
}

}  // namespace raxh::mpi
