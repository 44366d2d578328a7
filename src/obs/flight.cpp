#include "obs/flight.h"

#include <fcntl.h>
#include <pthread.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>

#include "obs/obs.h"

namespace raxh::obs::flight {

namespace detail {
std::atomic<bool> g_enabled{true};
}  // namespace detail

namespace {

constexpr char kMagic[8] = {'R', 'A', 'X', 'H', 'B', 'B', 'X', '1'};
constexpr char kEndMarker[8] = {'R', 'A', 'X', 'H', 'B', 'B', 'X', 'E'};

// Ring table sized for long test processes that spawn hundreds of short-lived
// rank threads (rings are leaked so crash dumps can read dead threads' tails).
constexpr std::size_t kMaxRings = 512;
constexpr std::size_t kMaxNames = 256;
constexpr std::size_t kNameCap = 96;
constexpr std::size_t kRingMask = kRingCapacity - 1;

// One event is four u64 words. Word-level relaxed atomics make concurrent
// dump reads race-free (a whole event can still decode torn; the reader
// skips those). w3 packs (kind << 32) | u32(rank).
struct Ring {
  std::uint32_t tid = 0;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t>* words = nullptr;  // kRingCapacity * 4
};

std::atomic<Ring*> g_rings[kMaxRings];
std::atomic<int> g_ring_claims{0};
std::atomic<std::uint32_t> g_next_tid{0};

char g_names[kMaxNames][kNameCap];
std::atomic<int> g_nnames{0};
std::atomic_flag g_name_lock = ATOMIC_FLAG_INIT;

char g_dump_dir[512] = {0};
std::mutex g_dir_mutex;
std::atomic<int> g_last_rank{-1};
std::atomic<bool> g_crash_dumped{false};

thread_local Ring* t_ring = nullptr;
thread_local int t_rank = -1;

// Forked children (minimpi ProcessComm) inherit the parent's rings; clear the
// cursors so a child's black box only shows its own life.
void reset_all_rings() {
  for (std::size_t i = 0; i < kMaxRings; ++i) {
    Ring* r = g_rings[i].load(std::memory_order_acquire);
    if (r) r->head.store(0, std::memory_order_relaxed);
  }
}

void atfork_child() {
  reset_all_rings();
  g_crash_dumped.store(false, std::memory_order_relaxed);
}

Ring* ring() {
  if (t_ring) return t_ring;
  static std::once_flag atfork_once;
  std::call_once(atfork_once,
                 [] { ::pthread_atfork(nullptr, nullptr, atfork_child); });
  // Table full: park the thread on a cursor-only ring so record() degrades to
  // a no-op instead of crashing.
  static Ring overflow;
  const int slot = g_ring_claims.fetch_add(1, std::memory_order_relaxed);
  if (slot >= static_cast<int>(kMaxRings)) {
    t_ring = &overflow;
    return t_ring;
  }
  auto* fresh = new Ring;  // leaked: dumps read rings of exited threads
  fresh->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  fresh->words = new std::atomic<std::uint64_t>[kRingCapacity * 4]();
  g_rings[slot].store(fresh, std::memory_order_release);
  t_ring = fresh;
  return t_ring;
}

// ---------------------------------------------------------------------------
// Async-signal-safe dump writer
// ---------------------------------------------------------------------------

std::uint64_t fnv1a_step(std::uint64_t h, unsigned char byte) {
  h ^= byte;
  h *= 1099511628211ULL;
  return h;
}

struct FileWriter {
  int fd = -1;
  std::uint64_t fnv = 1469598103934665603ULL;
  unsigned char buf[4096];
  std::size_t used = 0;
  bool ok = true;

  void flush() {
    std::size_t off = 0;
    while (off < used) {
      const ssize_t w = ::write(fd, buf + off, used - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        ok = false;
        break;
      }
      off += static_cast<std::size_t>(w);
    }
    used = 0;
  }
  // checksummed=false is only for the trailer (the checksum itself + marker).
  void put(const void* p, std::size_t n, bool checksummed = true) {
    const auto* s = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      if (checksummed) fnv = fnv1a_step(fnv, s[i]);
      buf[used++] = s[i];
      if (used == sizeof(buf)) flush();
    }
  }
  void put_u32(std::uint32_t v) { put(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put(&v, sizeof(v)); }
  void put_i32(std::int32_t v) { put(&v, sizeof(v)); }
};

// Append a decimal integer to `out` (signal-safe std::to_string stand-in).
std::size_t format_int(char* out, std::size_t cap, long v) {
  char tmp[24];
  std::size_t n = 0;
  bool neg = v < 0;
  unsigned long u = neg ? static_cast<unsigned long>(-v)
                        : static_cast<unsigned long>(v);
  do {
    tmp[n++] = static_cast<char>('0' + u % 10);
    u /= 10;
  } while (u != 0 && n < sizeof(tmp));
  std::size_t w = 0;
  if (neg && w < cap) out[w++] = '-';
  while (n > 0 && w < cap) out[w++] = tmp[--n];
  return w;
}

bool build_dump_path(char* out, std::size_t cap, int rank) {
  if (g_dump_dir[0] == '\0') return false;
  std::size_t w = 0;
  for (const char* p = g_dump_dir; *p != '\0' && w < cap; ++p) out[w++] = *p;
  const char* mid = "/rank";
  for (const char* p = mid; *p != '\0' && w < cap; ++p) out[w++] = *p;
  w += format_int(out + w, cap - w, rank);
  const char* suffix = ".blackbox";
  for (const char* p = suffix; *p != '\0' && w < cap; ++p) out[w++] = *p;
  if (w >= cap) return false;
  out[w] = '\0';
  return true;
}

bool dump_to_fd(int fd, int rank, const char* reason, bool fatal) {
  FileWriter w;
  w.fd = fd;
  w.put(kMagic, sizeof(kMagic));
  w.put_i32(rank);
  w.put_u32(static_cast<std::uint32_t>(::getpid()));
  w.put_u32(fatal ? 1u : 0u);
  const std::size_t reason_len = reason ? std::strlen(reason) : 0;
  w.put_u32(static_cast<std::uint32_t>(reason_len));
  if (reason_len > 0) w.put(reason, reason_len);

  const int nnames = g_nnames.load(std::memory_order_acquire);
  w.put_u32(static_cast<std::uint32_t>(nnames));
  for (int i = 0; i < nnames; ++i) {
    const std::size_t len = ::strnlen(g_names[i], kNameCap);
    w.put_u32(static_cast<std::uint32_t>(len));
    w.put(g_names[i], len);
  }

  // Snapshot (ring, head) pairs first so the ring count in the header agrees
  // with the ring sections even while other threads keep recording.
  Ring* rings[kMaxRings];
  std::uint64_t heads[kMaxRings];
  std::uint32_t nrings = 0;
  for (std::size_t i = 0; i < kMaxRings; ++i) {
    Ring* r = g_rings[i].load(std::memory_order_acquire);
    if (!r || !r->words) continue;
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    if (head == 0) continue;
    rings[nrings] = r;
    heads[nrings] = head;
    ++nrings;
  }
  w.put_u32(nrings);
  for (std::uint32_t i = 0; i < nrings; ++i) {
    const Ring* r = rings[i];
    const std::uint64_t head = heads[i];
    const std::uint64_t n = head < kRingCapacity ? head : kRingCapacity;
    w.put_u32(r->tid);
    w.put_u64(head);
    w.put_u32(static_cast<std::uint32_t>(n));
    for (std::uint64_t e = head - n; e < head; ++e) {
      const std::atomic<std::uint64_t>* slot = r->words + (e & kRingMask) * 4;
      for (int word = 0; word < 4; ++word) {
        const std::uint64_t v = slot[word].load(std::memory_order_relaxed);
        w.put_u64(v);
      }
    }
  }

  const std::uint64_t checksum = w.fnv;
  w.put(&checksum, sizeof(checksum), /*checksummed=*/false);
  w.put(kEndMarker, sizeof(kEndMarker), /*checksummed=*/false);
  w.flush();
  return w.ok;
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGBUS:
      return "SIGBUS";
    case SIGABRT:
      return "SIGABRT";
    default:
      return "signal";
  }
}

void crash_signal_handler(int sig) {
  if (!g_crash_dumped.exchange(true)) {
    dump_now(-1, signal_name(sig), /*fatal=*/true);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void terminate_hook() {
  if (!g_crash_dumped.exchange(true)) {
    dump_now(-1, "std::terminate", /*fatal=*/true);
  }
  std::abort();
}

}  // namespace

namespace detail {

void do_record(Kind k, std::uint64_t a, std::uint64_t b) {
  Ring* r = ring();
  if (!r->words) return;  // ring table overflow
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  std::atomic<std::uint64_t>* slot = r->words + (h & kRingMask) * 4;
  slot[0].store(now_ns(), std::memory_order_relaxed);
  slot[1].store(a, std::memory_order_relaxed);
  slot[2].store(b, std::memory_order_relaxed);
  slot[3].store((static_cast<std::uint64_t>(k) << 32) |
                    static_cast<std::uint32_t>(t_rank),
                std::memory_order_relaxed);
  r->head.store(h + 1, std::memory_order_release);
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_thread_rank(int rank) {
  t_rank = rank;
  g_last_rank.store(rank, std::memory_order_relaxed);
}

std::uint32_t name_id(const char* name) {
  if (!name || name[0] == '\0') return 0;
  const int n = g_nnames.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i)
    if (std::strncmp(g_names[i], name, kNameCap - 1) == 0)
      return static_cast<std::uint32_t>(i + 1);
  while (g_name_lock.test_and_set(std::memory_order_acquire)) {
  }
  std::uint32_t id = 0;
  const int m = g_nnames.load(std::memory_order_relaxed);
  for (int i = 0; i < m && id == 0; ++i)
    if (std::strncmp(g_names[i], name, kNameCap - 1) == 0)
      id = static_cast<std::uint32_t>(i + 1);
  if (id == 0 && m < static_cast<int>(kMaxNames)) {
    std::strncpy(g_names[m], name, kNameCap - 1);
    g_names[m][kNameCap - 1] = '\0';
    g_nnames.store(m + 1, std::memory_order_release);
    id = static_cast<std::uint32_t>(m + 1);
  }
  g_name_lock.clear(std::memory_order_release);
  return id;
}

void set_dump_dir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_dir_mutex);
  std::string d = dir;
  while (!d.empty() && d.back() == '/') d.pop_back();
  if (d.size() >= sizeof(g_dump_dir)) d.resize(sizeof(g_dump_dir) - 1);
  std::memcpy(g_dump_dir, d.c_str(), d.size() + 1);
}

std::string dump_path_for_rank(int rank) {
  char path[640];
  if (!build_dump_path(path, sizeof(path), rank)) return "";
  return path;
}

bool dump_now(int rank, const char* reason, bool fatal) {
  if (g_dump_dir[0] == '\0') return false;
  if (rank < 0) {
    rank = t_rank >= 0 ? t_rank : g_last_rank.load(std::memory_order_relaxed);
    if (rank < 0) rank = 0;
  }
  ::mkdir(g_dump_dir, 0777);  // EEXIST is the common case
  char path[640];
  if (!build_dump_path(path, sizeof(path), rank)) return false;
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = dump_to_fd(fd, rank, reason ? reason : "", fatal);
  ::close(fd);
  return ok;
}

void install_crash_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = crash_signal_handler;
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGSEGV, SIGBUS, SIGABRT})
    ::sigaction(sig, &sa, nullptr);
  std::set_terminate(terminate_hook);
}

std::uint64_t events_recorded() {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kMaxRings; ++i) {
    Ring* r = g_rings[i].load(std::memory_order_acquire);
    if (r) total += r->head.load(std::memory_order_relaxed);
  }
  return total;
}

void reset() {
  reset_all_rings();
  g_crash_dumped.store(false, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw std::runtime_error("blackbox '" + path + "': " + what);
}

struct Cursor {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;
  const std::string* path;

  void need(std::size_t n, const char* what) const {
    if (size - pos < n)
      corrupt(*path, std::string("truncated ") + what);
  }
  void raw(void* out, std::size_t n, const char* what) {
    need(n, what);
    std::memcpy(out, data + pos, n);
    pos += n;
  }
  std::uint32_t u32(const char* what) {
    std::uint32_t v;
    raw(&v, sizeof(v), what);
    return v;
  }
  std::uint64_t u64(const char* what) {
    std::uint64_t v;
    raw(&v, sizeof(v), what);
    return v;
  }
  std::int32_t i32(const char* what) {
    std::int32_t v;
    raw(&v, sizeof(v), what);
    return v;
  }
  std::string str(std::size_t n, const char* what) {
    need(n, what);
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
  }
};

}  // namespace

const std::string& Blackbox::name(std::uint64_t id) const {
  static const std::string unknown = "?";
  if (id == 0 || id > names.size()) return unknown;
  return names[static_cast<std::size_t>(id - 1)];
}

std::vector<DecodedEvent> Blackbox::all_events() const {
  std::vector<DecodedEvent> out;
  for (const RingDump& r : rings)
    out.insert(out.end(), r.events.begin(), r.events.end());
  return out;
}

Blackbox read_blackbox(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) corrupt(path, "cannot open");
  std::string content((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
  const auto* bytes = reinterpret_cast<const unsigned char*>(content.data());

  // Outermost integrity first, mirroring checkpoint v2: the end marker proves
  // the dump completed, the checksum that no byte changed since.
  constexpr std::size_t kTrailer = 8 + 8;  // u64 checksum + end marker
  if (content.size() < sizeof(kMagic) + kTrailer)
    corrupt(path, "file too small");
  if (std::memcmp(content.data() + content.size() - 8, kEndMarker, 8) != 0)
    corrupt(path, "missing end marker (truncated or trailing garbage)");
  std::uint64_t stored = 0;
  std::memcpy(&stored, content.data() + content.size() - kTrailer, 8);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < content.size() - kTrailer; ++i)
    h = fnv1a_step(h, bytes[i]);
  if (h != stored) corrupt(path, "checksum mismatch (corrupt or torn file)");

  Cursor c{bytes, content.size() - kTrailer, 0, &path};
  char magic[8];
  c.raw(magic, sizeof(magic), "header");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    corrupt(path, "bad magic");

  Blackbox box;
  box.rank = c.i32("rank");
  box.pid = c.u32("pid");
  box.fatal = (c.u32("flags") & 1u) != 0;
  box.reason = c.str(c.u32("reason length"), "reason");

  const std::uint32_t nnames = c.u32("name count");
  for (std::uint32_t i = 0; i < nnames; ++i)
    box.names.push_back(c.str(c.u32("name length"), "name table"));

  const std::uint32_t nrings = c.u32("ring count");
  for (std::uint32_t i = 0; i < nrings; ++i) {
    Blackbox::RingDump ring;
    ring.tid = c.u32("ring tid");
    ring.head = c.u64("ring head");
    const std::uint32_t n = c.u32("ring event count");
    if (n > ring.head) corrupt(path, "ring event count exceeds cursor");
    if (ring.head > n) box.dropped += ring.head - n;
    ring.events.reserve(n);
    for (std::uint32_t e = 0; e < n; ++e) {
      std::uint64_t w[4];
      for (auto& word : w) word = c.u64("event");
      const std::uint64_t kind_word = w[3] >> 32;
      if (kind_word < 1 ||
          kind_word > static_cast<std::uint64_t>(Kind::kMaxKind)) {
        ++box.torn;  // slot overwritten during a live dump
        continue;
      }
      DecodedEvent ev;
      ev.ts_ns = w[0];
      ev.a = w[1];
      ev.b = w[2];
      ev.kind = static_cast<Kind>(kind_word);
      ev.rank = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(w[3] & 0xffffffffu));
      ring.events.push_back(ev);
    }
    box.rings.push_back(std::move(ring));
  }
  if (c.pos != c.size) corrupt(path, "trailing data after ring sections");
  return box;
}

}  // namespace raxh::obs::flight
