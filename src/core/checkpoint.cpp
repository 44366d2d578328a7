#include "core/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/flight.h"
#include "util/check.h"

namespace raxh {

namespace {

constexpr const char* kMagic = "raxh-bootstrap-checkpoint";
// v2: the body is covered by an FNV-1a checksum in a trailing "end" line, so
// truncated or bit-flipped files are rejected instead of partially parsed.
constexpr int kVersion = 2;

// Any character outside [A-Za-z0-9._-] becomes '_', so a job id composes
// into a file name but never into a new path component.
std::string sanitize_job_id(const std::string& job_id) {
  std::string out;
  out.reserve(job_id.size());
  for (const char ch : job_id) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '-' || ch == '_' ||
                    ch == '.';
    out += ok ? ch : '_';
  }
  return out;
}

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw std::runtime_error("checkpoint '" + path + "': " + what);
}

// FNV-1a 64-bit over the serialized body. Not cryptographic — it guards
// against torn writes and disk corruption, not adversaries.
std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Raw tree layouts (not newicks) go to disk so that resumed searches walk
// records in the same order as the uninterrupted run (see Tree::RawTopology).
// The stream must already carry precision 17 for exact double round trips.
void write_raw_topology(std::ostream& body, const Tree::RawTopology& t) {
  body << t.num_taxa << ' ' << t.inserted_tips << '\n';
  body << t.back.size();
  for (std::size_t i = 0; i < t.back.size(); ++i)
    body << ' ' << t.back[i] << ' ' << t.length[i];
  body << '\n';
  body << t.internal_used.size();
  for (auto u : t.internal_used) body << ' ' << static_cast<int>(u);
  body << '\n';
}

void read_raw_topology(std::istream& in, Tree::RawTopology& t,
                       const std::string& path) {
  if (!(in >> t.num_taxa >> t.inserted_tips))
    corrupt(path, "missing tree header");
  std::size_t nrec = 0;
  if (!(in >> nrec)) corrupt(path, "missing tree record count");
  t.back.resize(nrec);
  t.length.resize(nrec);
  for (std::size_t i = 0; i < nrec; ++i)
    if (!(in >> t.back[i] >> t.length[i]))
      corrupt(path, "truncated tree records");
  std::size_t nused = 0;
  if (!(in >> nused)) corrupt(path, "missing tree ring count");
  t.internal_used.resize(nused);
  for (auto& u : t.internal_used) {
    int v = 0;
    if (!(in >> v)) corrupt(path, "truncated tree rings");
    u = static_cast<std::uint8_t>(v);
  }
}

}  // namespace

void save_bootstrap_checkpoint(const std::string& path,
                               const BootstrapSnapshot& snapshot) {
  std::ostringstream body;
  body << snapshot.next_replicate << ' ' << snapshot.bootstrap_rng_state
       << ' ' << snapshot.parsimony_rng_state << '\n';
  body.precision(17);
  write_raw_topology(body, snapshot.current_tree);
  body << snapshot.cat_rates.size();
  for (double r : snapshot.cat_rates) body << ' ' << r;
  body << '\n';
  body << snapshot.cat_categories.size();
  for (int c : snapshot.cat_categories) body << ' ' << c;
  body << '\n';
  body << snapshot.replicate_trees.size() << '\n';
  for (std::size_t i = 0; i < snapshot.replicate_trees.size(); ++i) {
    body << snapshot.replicate_lnls[i] << '\n';
    write_raw_topology(body, snapshot.replicate_trees[i]);
  }
  const std::string serialized = body.str();

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) throw std::runtime_error("cannot write checkpoint: " + tmp);
    out << kMagic << ' ' << kVersion << '\n'
        << serialized << "end " << std::hex << fnv1a(serialized) << '\n';
    if (!out) throw std::runtime_error("short write on checkpoint: " + tmp);
  }
  std::filesystem::rename(tmp, path);
  obs::flight::record(obs::flight::Kind::kCkptWrite,
                      obs::flight::name_id(path.c_str()), serialized.size());
}

std::optional<BootstrapSnapshot> load_bootstrap_checkpoint(
    const std::string& path) {
  std::ifstream file(path);
  if (!file) return std::nullopt;
  std::string content((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());

  // Header line: magic + version.
  const std::size_t header_end = content.find('\n');
  if (header_end == std::string::npos) corrupt(path, "bad header");
  {
    std::istringstream header(content.substr(0, header_end));
    std::string magic;
    int version = 0;
    if (!(header >> magic >> version) || magic != kMagic)
      corrupt(path, "bad header");
    if (version != kVersion)
      corrupt(path, "unsupported version " + std::to_string(version));
  }

  // Trailing "end <fnv1a-hex>" marker: its presence proves the file was
  // written out completely, the checksum that no byte changed since.
  const std::size_t marker = content.rfind("\nend ");
  if (marker == std::string::npos || marker < header_end)
    corrupt(path, "missing end marker (truncated file)");
  const std::string serialized =
      content.substr(header_end + 1, marker - header_end);
  {
    std::istringstream tail(content.substr(marker + 1));
    std::string word;
    std::uint64_t stored = 0;
    if (!(tail >> word >> std::hex >> stored) || word != "end")
      corrupt(path, "malformed end marker");
    std::string trailing;
    if (tail >> trailing) corrupt(path, "trailing data after end marker");
    if (stored != fnv1a(serialized))
      corrupt(path, "checksum mismatch (corrupt or torn file)");
  }

  std::istringstream in(serialized);
  BootstrapSnapshot snapshot;
  if (!(in >> snapshot.next_replicate >> snapshot.bootstrap_rng_state >>
        snapshot.parsimony_rng_state))
    corrupt(path, "bad state line");
  read_raw_topology(in, snapshot.current_tree, path);

  std::size_t nrates = 0;
  if (!(in >> nrates)) corrupt(path, "missing CAT rate count");
  snapshot.cat_rates.resize(nrates);
  for (auto& r : snapshot.cat_rates)
    if (!(in >> r)) corrupt(path, "truncated CAT rates");
  std::size_t ncats = 0;
  if (!(in >> ncats)) corrupt(path, "missing CAT category count");
  snapshot.cat_categories.resize(ncats);
  for (auto& c : snapshot.cat_categories)
    if (!(in >> c)) corrupt(path, "truncated CAT categories");

  std::size_t count = 0;
  if (!(in >> count)) corrupt(path, "missing replicate count");
  if (count != static_cast<std::size_t>(snapshot.next_replicate))
    corrupt(path, "replicate count disagrees with progress counter");
  for (std::size_t i = 0; i < count; ++i) {
    double lnl = 0.0;
    if (!(in >> lnl)) corrupt(path, "truncated replicate list");
    snapshot.replicate_lnls.push_back(lnl);
    Tree::RawTopology tree;
    read_raw_topology(in, tree, path);
    snapshot.replicate_trees.push_back(std::move(tree));
  }
  return snapshot;
}

std::function<void(const BootstrapSnapshot&)> checkpoint_to(std::string path) {
  return [path = std::move(path)](const BootstrapSnapshot& snapshot) {
    save_bootstrap_checkpoint(path, snapshot);
  };
}

std::string rank_checkpoint_path(const std::string& dir,
                                 const std::string& job_id, int rank) {
  const std::string file = "rank" + std::to_string(rank) + ".ckpt";
  if (job_id.empty()) return dir + "/" + file;
  return dir + "/job" + sanitize_job_id(job_id) + "." + file;
}

}  // namespace raxh
