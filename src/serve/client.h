// Client side of the raxhd protocol, used by tools/raxhd_client and
// tools/raxh_top. One Client wraps one connected socket; requests are
// synchronous (frame out, reply frame(s) in). A kErr reply surfaces as a
// ServeError exception carrying the server's message.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/proto.h"

namespace raxh::serve {

class ServeError : public std::runtime_error {
 public:
  explicit ServeError(const std::string& message)
      : std::runtime_error(message) {}
};

class Client {
 public:
  static Client connect_unix(const std::string& socket_path);
  static Client connect_tcp(const std::string& host, int port);
  // "host:port" connects TCP, anything else is a unix socket path.
  static Client connect(const std::string& target);

  Client(Client&& other) noexcept;
  Client& operator=(Client&&) = delete;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  std::string submit(const JobRequest& request);
  JobStatus status(const std::string& id);
  JobResult result(const std::string& id);
  void cancel(const std::string& id);
  std::vector<JobStatus> list();
  void shutdown_server();
  // One Prometheus text-exposition scrape (Op::kMetrics).
  std::string metrics();

  // Follow a job's progress: `on_event` fires per EVENT frame; returns the
  // terminal status from the closing OK frame.
  JobStatus stream(const std::string& id,
                   const std::function<void(const JobStatus&)>& on_event = {});

 private:
  explicit Client(int fd) : fd_(fd) {}
  Frame roundtrip(Op op, const mpi::Bytes& body);

  int fd_ = -1;
};

}  // namespace raxh::serve
