// A single §7.1 client: a client::ClientPool of one member. Tests and rigs
// that drive one host at a time use this; client_pool.hpp holds the client
// logic and WorkloadParams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "client/client_pool.hpp"

namespace speakup::client {

class WorkloadClient {
 public:
  /// `client_index` namespaces this client's request ids; `rng` drives its
  /// arrival process.
  WorkloadClient(transport::Host& host, net::NodeId thinner, const WorkloadParams& params,
                 std::uint32_t client_index, util::RngStream rng)
      : pool_(host.loop(), thinner, params, client_index) {
    pool_.add_member(host, std::move(rng));
  }

  WorkloadClient(const WorkloadClient&) = delete;
  WorkloadClient& operator=(const WorkloadClient&) = delete;

  /// Starts the arrival process.
  void start() { pool_.start_all(); }
  /// Stops issuing new requests (outstanding ones keep running).
  void pause() { pool_.pause(0); }

  [[nodiscard]] const ClientStats& stats() const { return pool_.stats(0); }
  [[nodiscard]] std::size_t outstanding() const { return pool_.outstanding(0); }
  [[nodiscard]] std::size_t backlog() const { return pool_.backlog(0); }

 private:
  ClientPool pool_;
};

}  // namespace speakup::client
