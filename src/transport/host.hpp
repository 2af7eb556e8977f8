// An end host: a network node that owns TCP connections and demultiplexes
// arriving packets to them. Hosts initiate connections (connect) and accept
// them (listen). A packet that matches no connection and no listener is
// answered with RST, which lets half-dead connections clean themselves up.
//
// Connections live in a chunked in-place slab addressed by dense slot ids
// (stable addresses — the rest of the stack holds TcpConnection&), with an
// open-addressing (local_port, remote, remote_port) -> slot table doing the
// demux. Steady-state connect/teardown churn — one connection per request
// and per payment POST at 10^5-client scale — reuses slots and probes a
// flat array: no allocator traffic, no tree walks.
//
// The slab's chunks double: chunk k holds 2^(k+1) slots (2, 4, 8, ...), so
// a client host that holds one or two connections at a time pays for two,
// while a server-side host holding n connections owns O(log n) chunks.
// Chunks are never freed or moved until the host dies.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/node.hpp"
#include "sim/event_loop.hpp"
#include "transport/tcp_connection.hpp"
#include "util/assert.hpp"
#include "util/audit.hpp"

namespace speakup::transport {

class Host : public net::Node {
 public:
  Host(net::Network& net, net::NodeId id, std::string name)
      : Node(net, id, std::move(name)) {}

  ~Host() override;

  /// Connections read this config live, so it is fixed once the host has
  /// a connection slot: a later call would retune open connections.
  void set_tcp_config(const TcpConfig& cfg) {
    util::require(states_.empty(),
                  "Host::set_tcp_config: the config is fixed once a connection exists");
    tcp_cfg_ = cfg;
  }
  [[nodiscard]] const TcpConfig& tcp_config() const { return tcp_cfg_; }

  /// Opens a connection to (dst, dst_port). The returned reference stays
  /// valid until the connection closes (teardown destroys it on the next
  /// event-loop tick).
  TcpConnection& connect(net::NodeId dst, std::uint32_t dst_port);

  /// Registers an accept callback for a port.
  void listen(std::uint32_t port, std::function<void(TcpConnection&)> on_accept);

  void on_packet(net::Packet p) override;

  void send_packet(net::Packet p) { network().forward(id(), std::move(p)); }

  [[nodiscard]] TcpConnection* find_connection(std::uint32_t local_port, net::NodeId remote,
                                               std::uint32_t remote_port) const;

  /// Schedules destruction of a closed connection (deferred so callers on
  /// the current stack stay valid).
  void release(TcpConnection* conn);

  [[nodiscard]] sim::EventLoop& loop() const { return network().loop(); }
  [[nodiscard]] std::int64_t connections_created() const { return connections_created_; }
  [[nodiscard]] std::size_t live_connections() const { return table_size_; }

#if SPEAKUP_AUDIT_ENABLED
  /// Structural audit (SPEAKUP_AUDIT builds only): slab geometry — chunk k
  /// holds 2^(k+1) slots, no chunk beyond the slot high-water mark's, slot
  /// metadata within slab capacity and reserved to it — then demux-table vs
  /// slot-state agreement — every table entry reachable from its home probe
  /// and backed by a constructed connection, every non-empty slot tabled
  /// exactly once, free list covering exactly the empty slots, releasing
  /// slots holding a pending destroy event. Runs every kAuditPeriod table
  /// mutations.
  void audit() const;
  /// Deliberate corruption for tests/audit_test.cpp: drops one live table
  /// entry without releasing its slot — the signature of a lost erase.
  void corrupt_table_for_test();
  /// Deliberate corruption for tests/audit_test.cpp: records one slot of
  /// metadata past the slab's capacity — a slot with no storage behind it.
  void corrupt_slab_for_test();
#endif

 private:
  enum class SlotState : std::uint8_t { kEmpty, kLive, kReleasing };

  static constexpr std::uint32_t kNilSlot = UINT32_MAX;
  /// Demux table size on first insert: at the 70% load limit it holds a
  /// client host's one or two connections; server-side hosts double it.
  static constexpr std::size_t kMinTable = 4;

  struct alignas(TcpConnection) RawSlot {
    std::byte bytes[sizeof(TcpConnection)];
  };

  /// One open-addressing table entry; slot == kNilSlot marks it empty.
  struct TableEntry {
    std::uint32_t local_port = 0;
    net::NodeId remote = 0;
    std::uint32_t remote_port = 0;
    std::uint32_t slot = kNilSlot;
  };

  TcpConnection& emplace_connection(std::uint32_t local_port, net::NodeId remote,
                                    std::uint32_t remote_port, bool initiator);
  std::uint32_t alloc_port() { return next_port_++; }

  /// Chunk k holds 2^(k+1) slots. Two, not one, in the first: a client that
  /// sends a queued request from inside the reset callback of a denied one
  /// opens the new connection while the old one still holds its slot until
  /// its deferred destruction, so two slots is a client host's working set,
  /// and a one-slot chunk would make that first overlap allocate mid-run.
  static std::size_t chunk_size(std::size_t k) { return std::size_t{2} << k; }
  /// Slots the first `chunks` chunks hold together: 2^(chunks+1) - 2.
  static std::size_t slab_capacity(std::size_t chunks) { return chunk_size(chunks) - 2; }

  /// Slot s lives in chunk k = bit_width(s + 2) - 2, at offset
  /// s + 2 - 2^(k+1).
  [[nodiscard]] RawSlot& raw_at(std::uint32_t slot) const {
    const auto k = static_cast<unsigned>(std::bit_width(slot + 2)) - 2;
    return chunks_[k][slot + 2 - (2u << k)];
  }

  [[nodiscard]] TcpConnection* conn_at(std::uint32_t slot) const {
    return std::launder(reinterpret_cast<TcpConnection*>(raw_at(slot).bytes));
  }

  static std::uint64_t key_hash(std::uint32_t local_port, net::NodeId remote,
                                std::uint32_t remote_port) {
    std::uint64_t z = (static_cast<std::uint64_t>(local_port) << 32) ^
                      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(remote)) << 16) ^
                      remote_port;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  [[nodiscard]] std::size_t probe_of(const TableEntry& e) const {
    return key_hash(e.local_port, e.remote, e.remote_port) & (table_.size() - 1);
  }

  /// Index of the entry for the key, or of the empty slot where it would
  /// insert. Table must be non-empty.
  [[nodiscard]] std::size_t find_index(std::uint32_t local_port, net::NodeId remote,
                                       std::uint32_t remote_port) const;

  void table_insert(std::uint32_t local_port, net::NodeId remote,
                    std::uint32_t remote_port, std::uint32_t slot);
  void table_erase(std::uint32_t local_port, net::NodeId remote,
                   std::uint32_t remote_port);
  void table_grow();

  std::uint32_t acquire_slot();

  TcpConfig tcp_cfg_;
  std::vector<std::unique_ptr<RawSlot[]>> chunks_;  // chunk k: chunk_size(k) slots
  std::vector<SlotState> states_;      // indexed by slot
  std::vector<sim::EventId> release_ev_;  // pending destroy event per slot
  std::vector<std::uint32_t> free_;
  std::vector<TableEntry> table_;      // power-of-two open addressing
  std::size_t table_size_ = 0;
  std::map<std::uint32_t, std::function<void(TcpConnection&)>> listeners_;
  std::uint32_t next_port_ = 1024;
  std::int64_t connections_created_ = 0;
#if SPEAKUP_AUDIT_ENABLED
  std::vector<std::size_t> chunk_sizes_;  // slots allocated per chunk
  static constexpr std::uint64_t kAuditPeriod = 64;
  std::uint64_t audit_countdown_ = kAuditPeriod;
  void maybe_audit() {
    if (--audit_countdown_ == 0) {
      audit_countdown_ = kAuditPeriod;
      audit();
    }
  }
#endif
};

}  // namespace speakup::transport
