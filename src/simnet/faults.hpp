// Fault-injection plan for the simulated fabric: the knobs the transport
// supervisor is tested and benchmarked against. An injector is installed on
// a Fabric (Fabric::set_fault_injector); Fabric::connect consults it when
// dialing and wires it into the client socket so every send can be faulted.
//
// Supported faults:
//   * probabilistic connection drops — each send may kill the connection;
//   * one-shot stream kills — the next send on a connection whose tag
//     matches dies (targets one SEMPLAR stream deterministically);
//   * connect bans / probabilistic connect failures — models a broker that
//     is down or restarting (reconnects are refused until unbanned);
//   * injected latency spikes — a send occasionally stalls for a configured
//     number of simulated seconds before going out;
//   * in-flight bit flips — a send's payload is corrupted by one flipped
//     bit (the length prefix is preserved, modeling corruption that slips
//     past TCP's 16-bit checksum while the kernel keeps segmentation);
//   * at-rest bit rot — rot(object, offset) flips a stored bit through a
//     hook the broker harness registers (set_rot_hook), without simnet
//     ever knowing what an object store is.
//
// Tags: SrbClient dials with its client name as the connection tag
// (e.g. "semplar/node0/s1"), so `arm_kill("s1")` / `ban("s1")` target one
// stream of one node by substring match.
//
// Decisions are counter-based: the verdict for the k-th draw of one fault
// kind on one tag (and, for bit flips, one end of the connection) is a pure
// function of (seed, tag, kind, k). Which I/O thread reaches the injector
// first therefore never moves a fault from one stream to another, and a
// seed replays a run whenever each stream's own send order is fixed.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace remio::simnet {

class FaultInjector {
 public:
  // --- configuration (any thread) ------------------------------------------
  /// Probability that any single send_all() call kills its connection.
  void set_drop_probability(double p);
  /// Probability that a dial is refused outright.
  void set_connect_failure_probability(double p);
  /// With probability `p`, a send stalls `sim_seconds` before transmitting.
  void set_latency_spike(double p, double sim_seconds);
  /// Probability that a send's payload suffers one flipped bit in flight,
  /// restricted to connections whose tag contains `tag_substr` (all when
  /// empty) and, with `responses_only`, to the server end's corrupt-only
  /// sends. The connection survives — the bytes just arrive wrong.
  void set_corrupt_probability(double p, const std::string& tag_substr = "",
                               bool responses_only = false);
  /// Registers the at-rest rot target (typically ObjectStore::corrupt).
  void set_rot_hook(std::function<void(std::uint64_t, std::uint64_t)> hook);
  /// Flips one stored bit of `object_id` at `offset` via the rot hook.
  void rot(std::uint64_t object_id, std::uint64_t offset);
  /// Arms a one-shot kill: the next send on a connection whose tag contains
  /// `tag_substr` (any connection when empty) dies. One send consumes it.
  void arm_kill(const std::string& tag_substr = "");
  /// Refuses every dial whose tag contains `tag_substr` until unban().
  void ban(const std::string& tag_substr);
  void unban(const std::string& tag_substr);
  /// Reseeds every decision sequence and restarts its counters.
  void seed(std::uint64_t s);

  // --- observability -------------------------------------------------------
  std::uint64_t drops() const;
  std::uint64_t refused_connects() const;
  std::uint64_t latency_spikes() const;
  /// In-flight bit flips injected so far (wire corruptions).
  std::uint64_t corruptions() const;
  /// At-rest rot() calls delivered to the hook.
  std::uint64_t rots() const;

  // --- hooks (called by Fabric / Socket) -----------------------------------
  /// True when this dial must be refused.
  bool fail_connect(const std::string& tag);
  /// True when the connection must die before this send.
  bool drop_send(const std::string& tag);
  /// Extra one-way stall for this send, in simulated seconds (usually 0).
  double latency_penalty(const std::string& tag);
  /// True when this send must be corrupted; `bit` receives the flip
  /// position, uniform in [0, nbits). The socket maps it past the length
  /// prefix so framing survives (see socket.cpp). `server_end` selects the
  /// response direction's own decision sequence.
  bool corrupt_send(const std::string& tag, bool server_end,
                    std::uint64_t nbits, std::uint64_t& bit);

 private:
  enum Kind : std::size_t {
    kConnect,
    kDrop,
    kSpike,
    kCorruptClient,
    kCorruptServer,
    kKinds
  };
  /// Next draw of `kind` on `tag`, uniform over 64 bits.
  std::uint64_t draw_locked(const std::string& tag, Kind kind);

  mutable std::mutex mu_;
  std::uint64_t seed_ = 0x7a017a01u;
  std::map<std::string, std::array<std::uint64_t, kKinds>> draws_;
  double drop_p_ = 0.0;
  double connect_fail_p_ = 0.0;
  double spike_p_ = 0.0;
  double spike_s_ = 0.0;
  double corrupt_p_ = 0.0;
  std::string corrupt_tag_;
  bool corrupt_responses_only_ = false;
  std::optional<std::string> armed_kill_;
  std::vector<std::string> bans_;
  std::function<void(std::uint64_t, std::uint64_t)> rot_hook_;
  std::uint64_t drops_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t spikes_ = 0;
  std::uint64_t corruptions_ = 0;
  std::uint64_t rots_ = 0;
};

}  // namespace remio::simnet
