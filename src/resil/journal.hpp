// Deterministic in-memory state journal for crash-restart reconciliation.
//
// The journal is the control plane's durable record: an append-only list
// of reservation lifecycle operations and QoS intents. A simulated crash
// drops the agent's and GARA's in-memory state but never the journal (in
// a real deployment this is the write-ahead log on stable storage);
// restart replays the journal to learn which reservations and intents
// were live, then the anti-entropy Reconciler repairs any divergence
// between that record and what the managers still enforce.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gara/gara.hpp"
#include "sim/simulator.hpp"

namespace mgq::resil {

enum class JournalOp {
  // Reservation lifecycle (mirrors Gara's lifecycle listener ops).
  kAdmitted,
  kActivated,
  kModified,
  kAdopted,
  kExpired,
  kCancelled,
  kFailed,
  // QoS intents (what the application asked the agent for).
  kQosPut,
  kQosRelease,
  // Control-plane epochs.
  kCrash,
  kRestart,
};

struct JournalRecord {
  JournalOp op;
  double t_seconds = 0.0;
  // Reservation ops.
  std::uint64_t reservation_id = 0;
  std::string resource;
  double amount = 0.0;
  gara::SlotId slot = 0;
  std::string detail;
  // QoS intent ops (kQosPut / kQosRelease).
  std::int32_t context = 0;
  int world_rank = -1;
  std::uint32_t qos_class = 0;
  double bandwidth_kbps = 0.0;
  std::size_t max_message_size = 0;
  double bucket_divisor = 0.0;
};

class StateJournal {
 public:
  explicit StateJournal(sim::Simulator& sim) : sim_(sim) {}
  StateJournal(const StateJournal&) = delete;
  StateJournal& operator=(const StateJournal&) = delete;

  /// Subscribes to `gara`'s lifecycle events; every admitted / activated /
  /// modified / adopted / terminal op is appended and the live index kept
  /// in sync. Attach before any reservations are made.
  void attach(gara::Gara& gara);

  // --- QoS intent records (written by the QosAgent) -----------------------
  void recordQosPut(std::int32_t context, int world_rank,
                    std::uint32_t qos_class, double bandwidth_kbps,
                    std::size_t max_message_size, double bucket_divisor);
  void recordQosRelease(std::int32_t context, int world_rank);

  // --- control-plane epoch markers ---------------------------------------
  void recordCrash(const std::string& detail);
  void recordRestart(const std::string& detail);

  /// Marks a journal-live reservation failed without a Gara handle — the
  /// Reconciler's last resort when no surviving handle can retire it.
  void forceRetire(std::uint64_t reservation_id, const std::string& reason);

  // --- replay queries ------------------------------------------------------
  bool isLive(std::uint64_t reservation_id) const {
    return live_.count(reservation_id) != 0;
  }

  /// What the journal believes each live reservation holds.
  struct LiveReservation {
    std::uint64_t id = 0;
    std::string resource;
    double amount = 0.0;
    gara::SlotId slot = 0;
  };
  /// Sorted by reservation id.
  std::vector<LiveReservation> liveReservations() const;

  /// Last-wins QoS intent per (context, world_rank) with no later release.
  struct LiveIntent {
    std::int32_t context = 0;
    int world_rank = -1;
    std::uint32_t qos_class = 0;
    double bandwidth_kbps = 0.0;
    std::size_t max_message_size = 0;
    double bucket_divisor = 0.0;
  };
  /// Sorted by (context, world_rank).
  std::vector<LiveIntent> liveIntents() const;

  /// Highest reservation id ever journaled — restart resumes allocation
  /// above it so replayed history never collides with new admissions.
  std::uint64_t maxReservationId() const { return max_id_; }

  const std::vector<JournalRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  std::size_t liveCount() const { return live_.size(); }

 private:
  void append(JournalRecord record);
  void applyReservationOp(const JournalRecord& record);

  sim::Simulator& sim_;
  std::vector<JournalRecord> records_;
  std::map<std::uint64_t, LiveReservation> live_;
  std::map<std::pair<std::int32_t, int>, LiveIntent> intents_;
  std::uint64_t max_id_ = 0;
};

}  // namespace mgq::resil
