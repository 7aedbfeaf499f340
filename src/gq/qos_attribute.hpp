// Application-level QoS specification (paper §4.1, Figure 3):
//
//   struct qos_attribute {
//     u_int32_t qosclass;
//     double bandwidth;        /* Peak bandwidth in kbps */
//     int max_message_size;    /* Max size used in MPI_Send */
//   };
//   MPI_Attr_put(comm, MPICH_ATM_QOS, &QoS);
//   MPI_Attr_get(comm, MPICH_ATM_QOS, &Qos_p, &flag);
//
// The struct below mirrors that layout with two documented extensions the
// paper discusses in the text: the token-bucket divisor (Table 1's
// "normal" vs "large" bucket) and source shaping (§5.4's alternative to
// larger buckets).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gara/reservation.hpp"
#include "net/token_bucket.hpp"

namespace mgq::gq {

/// "The QoS class may be 'best-effort' (i.e., no QoS), 'low-latency'
/// (suitable for small message traffic: e.g., certain collective
/// operations), or 'premium'."
enum class QosClass : std::uint32_t {
  kBestEffort = 0,
  kLowLatency = 1,
  kPremium = 2,
};

const char* qosClassName(QosClass c);

struct QosAttribute {
  QosClass qosclass = QosClass::kBestEffort;
  /// Peak application bandwidth in kb/s (per outgoing flow).
  double bandwidth_kbps = 0.0;
  /// Maximum size passed to MPI_Send, bytes; lets the agent compute the
  /// protocol overhead when translating to a network reservation. <= 0
  /// means unknown (the agent falls back to the paper's measured 1.06).
  int max_message_size = 0;
  /// Token-bucket depth divisor (paper §4.3): 40 = "normal", 4 = "large".
  double bucket_divisor = net::TokenBucket::kNormalDivisor;
  /// §5.4 alternative: shape traffic at the source instead of relying on
  /// a large bucket (applied by the application through ShapedSocket).
  bool shape_at_source = false;
};

/// Progress of the QoS request triggered by an attrPut.
enum class QosRequestState {
  kNone,       // no request made on this communicator
  kPending,    // agent still establishing flows / reserving
  kGranted,    // all reservations active
  kDenied,     // the request was refused; nothing held
  kReleased,   // released by a best-effort re-put or communicator teardown
  kRecovering, // reservation lost/denied; agent retrying (recovery on)
  kDegraded,   // reservation lost; flows run best-effort (with recovery
               // on, re-escalation to premium continues in the background)
};

const char* qosRequestStateName(QosRequestState s);

/// The agent's state machine, as a predicate: true when `from -> to` is
/// one of the defined edges (e.g. kRecovering is entered only from
/// kGranted or kPending, kDegraded only from kRecovering or kGranted,
/// kDenied only from kPending).
/// Invariant monitors check every observed transition against this table.
bool qosTransitionLegal(QosRequestState from, QosRequestState to);

struct QosStatus {
  QosRequestState state = QosRequestState::kNone;
  std::string error;
  std::vector<gara::ReservationHandle> reservations;
  /// Reservation attempts made by the recovery loop (diagnostics).
  int recovery_attempts = 0;
};

/// Translation rule from application rate to network reservation: the
/// wire carries TCP/IP headers per MSS plus the MPI envelope, so the
/// reservation must exceed the application rate by the protocol overhead
/// ("a reservation value of around 1.06 of the sending rate", §5.3).
double protocolOverheadFactor(int max_message_size, int mss = 1460);

}  // namespace mgq::gq
