#include "resil/journal.hpp"

#include <string>

namespace mgq::resil {

namespace {

bool lifecycleOpFromName(const std::string& name, JournalOp& op) {
  if (name == "admitted") op = JournalOp::kAdmitted;
  else if (name == "activated") op = JournalOp::kActivated;
  else if (name == "modified") op = JournalOp::kModified;
  else if (name == "adopted") op = JournalOp::kAdopted;
  else if (name == "expired") op = JournalOp::kExpired;
  else if (name == "cancelled") op = JournalOp::kCancelled;
  else if (name == "failed") op = JournalOp::kFailed;
  else return false;
  return true;
}

}  // namespace

void StateJournal::attach(gara::Gara& gara) {
  gara.addLifecycleListener([this](const char* op_name,
                                   const gara::ReservationHandle& handle,
                                   const std::string& resource,
                                   const std::string& detail) {
    JournalOp op;
    if (!lifecycleOpFromName(op_name, op)) return;
    JournalRecord record;
    record.op = op;
    record.reservation_id = handle->id();
    record.resource = resource;
    record.amount = handle->request().amount;
    record.slot = handle->slot();
    record.detail = detail;
    append(std::move(record));
  });
}

void StateJournal::append(JournalRecord record) {
  record.t_seconds = sim_.now().toSeconds();
  if (record.reservation_id > max_id_) max_id_ = record.reservation_id;
  applyReservationOp(record);
  records_.push_back(std::move(record));
}

void StateJournal::applyReservationOp(const JournalRecord& record) {
  switch (record.op) {
    case JournalOp::kAdmitted:
    case JournalOp::kActivated:
    case JournalOp::kModified:
    case JournalOp::kAdopted: {
      auto& live = live_[record.reservation_id];
      live.id = record.reservation_id;
      live.resource = record.resource;
      live.amount = record.amount;
      live.slot = record.slot;
      break;
    }
    case JournalOp::kExpired:
    case JournalOp::kCancelled:
    case JournalOp::kFailed:
      live_.erase(record.reservation_id);
      break;
    case JournalOp::kQosPut: {
      auto& intent = intents_[{record.context, record.world_rank}];
      intent.context = record.context;
      intent.world_rank = record.world_rank;
      intent.qos_class = record.qos_class;
      intent.bandwidth_kbps = record.bandwidth_kbps;
      intent.max_message_size = record.max_message_size;
      intent.bucket_divisor = record.bucket_divisor;
      break;
    }
    case JournalOp::kQosRelease:
      intents_.erase({record.context, record.world_rank});
      break;
    case JournalOp::kCrash:
    case JournalOp::kRestart:
      break;
  }
}

void StateJournal::recordQosPut(std::int32_t context, int world_rank,
                                std::uint32_t qos_class,
                                double bandwidth_kbps,
                                std::size_t max_message_size,
                                double bucket_divisor) {
  JournalRecord record;
  record.op = JournalOp::kQosPut;
  record.context = context;
  record.world_rank = world_rank;
  record.qos_class = qos_class;
  record.bandwidth_kbps = bandwidth_kbps;
  record.max_message_size = max_message_size;
  record.bucket_divisor = bucket_divisor;
  append(std::move(record));
}

void StateJournal::recordQosRelease(std::int32_t context, int world_rank) {
  JournalRecord record;
  record.op = JournalOp::kQosRelease;
  record.context = context;
  record.world_rank = world_rank;
  append(std::move(record));
}

void StateJournal::recordCrash(const std::string& detail) {
  JournalRecord record;
  record.op = JournalOp::kCrash;
  record.detail = detail;
  append(std::move(record));
}

void StateJournal::recordRestart(const std::string& detail) {
  JournalRecord record;
  record.op = JournalOp::kRestart;
  record.detail = detail;
  append(std::move(record));
}

void StateJournal::forceRetire(std::uint64_t reservation_id,
                               const std::string& reason) {
  if (!isLive(reservation_id)) return;
  JournalRecord record;
  record.op = JournalOp::kFailed;
  record.reservation_id = reservation_id;
  record.resource = live_.at(reservation_id).resource;
  record.amount = live_.at(reservation_id).amount;
  record.slot = live_.at(reservation_id).slot;
  record.detail = reason;
  append(std::move(record));
}

std::vector<StateJournal::LiveReservation> StateJournal::liveReservations()
    const {
  std::vector<LiveReservation> out;
  out.reserve(live_.size());
  for (const auto& [id, live] : live_) out.push_back(live);
  return out;  // std::map iteration: already sorted by id
}

std::vector<StateJournal::LiveIntent> StateJournal::liveIntents() const {
  std::vector<LiveIntent> out;
  out.reserve(intents_.size());
  for (const auto& [key, intent] : intents_) out.push_back(intent);
  return out;  // sorted by (context, world_rank)
}

}  // namespace mgq::resil
