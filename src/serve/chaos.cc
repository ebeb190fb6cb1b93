#include "src/serve/chaos.h"

#include <algorithm>
#include <string>

#include "src/common/rng.h"
#include "src/core/faults.h"

namespace pad {
namespace {

Status BadRate(const char* name, double value) {
  return Status::InvalidArgument("invalid chaos config: " + std::string(name) + " = " +
                                 std::to_string(value) + " outside [0, 1]");
}

}  // namespace

Status ValidateChaosConfig(const ChaosConfig& config) {
  const struct {
    const char* name;
    double value;
  } rates[] = {
      {"chaos_partial_write_rate", config.partial_write_rate},
      {"chaos_dribble_read_rate", config.dribble_read_rate},
      {"chaos_stall_rate", config.stall_rate},
      {"chaos_cut_rate", config.cut_rate},
      {"chaos_connect_failure_rate", config.connect_failure_rate},
  };
  for (const auto& rate : rates) {
    if (!(rate.value >= 0.0 && rate.value <= 1.0)) {
      return BadRate(rate.name, rate.value);
    }
  }
  if (!(config.stall_ms >= 0.0)) {
    return Status::InvalidArgument("invalid chaos config: chaos_stall_ms = " +
                                   std::to_string(config.stall_ms) + " must be >= 0");
  }
  return Status::Ok();
}

ChaosPlan::ChaosPlan(const ChaosConfig& config, uint64_t seed)
    : config_(config),
      // Domain-separate from FaultPlan and every other consumer of the seed.
      seed_(Mix64(seed ^ 0xc4a05c4a05ull)),
      enabled_(config.AnyEnabled()) {}

double ChaosPlan::Draw(Channel channel, int64_t connection_id, int64_t index) const {
  return DetHashUniform(seed_, static_cast<uint64_t>(channel), connection_id, index);
}

bool ChaosPlan::ConnectFails(int64_t connection_id, int64_t attempt) const {
  return enabled_ &&
         Draw(Channel::kConnect, connection_id, attempt) < config_.connect_failure_rate;
}

bool ChaosPlan::PartialWrite(int64_t connection_id, int64_t frame_index) const {
  return enabled_ &&
         Draw(Channel::kPartialWrite, connection_id, frame_index) < config_.partial_write_rate;
}

bool ChaosPlan::DribbleRead(int64_t connection_id, int64_t frame_index) const {
  return enabled_ &&
         Draw(Channel::kDribbleRead, connection_id, frame_index) < config_.dribble_read_rate;
}

bool ChaosPlan::StallRead(int64_t connection_id, int64_t frame_index) const {
  return enabled_ && Draw(Channel::kStallRead, connection_id, frame_index) < config_.stall_rate;
}

bool ChaosPlan::CutFrame(int64_t connection_id, int64_t frame_index) const {
  return enabled_ && Draw(Channel::kCut, connection_id, frame_index) < config_.cut_rate;
}

size_t ChaosPlan::SplitPoint(int64_t connection_id, int64_t frame_index,
                             size_t frame_bytes) const {
  // [1, frame_bytes - 1]: a cut or partial write always leaves a torn
  // prefix, never an untouched or complete frame (those are the rate-0 and
  // no-cut cases, already covered). The draw is the same whether the event
  // is a partial write or a cut, which keeps the split channel independent
  // of the decision channels.
  const double u = Draw(Channel::kSplit, connection_id, frame_index);
  const size_t span = frame_bytes - 1;
  const size_t offset = 1 + std::min(span - 1, static_cast<size_t>(u * static_cast<double>(span)));
  return offset;
}

}  // namespace pad
