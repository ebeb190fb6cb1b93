#include "src/common/bytes.h"

#include <utility>

namespace pad {

Status CheckFrameLength(uint32_t length, size_t max_payload) {
  if (length == 0 || length > max_payload) {
    return Status::DataLoss("frame length " + std::to_string(length) + " outside (0, " +
                            std::to_string(max_payload) + "]");
  }
  return Status::Ok();
}

Status FrameReader::Append(std::span<const uint8_t> data) {
  if (!poison_.ok()) {
    return poison_;
  }
  buffer_.append(reinterpret_cast<const char*>(data.data()), data.size());
  return Status::Ok();
}

bool FrameReader::HasFrame() const {
  if (!poison_.ok()) {
    return true;
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) {
    return false;
  }
  const uint32_t length = LoadLe<uint32_t>(buffer_.data() + consumed_);
  if (!CheckFrameLength(length, max_payload_).ok()) {
    return true;  // Next() will poison and report; that counts as progress.
  }
  return available >= kFrameHeaderBytes + length;
}

Status FrameReader::Next(std::string* payload, bool* have) {
  *have = false;
  payload->clear();
  if (!poison_.ok()) {
    return poison_;
  }
  // Reclaim consumed prefix lazily, only when it dominates the buffer, so a
  // burst of pipelined frames does not memmove per frame.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) {
    return Status::Ok();
  }
  const uint32_t length = LoadLe<uint32_t>(buffer_.data() + consumed_);
  if (Status bad = CheckFrameLength(length, max_payload_); !bad.ok()) {
    poison_ = std::move(bad);
    return poison_;
  }
  if (available < kFrameHeaderBytes + length) {
    return Status::Ok();
  }
  payload->assign(buffer_, consumed_ + kFrameHeaderBytes, length);
  consumed_ += kFrameHeaderBytes + length;
  *have = true;
  return Status::Ok();
}

}  // namespace pad
