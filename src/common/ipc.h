// Length-prefixed message framing between coordinator and worker processes.
//
// The shard engine's multi-process executor (src/core/multiproc_engine.h)
// hands market ids to forked workers and collects completion notices back
// over a socketpair. Every message on such a channel is one frame:
//
//   [u32 frame_length (LE)] [u8 type] [frame_length - 1 bytes of payload]
//
// Payloads are packed with the shared ByteWriter and parsed with the strict
// ByteReader (src/common/bytes.h), the same codec as the serving wire
// protocol and the checkpoint journal. These bytes cross a process boundary,
// so a short read, a torn frame, or a hostile length word is an expected
// input, never an abort: every read path returns a pad::Status, and a frame
// length of zero or above `max_payload` is kDataLoss (CheckFrameLength) and
// poisons the stream (there is no way to resynchronize inside a
// length-prefixed stream).
//
// Two read paths, matching the two sides of the pipe:
//   * RecvIpcFrame — blocking, for a worker whose only job is to wait for
//     the next assignment;
//   * IpcChannelReader — incremental pump/next, for the coordinator's poll
//     loop over many nonblocking worker fds.
#ifndef ADPAD_SRC_COMMON_IPC_H_
#define ADPAD_SRC_COMMON_IPC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace pad {

// Frames longer than this are rejected at the length prefix, before any
// allocation. Far above any legal message (assignments and completion
// notices are tens of bytes).
inline constexpr uint32_t kMaxIpcPayload = 1u << 20;

struct IpcMessage {
  uint8_t type = 0;
  std::string payload;
};

// A connected AF_UNIX stream pair. The coordinator keeps one end per worker;
// the worker inherits the other across fork.
struct IpcSocketPair {
  int coordinator_fd = -1;
  int worker_fd = -1;
};

// socketpair(AF_UNIX, SOCK_STREAM) with CLOEXEC on both ends.
StatusOr<IpcSocketPair> CreateIpcSocketPair();

// Puts the fd into nonblocking mode (the coordinator side of a channel).
Status SetNonBlocking(int fd);

// ---------------------------------------------------------------------------
// Frame I/O.

// Writes one complete frame, retrying on EINTR and partial writes. Uses
// send(MSG_NOSIGNAL) so a peer that died mid-run surfaces as a Status
// (kUnavailable), never SIGPIPE.
Status SendIpcFrame(int fd, uint8_t type, std::string_view payload);

// Blocking receive of one complete frame. kUnavailable with message
// "peer closed" marks clean EOF at a frame boundary (the other end exited);
// any other kUnavailable is a transport error; kDataLoss is a hostile length
// word or a frame torn by EOF partway through.
StatusOr<IpcMessage> RecvIpcFrame(int fd, uint32_t max_payload = kMaxIpcPayload);

// Incremental frame assembly over a nonblocking fd for the coordinator's
// poll loop: Pump() after poll says readable, then drain Next() until it
// reports no complete message. A FrameReader does the reassembly, so a
// malformed length prefix poisons the channel permanently.
class IpcChannelReader {
 public:
  explicit IpcChannelReader(uint32_t max_payload = kMaxIpcPayload) : frames_(max_payload) {}

  // Reads whatever bytes are available. Returns kUnavailable with message
  // "peer closed" on EOF; OK on EAGAIN (nothing to read right now).
  Status Pump(int fd);

  // Pops the next complete message; *have = false when more bytes are
  // needed. Fails (and stays failed) on a malformed length prefix.
  Status Next(IpcMessage* message, bool* have);

 private:
  FrameReader frames_;
};

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_IPC_H_
