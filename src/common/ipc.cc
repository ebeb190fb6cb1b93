#include "src/common/ipc.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/sockio.h"

namespace pad {
namespace {

Status ErrnoStatus(const char* what) {
  return Status::Unavailable(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

StatusOr<IpcSocketPair> CreateIpcSocketPair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return ErrnoStatus("socketpair");
  }
  return IpcSocketPair{fds[0], fds[1]};
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Frame I/O.

Status SendIpcFrame(int fd, uint8_t type, std::string_view payload) {
  if (payload.size() + 1 > kMaxIpcPayload) {
    return Status::InvalidArgument("ipc frame payload exceeds kMaxIpcPayload");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + 1 + payload.size());
  ByteWriter(&frame).U32(static_cast<uint32_t>(1 + payload.size())).U8(type);
  frame.append(payload);

  // SendAll (src/common/sockio.h) retries EINTR and short writes and turns a
  // dead peer into a Status the coordinator's reap path can handle, never a
  // SIGPIPE.
  return SendAll(fd, frame.data(), frame.size());
}

StatusOr<IpcMessage> RecvIpcFrame(int fd, uint32_t max_payload) {
  // A read that fails after the frame's first byte tore a frame the peer had
  // started: data loss, not the clean EOF of a peer that exited between frames.
  const auto torn = [](size_t got, size_t expected, const Status& cause) {
    return Status::DataLoss("ipc frame torn: got " + std::to_string(got) + " of " +
                            std::to_string(expected) + " bytes (" + cause.message() + ")");
  };
  char header[kFrameHeaderBytes];
  size_t got = 0;
  if (const Status status = ReadFully(fd, header, sizeof(header), &got); !status.ok()) {
    return got == 0 ? status : torn(got, sizeof(header), status);
  }
  const uint32_t length = LoadLe<uint32_t>(header);
  PAD_RETURN_IF_ERROR(CheckFrameLength(length, max_payload));
  std::string body(length, '\0');
  if (const Status status = ReadFully(fd, body.data(), body.size(), &got); !status.ok()) {
    return torn(sizeof(header) + got, sizeof(header) + length, status);
  }
  IpcMessage message;
  message.type = static_cast<uint8_t>(body[0]);
  message.payload = body.substr(1);
  return message;
}

Status IpcChannelReader::Pump(int fd) {
  PAD_RETURN_IF_ERROR(frames_.Append({}));  // Sticky poison.
  char chunk[4096];
  while (true) {
    const ssize_t n = ReadSome(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Ok();
      }
      return ErrnoStatus("ipc read");
    }
    if (n == 0) {
      return Status::Unavailable("peer closed");
    }
    PAD_RETURN_IF_ERROR(
        frames_.Append({reinterpret_cast<const uint8_t*>(chunk), static_cast<size_t>(n)}));
    if (static_cast<size_t>(n) < sizeof(chunk)) {
      return Status::Ok();  // Drained what was available.
    }
  }
}

Status IpcChannelReader::Next(IpcMessage* message, bool* have) {
  PAD_RETURN_IF_ERROR(frames_.Next(&message->payload, have));
  if (*have) {
    // The frame is [type][payload]; CheckFrameLength guarantees the type byte.
    message->type = static_cast<uint8_t>(message->payload[0]);
    message->payload.erase(0, 1);
  }
  return Status::Ok();
}

}  // namespace pad
