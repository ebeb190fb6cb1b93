// The coordinator<->worker framing layer (src/common/ipc.h): payloads packed
// with the shared ByteWriter and parsed with the strict ByteReader
// (src/common/bytes.h) round-trip bit-exactly, frames survive arbitrary
// kernel chunking, and hostile inputs (oversized lengths, trailing garbage,
// torn frames, a dead peer, any flipped bit) surface as Status — never an
// abort, never a desync.
#include "src/common/ipc.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace pad {
namespace {

TEST(IpcPackingTest, RoundTripsEveryFieldType) {
  std::string payload;
  ByteWriter(&payload)
      .U8(0xa5)
      .U32(0xdeadbeefu)
      .U64(0x0123456789abcdefull)
      .I64(-42)
      .F64(3.5)
      .F64(-0.0)
      .String("diag\0nostic")  // Truncates at NUL via string_view ctor.
      .String("");

  ByteReader parser(payload);
  EXPECT_EQ(0xa5, parser.U8());
  EXPECT_EQ(0xdeadbeefu, parser.U32());
  EXPECT_EQ(0x0123456789abcdefull, parser.U64());
  EXPECT_EQ(-42, parser.I64());
  EXPECT_EQ(3.5, parser.F64());
  const double negative_zero = parser.F64();
  EXPECT_EQ(0.0, negative_zero);
  EXPECT_TRUE(std::signbit(negative_zero)) << "doubles must round-trip bit-exactly";
  EXPECT_EQ("diag", parser.String());
  EXPECT_EQ("", parser.String());
  EXPECT_TRUE(parser.Finished());
}

TEST(IpcPackingTest, ShortPayloadFailsInsteadOfReadingGarbage) {
  std::string payload;
  ByteWriter(&payload).U32(7);
  ByteReader parser(payload);
  EXPECT_EQ(7u, parser.U32());
  EXPECT_EQ(0u, parser.U64());  // Out of bounds: zero, and ok() flips.
  EXPECT_FALSE(parser.ok());
  EXPECT_FALSE(parser.Finished());
  EXPECT_EQ(0u, parser.U8()) << "a failed reader stays failed";
}

TEST(IpcPackingTest, TrailingGarbageIsNotFinished) {
  std::string payload;
  ByteWriter(&payload).U32(7);
  payload.push_back('x');
  ByteReader parser(payload);
  EXPECT_EQ(7u, parser.U32());
  EXPECT_TRUE(parser.ok());
  EXPECT_FALSE(parser.Finished()) << "undrained bytes mean a layout mismatch";
}

TEST(IpcPackingTest, StringLengthBeyondPayloadFails) {
  std::string payload;
  ByteWriter(&payload).U32(1000);  // Claims 1000 bytes; none follow.
  ByteReader parser(payload);
  EXPECT_EQ("", parser.String());
  EXPECT_FALSE(parser.ok());
}

TEST(IpcFrameTest, SendRecvRoundTripsOverSocketpair) {
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  std::string payload;
  ByteWriter(&payload).U32(3).U64(0xfeedfacecafef00dull);
  ASSERT_TRUE(SendIpcFrame(pair->coordinator_fd, 7, payload).ok());

  StatusOr<IpcMessage> message = RecvIpcFrame(pair->worker_fd);
  ASSERT_TRUE(message.ok()) << message.status().ToString();
  EXPECT_EQ(7, message->type);
  EXPECT_EQ(payload, message->payload);

  // Empty payload is legal (frame length 1: just the type byte).
  ASSERT_TRUE(SendIpcFrame(pair->worker_fd, 9, "").ok());
  message = RecvIpcFrame(pair->coordinator_fd);
  ASSERT_TRUE(message.ok());
  EXPECT_EQ(9, message->type);
  EXPECT_TRUE(message->payload.empty());

  close(pair->coordinator_fd);
  close(pair->worker_fd);
}

TEST(IpcFrameTest, PeerCloseIsUnavailableNotSignal) {
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  close(pair->coordinator_fd);

  // Read side: EOF at a frame boundary.
  StatusOr<IpcMessage> message = RecvIpcFrame(pair->worker_fd);
  ASSERT_FALSE(message.ok());
  EXPECT_EQ(StatusCode::kUnavailable, message.status().code());

  // Write side: the peer is gone; MSG_NOSIGNAL means we get a Status, not
  // SIGPIPE terminating the test binary.
  const Status status = SendIpcFrame(pair->worker_fd, 1, "x");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(StatusCode::kUnavailable, status.code());
  close(pair->worker_fd);
}

TEST(IpcFrameTest, OversizedLengthIsDataLoss) {
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  // Hand-build a frame whose length word claims far more than max_payload.
  std::string hostile;
  ByteWriter(&hostile).U32(std::numeric_limits<uint32_t>::max());
  ASSERT_EQ(4, write(pair->coordinator_fd, hostile.data(), hostile.size()));

  StatusOr<IpcMessage> message = RecvIpcFrame(pair->worker_fd);
  ASSERT_FALSE(message.ok());
  EXPECT_EQ(StatusCode::kDataLoss, message.status().code());
  close(pair->coordinator_fd);
  close(pair->worker_fd);

  // A declared length of zero (no type byte) is equally malformed.
  pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  std::string zero;
  ByteWriter(&zero).U32(0);
  ASSERT_EQ(4, write(pair->coordinator_fd, zero.data(), zero.size()));
  message = RecvIpcFrame(pair->worker_fd);
  ASSERT_FALSE(message.ok());
  EXPECT_EQ(StatusCode::kDataLoss, message.status().code());
  close(pair->coordinator_fd);
  close(pair->worker_fd);
}

TEST(IpcChannelReaderTest, ReassemblesFramesAcrossArbitraryChunking) {
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair->coordinator_fd).ok());

  // Three frames in one buffer, dribbled into the socket one byte at a time:
  // the reader must never yield a partial or merged message.
  std::string wire;
  for (uint8_t type = 1; type <= 3; ++type) {
    std::string payload;
    ByteWriter(&payload).U32(type * 100u);
    ByteWriter(&wire).U32(static_cast<uint32_t>(1 + payload.size())).U8(type);
    wire += payload;
  }

  IpcChannelReader reader;
  std::vector<IpcMessage> received;
  for (char byte : wire) {
    ASSERT_EQ(1, write(pair->worker_fd, &byte, 1));
    ASSERT_TRUE(reader.Pump(pair->coordinator_fd).ok());
    while (true) {
      IpcMessage message;
      bool have = false;
      ASSERT_TRUE(reader.Next(&message, &have).ok());
      if (!have) {
        break;
      }
      received.push_back(message);
    }
  }
  ASSERT_EQ(3u, received.size());
  for (uint8_t type = 1; type <= 3; ++type) {
    EXPECT_EQ(type, received[type - 1].type);
    ByteReader parser(received[type - 1].payload);
    EXPECT_EQ(type * 100u, parser.U32());
    EXPECT_TRUE(parser.Finished());
  }
  close(pair->coordinator_fd);
  close(pair->worker_fd);
}

TEST(IpcChannelReaderTest, PumpReportsEofAndStillDrainsBufferedFrames) {
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair->coordinator_fd).ok());
  // A completed market's DONE must survive its sender's death: write a
  // frame, close the peer, and expect EOF from Pump with the frame intact.
  ASSERT_TRUE(SendIpcFrame(pair->worker_fd, 3, "zz").ok());
  close(pair->worker_fd);

  // A short read drains the buffered frame and returns OK; EOF surfaces on
  // the NEXT pump — exactly the coordinator's drain-then-reap ordering.
  IpcChannelReader reader;
  ASSERT_TRUE(reader.Pump(pair->coordinator_fd).ok());
  const Status eof = reader.Pump(pair->coordinator_fd);
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(StatusCode::kUnavailable, eof.code());
  IpcMessage message;
  bool have = false;
  ASSERT_TRUE(reader.Next(&message, &have).ok());
  ASSERT_TRUE(have);
  EXPECT_EQ(3, message.type);
  EXPECT_EQ("zz", message.payload);
  close(pair->coordinator_fd);
}

TEST(IpcChannelReaderTest, OversizedLengthPoisonsPermanently) {
  IpcChannelReader reader(16);
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair->coordinator_fd).ok());
  std::string hostile;
  ByteWriter(&hostile).U32(1u << 30);
  ASSERT_EQ(4, write(pair->worker_fd, hostile.data(), hostile.size()));
  ASSERT_TRUE(reader.Pump(pair->coordinator_fd).ok());

  IpcMessage message;
  bool have = false;
  Status status = reader.Next(&message, &have);
  EXPECT_EQ(StatusCode::kDataLoss, status.code());
  // Sticky: there is no resynchronizing inside a length-prefixed stream.
  status = reader.Next(&message, &have);
  EXPECT_EQ(StatusCode::kDataLoss, status.code());
  EXPECT_EQ(StatusCode::kDataLoss, reader.Pump(pair->coordinator_fd).code());
  close(pair->coordinator_fd);
  close(pair->worker_fd);
}

TEST(IpcFrameTest, TornFrameIsDataLossNotCleanClose) {
  std::string frame;
  ByteWriter(&frame).U32(9).U8(3).U64(0x1122334455667788ull);  // 13 bytes.

  // EOF after 2 of the 4 header bytes, then after the header and half the
  // body: the peer started a frame it never finished.
  for (const size_t cut : {size_t{2}, kFrameHeaderBytes + 4}) {
    StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
    ASSERT_TRUE(pair.ok());
    ASSERT_EQ(static_cast<ssize_t>(cut), write(pair->coordinator_fd, frame.data(), cut));
    close(pair->coordinator_fd);
    StatusOr<IpcMessage> message = RecvIpcFrame(pair->worker_fd);
    ASSERT_FALSE(message.ok()) << "cut=" << cut;
    EXPECT_EQ(StatusCode::kDataLoss, message.status().code()) << message.status().ToString();
    EXPECT_NE(std::string::npos,
              message.status().message().find("got " + std::to_string(cut) + " of"))
        << message.status().ToString();
    close(pair->worker_fd);
  }

  // EOF at a frame boundary is the clean close.
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_EQ(static_cast<ssize_t>(frame.size()),
            write(pair->coordinator_fd, frame.data(), frame.size()));
  close(pair->coordinator_fd);
  StatusOr<IpcMessage> message = RecvIpcFrame(pair->worker_fd);
  ASSERT_TRUE(message.ok()) << message.status().ToString();
  EXPECT_EQ(3, message->type);
  message = RecvIpcFrame(pair->worker_fd);
  ASSERT_FALSE(message.ok());
  EXPECT_EQ(StatusCode::kUnavailable, message.status().code());
  close(pair->worker_fd);
}

// Parses one message with the multi-process engine's layouts (HELLO [u32],
// ASSIGN [u32], DONE [u32][u64][f64], ERROR [u32][string]). Returns whether
// the payload matched its type's layout exactly.
bool ParseEngineMessage(const IpcMessage& message) {
  ByteReader in(message.payload);
  switch (message.type) {
    case 1:
    case 2:
      in.U32();
      break;
    case 3:
      in.U32();
      in.U64();
      in.F64();
      break;
    case 4:
      in.U32();
      in.String();
      break;
    default:
      return false;
  }
  return in.Finished();
}

// The flip-every-bit corpus over an IPC byte stream, through the path the
// coordinator's input takes (IpcChannelReader + ByteReader). Every flip must
// leave the channel in one of three states — frames popped, sticky
// kDataLoss, or a frame still pending — and never crash or read out of
// bounds (the sanitizer builds run this too).
TEST(IpcMalformedTest, EverySingleBitFlipOfAnEngineStreamIsContained) {
  std::string stream;
  const auto append = [&stream](uint8_t type, const std::string& payload) {
    ByteWriter(&stream).U32(static_cast<uint32_t>(1 + payload.size())).U8(type);
    stream += payload;
  };
  std::string payload;
  ByteWriter(&payload).U32(5);
  append(1, payload);  // HELLO from worker 5.
  payload.clear();
  ByteWriter(&payload).U32(17);
  append(2, payload);  // ASSIGN market 17.
  payload.clear();
  ByteWriter(&payload).U32(17).U64(0xfeedfacecafef00dull).F64(0.125);
  append(3, payload);  // DONE.
  payload.clear();
  ByteWriter(&payload).U32(static_cast<uint32_t>(StatusCode::kDataLoss)).String("torn");
  append(4, payload);  // ERROR.

  const auto drain = [](IpcChannelReader& reader, std::vector<IpcMessage>* out) {
    while (true) {
      IpcMessage message;
      bool have = false;
      const Status status = reader.Next(&message, &have);
      if (!status.ok()) {
        return status;
      }
      if (!have) {
        return Status::Ok();
      }
      out->push_back(message);
    }
  };

  // The unflipped stream yields all four messages, each matching its layout.
  {
    StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
    ASSERT_TRUE(pair.ok());
    ASSERT_TRUE(SetNonBlocking(pair->coordinator_fd).ok());
    ASSERT_EQ(static_cast<ssize_t>(stream.size()),
              write(pair->worker_fd, stream.data(), stream.size()));
    IpcChannelReader reader;
    ASSERT_TRUE(reader.Pump(pair->coordinator_fd).ok());
    std::vector<IpcMessage> messages;
    ASSERT_TRUE(drain(reader, &messages).ok());
    ASSERT_EQ(4u, messages.size());
    for (const IpcMessage& message : messages) {
      EXPECT_TRUE(ParseEngineMessage(message)) << static_cast<int>(message.type);
    }
    close(pair->coordinator_fd);
    close(pair->worker_fd);
  }

  for (size_t pos = 0; pos < stream.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = stream;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
      ASSERT_TRUE(pair.ok());
      ASSERT_TRUE(SetNonBlocking(pair->coordinator_fd).ok());
      ASSERT_EQ(static_cast<ssize_t>(flipped.size()),
                write(pair->worker_fd, flipped.data(), flipped.size()));
      IpcChannelReader reader;
      ASSERT_TRUE(reader.Pump(pair->coordinator_fd).ok());
      std::vector<IpcMessage> messages;
      const Status status = drain(reader, &messages);
      for (const IpcMessage& message : messages) {
        (void)ParseEngineMessage(message);  // Must not crash; may mismatch.
      }
      if (!status.ok()) {
        EXPECT_EQ(StatusCode::kDataLoss, status.code()) << "pos=" << pos << " bit=" << bit;
        // Sticky: neither popping nor pumping revives the channel.
        IpcMessage message;
        bool have = true;
        EXPECT_EQ(StatusCode::kDataLoss, reader.Next(&message, &have).code());
        EXPECT_FALSE(have);
        EXPECT_EQ(StatusCode::kDataLoss, reader.Pump(pair->coordinator_fd).code());
      } else if (messages.size() < 4) {
        // A flipped length swallowed later frames: the tail is a pending
        // partial frame, which the peer's close turns into EOF.
        close(pair->worker_fd);
        pair->worker_fd = -1;
        EXPECT_EQ(StatusCode::kUnavailable, reader.Pump(pair->coordinator_fd).code())
            << "pos=" << pos << " bit=" << bit;
      }
      close(pair->coordinator_fd);
      if (pair->worker_fd >= 0) {
        close(pair->worker_fd);
      }
    }
  }
}

}  // namespace
}  // namespace pad
