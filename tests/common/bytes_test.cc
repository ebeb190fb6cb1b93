// The shared byte codec (src/common/bytes.h). The wire protocol, the IPC
// channel and the checkpoint journal all encode through it, so its byte
// layout is pinned here against hand-written expected bytes: a change to it
// would silently change every format at once.
#include "src/common/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace pad {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(ByteCodecTest, WriterLayoutIsLittleEndianAndPinned) {
  std::string out;
  ByteWriter(&out)
      .U8(0xab)
      .U32(0x01020304u)
      .U64(0x1122334455667788ull)
      .I64(-2)
      .F64(1.0)
      .String("hi");
  const std::string expected(
      "\xab"
      "\x04\x03\x02\x01"
      "\x88\x77\x66\x55\x44\x33\x22\x11"
      "\xfe\xff\xff\xff\xff\xff\xff\xff"
      "\x00\x00\x00\x00\x00\x00\xf0\x3f"  // IEEE-754 bits of 1.0.
      "\x02\x00\x00\x00"
      "hi",
      1 + 4 + 8 + 8 + 8 + 4 + 2);
  EXPECT_EQ(expected, out);
}

TEST(ByteCodecTest, ReaderInvertsWriterAtTheExtremes) {
  std::string out;
  ByteWriter(&out)
      .U32(std::numeric_limits<uint32_t>::max())
      .U64(std::numeric_limits<uint64_t>::max())
      .I64(std::numeric_limits<int64_t>::min())
      .F64(std::numeric_limits<double>::denorm_min())
      .F64(-std::numeric_limits<double>::infinity());
  ByteReader in(out);
  EXPECT_EQ(std::numeric_limits<uint32_t>::max(), in.U32());
  EXPECT_EQ(std::numeric_limits<uint64_t>::max(), in.U64());
  EXPECT_EQ(std::numeric_limits<int64_t>::min(), in.I64());
  EXPECT_EQ(std::numeric_limits<double>::denorm_min(), in.F64());
  EXPECT_EQ(-std::numeric_limits<double>::infinity(), in.F64());
  EXPECT_TRUE(in.Finished());
  EXPECT_EQ(0x04030201u, LoadLe<uint32_t>("\x01\x02\x03\x04"));
}

TEST(ByteCodecTest, EmptyInputIsFinishedUntilARead) {
  ByteReader in(std::string_view{});
  EXPECT_TRUE(in.Finished());
  EXPECT_EQ(0u, in.U8());
  EXPECT_FALSE(in.ok());
  EXPECT_FALSE(in.Finished());
}

TEST(Fnv1aTest, MatchesPublishedVectors) {
  // Reference values of 64-bit FNV-1a.
  EXPECT_EQ(0xcbf29ce484222325ull, Fnv1a().value());
  EXPECT_EQ(0xaf63dc4c8601ec8cull, Fnv1a().MixBytes("a").value());
  EXPECT_EQ(0x85944171f73967e8ull, Fnv1a().MixBytes("foobar").value());
}

TEST(Fnv1aTest, FieldMixesHashTheirLittleEndianBytes) {
  std::string bytes;
  ByteWriter(&bytes).U64(0x0102030405060708ull).F64(-0.5).I64(-7);
  Fnv1a fields;
  fields.MixU64(0x0102030405060708ull).MixF64(-0.5).Mix(-7);
  EXPECT_EQ(Fnv1a().MixBytes(bytes).value(), fields.value());
  // Mix widens every integer type the same way, so 7 hashes alike whatever
  // its declared type; bools are 0/1.
  EXPECT_EQ(Fnv1a().Mix(int64_t{7}).value(), Fnv1a().Mix(7).value());
  EXPECT_EQ(Fnv1a().Mix(int64_t{7}).value(), Fnv1a().Mix(uint64_t{7}).value());
  EXPECT_EQ(Fnv1a().Mix(int64_t{1}).value(), Fnv1a().Mix(true).value());
  EXPECT_EQ(Fnv1a().MixF64(2.5).value(), Fnv1a().Mix(2.5).value());
}

TEST(FrameReaderTest, ZeroLengthFramePoisonsWithDataLoss) {
  FrameReader reader;
  std::string stream;
  ByteWriter(&stream).U32(0).U32(1).U8('x');
  ASSERT_TRUE(reader.Append(Bytes(stream)).ok());
  EXPECT_TRUE(reader.HasFrame()) << "a doomed prefix counts as progress";
  std::string payload;
  bool have = true;
  EXPECT_EQ(StatusCode::kDataLoss, reader.Next(&payload, &have).code());
  EXPECT_FALSE(have);
  // Sticky, even though a well-formed frame follows.
  EXPECT_EQ(StatusCode::kDataLoss, reader.Next(&payload, &have).code());
  EXPECT_EQ(StatusCode::kDataLoss, reader.Append(Bytes(stream)).code());
}

TEST(FrameReaderTest, OversizedLengthIsDataLossAndPendingBytesCount) {
  FrameReader reader(16);
  std::string stream;
  ByteWriter(&stream).U32(16).U64(1);  // Half of a legal 16-byte frame.
  ASSERT_TRUE(reader.Append(Bytes(stream)).ok());
  EXPECT_EQ(12u, reader.pending_bytes());
  EXPECT_FALSE(reader.HasFrame());
  std::string payload;
  bool have = true;
  ASSERT_TRUE(reader.Next(&payload, &have).ok());
  EXPECT_FALSE(have);

  FrameReader strict(16);
  std::string hostile;
  ByteWriter(&hostile).U32(17);
  ASSERT_TRUE(strict.Append(Bytes(hostile)).ok());
  EXPECT_EQ(StatusCode::kDataLoss, strict.Next(&payload, &have).code());
}

TEST(FrameReaderTest, CheckFrameLengthBoundsAreZeroExclusiveMaxInclusive) {
  EXPECT_EQ(StatusCode::kDataLoss, CheckFrameLength(0, 8).code());
  EXPECT_TRUE(CheckFrameLength(1, 8).ok());
  EXPECT_TRUE(CheckFrameLength(8, 8).ok());
  EXPECT_EQ(StatusCode::kDataLoss, CheckFrameLength(9, 8).code());
  EXPECT_EQ(StatusCode::kDataLoss,
            CheckFrameLength(std::numeric_limits<uint32_t>::max(), kMaxFramePayload).code());
}

}  // namespace
}  // namespace pad
