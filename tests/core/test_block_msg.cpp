// The shared data-source -> renderer block message (the pipeline's input
// ranks and the in-situ solver root both send it): roundtrip with and
// without RLE, the skip marker, and rejection of short buffers, payload
// corruption, and a message built for a different block.
#include "core/block_msg.hpp"

#include <gtest/gtest.h>

namespace qv::core {
namespace {

// Quantized values with long zero runs (quiet ground), so RLE pays off.
std::vector<std::uint8_t> test_values(std::size_t n) {
  std::vector<std::uint8_t> v(n, 0);
  for (std::size_t i = n / 2; i < n; ++i) v[i] = std::uint8_t(i * 7);
  return v;
}

TEST(BlockMsg, RoundtripRawAndCompressed) {
  const auto values = test_values(300);
  for (bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "rle" : "raw");
    std::uint64_t raw = 0, sent = 0;
    auto msg = make_block_msg(5, 17, -1.0f, 3.0f, values, compress, &raw,
                              &sent);
    auto hdr = read_header(msg);
    ASSERT_TRUE(hdr.has_value());
    EXPECT_EQ(hdr->step, 5);
    EXPECT_EQ(hdr->block, 17);
    EXPECT_EQ(hdr->count, values.size());
    EXPECT_EQ(hdr->compressed, compress ? 1 : 0);
    EXPECT_EQ(hdr->flags, 0);
    EXPECT_EQ(raw, values.size());
    EXPECT_EQ(sent, msg.size() - sizeof(BlockMsgHeader));
    if (compress) {
      EXPECT_LT(sent, raw);
    }
    ASSERT_TRUE(payload_ok(*hdr, msg));

    std::vector<std::uint8_t> scratch;
    std::vector<float> dst(values.size());
    unpack_block(*hdr, msg, scratch, dst);
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(dst[i], -1.0f + (4.0f / 255.0f) * float(values[i]))
          << "value " << i;
    }
  }
}

TEST(BlockMsg, SkipMarkerIsHeaderOnly) {
  auto msg = make_skip_block_msg(9, 4);
  ASSERT_EQ(msg.size(), sizeof(BlockMsgHeader));
  auto hdr = read_header(msg);
  ASSERT_TRUE(hdr.has_value());
  EXPECT_EQ(hdr->step, 9);
  EXPECT_EQ(hdr->block, 4);
  EXPECT_TRUE(hdr->flags & kFlagStepSkipped);
  EXPECT_EQ(hdr->count, 0u);
  EXPECT_EQ(read_header(make_skip_block_msg(2))->block, -1);
}

TEST(BlockMsg, ShortBufferRejected) {
  auto msg = make_block_msg(0, 1, 0.0f, 1.0f, test_values(8), false, nullptr,
                            nullptr);
  for (std::size_t cut : {std::size_t(0), std::size_t(8),
                          sizeof(BlockMsgHeader) - 1}) {
    EXPECT_FALSE(read_header({msg.data(), cut}).has_value())
        << "cut " << cut;
  }
  // A whole header with the payload cut off fails the framing check.
  auto hdr = read_header(msg);
  ASSERT_TRUE(hdr.has_value());
  EXPECT_FALSE(payload_ok(*hdr, {msg.data(), msg.size() - 1}));
}

TEST(BlockMsg, FlippedPayloadBitFailsCrc) {
  for (bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "rle" : "raw");
    auto msg = make_block_msg(0, 1, 0.0f, 1.0f, test_values(64), compress,
                              nullptr, nullptr);
    auto hdr = read_header(msg);
    ASSERT_TRUE(hdr.has_value());
    for (std::size_t pos = sizeof(BlockMsgHeader); pos < msg.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        msg[pos] ^= std::uint8_t(1u << bit);
        EXPECT_FALSE(payload_ok(*hdr, msg)) << "byte " << pos << " bit " << bit;
        msg[pos] ^= std::uint8_t(1u << bit);
      }
    }
    EXPECT_TRUE(payload_ok(*hdr, msg));
  }
}

TEST(BlockMsg, CountMismatchWithReceivingBlockThrows) {
  const auto values = test_values(40);
  auto msg = make_block_msg(0, 1, 0.0f, 1.0f, values, false, nullptr, nullptr);
  auto hdr = read_header(msg);
  ASSERT_TRUE(hdr.has_value());
  std::vector<std::uint8_t> scratch;
  for (std::size_t n : {values.size() - 1, values.size() + 1}) {
    std::vector<float> dst(n);
    EXPECT_THROW(unpack_block(*hdr, msg, scratch, dst), std::runtime_error)
        << "receiving block of " << n;
  }
}

}  // namespace
}  // namespace qv::core
