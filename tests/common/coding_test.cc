#include "common/coding.h"

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/serde.h"

namespace streamsi {
namespace {

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEFu);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xDEADBEEFu);
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(DecodeFixed64(buf.data()), 0x0123456789ABCDEFull);
}

TEST(CodingTest, Varint32RoundTrip) {
  for (std::uint32_t v :
       {0u, 1u, 127u, 128u, 300u, 16384u, 0xFFFFFFFFu}) {
    std::string buf;
    PutVarint32(&buf, v);
    std::uint32_t out = 0;
    const char* p = GetVarint32(buf.data(), buf.data() + buf.size(), &out);
    ASSERT_NE(p, nullptr) << v;
    EXPECT_EQ(out, v);
    EXPECT_EQ(p, buf.data() + buf.size());
  }
}

TEST(CodingTest, Varint64RoundTrip) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, (1ull << 32),
                          0xFFFFFFFFFFFFFFFFull}) {
    std::string buf;
    PutVarint64(&buf, v);
    std::uint64_t out = 0;
    const char* p = GetVarint64(buf.data(), buf.data() + buf.size(), &out);
    ASSERT_NE(p, nullptr) << v;
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, VarintTruncatedFails) {
  std::string buf;
  PutVarint32(&buf, 300);  // 2 bytes
  std::uint32_t out = 0;
  EXPECT_EQ(GetVarint32(buf.data(), buf.data() + 1, &out), nullptr);
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  std::string_view a, b, c;
  const char* p = buf.data();
  const char* limit = p + buf.size();
  p = GetLengthPrefixed(p, limit, &a);
  ASSERT_NE(p, nullptr);
  p = GetLengthPrefixed(p, limit, &b);
  ASSERT_NE(p, nullptr);
  p = GetLengthPrefixed(p, limit, &c);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string(1000, 'x'));
  EXPECT_EQ(p, limit);
}

TEST(CodingTest, LengthPrefixedTruncatedFails) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  std::string_view out;
  EXPECT_EQ(GetLengthPrefixed(buf.data(), buf.data() + 3, &out), nullptr);
}

TEST(Crc32Test, KnownVectors) {
  // CRC-32C of "123456789" is 0xE3069283.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // The eight-bytes-per-step loop plus its byte tail must equal the plain
  // bit-at-a-time definition for every split, alignment and seed.
  const auto reference = [](const unsigned char* p, std::size_t n,
                            std::uint32_t init) {
    std::uint32_t crc = ~init;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= p[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
    }
    return ~crc;
  };
  std::string data(160, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 37 + 11);
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n + offset <= data.size(); ++n) {
      for (const std::uint32_t init : {0u, 0xDEADBEEFu}) {
        ASSERT_EQ(Crc32c(bytes + offset, n, init),
                  reference(bytes + offset, n, init))
            << "offset " << offset << " length " << n;
      }
    }
  }
}

TEST(Crc32Test, MaskRoundTrip) {
  const std::uint32_t crc = Crc32c("some data");
  EXPECT_NE(MaskCrc(crc), crc);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
}

TEST(Crc32Test, DetectsCorruption) {
  std::string data = "transactional stream processing";
  const std::uint32_t crc = Crc32c(data);
  data[5] ^= 1;
  EXPECT_NE(Crc32c(data), crc);
}

TEST(SerdeTest, TriviallyCopyableRoundTrip) {
  struct Point {
    int x;
    double y;
  };
  Point p{42, 3.5};
  std::string encoded = EncodeToString(p);
  EXPECT_EQ(encoded.size(), sizeof(Point));
  Point out{};
  ASSERT_TRUE(Serializer<Point>::Decode(encoded, &out));
  EXPECT_EQ(out.x, 42);
  EXPECT_EQ(out.y, 3.5);
}

TEST(SerdeTest, WrongSizeFails) {
  std::uint32_t out = 0;
  EXPECT_FALSE(Serializer<std::uint32_t>::Decode("abc", &out));
}

TEST(SerdeTest, StringRoundTrip) {
  std::string out;
  ASSERT_TRUE(Serializer<std::string>::Decode("raw bytes", &out));
  EXPECT_EQ(out, "raw bytes");
  EXPECT_EQ(EncodeToString(std::string("xyz")), "xyz");
}

TEST(SerdeTest, OrderPreservingKeysSortLikeNumbers) {
  const auto a = OrderPreservingKey<std::uint32_t>(1);
  const auto b = OrderPreservingKey<std::uint32_t>(255);
  const auto c = OrderPreservingKey<std::uint32_t>(256);
  const auto d = OrderPreservingKey<std::uint32_t>(0xFFFFFFFF);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  EXPECT_EQ(DecodeOrderPreservingKey<std::uint32_t>(c), 256u);
}

}  // namespace
}  // namespace streamsi
