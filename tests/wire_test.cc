#include "wire/serializer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"

namespace turbdb {
namespace {

std::vector<ThresholdPoint> SortedRandomPoints(size_t count, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<ThresholdPoint> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    points.push_back(MakeThresholdPoint(
        static_cast<uint32_t>(rng.NextBounded(1 << 20)),
        static_cast<uint32_t>(rng.NextBounded(1 << 20)),
        static_cast<uint32_t>(rng.NextBounded(1 << 20)),
        static_cast<float>(rng.NextDouble(0.0, 500.0))));
  }
  std::sort(points.begin(), points.end(),
            [](const ThresholdPoint& a, const ThresholdPoint& b) {
              return a.zindex < b.zindex;
            });
  return points;
}

TEST(VarintTest, RoundTripsBoundaries) {
  std::vector<uint8_t> buffer;
  const uint64_t values[] = {0,    1,    127,        128,
                             300,  16383, 16384,     UINT64_MAX,
                             1ULL << 62, (1ULL << 63) - 1};
  for (uint64_t value : values) PutVarint64(&buffer, value);
  size_t pos = 0;
  for (uint64_t value : values) {
    auto decoded = GetVarint64(buffer, &pos);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, value);
  }
  EXPECT_EQ(pos, buffer.size());
}

TEST(VarintTest, DetectsTruncation) {
  std::vector<uint8_t> buffer;
  PutVarint64(&buffer, 1ULL << 40);
  buffer.pop_back();
  size_t pos = 0;
  EXPECT_TRUE(GetVarint64(buffer, &pos).status().IsCorruption());
}

TEST(BinaryCodecTest, RoundTripsPoints) {
  for (size_t count : {0u, 1u, 7u, 1000u}) {
    const auto points = SortedRandomPoints(count, count + 1);
    const auto bytes = EncodePointsBinary(points);
    auto decoded = DecodePointsBinary(bytes);
    ASSERT_TRUE(decoded.ok()) << "count " << count;
    ASSERT_EQ(decoded->size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ((*decoded)[i], points[i]);
    }
  }
}

TEST(BinaryCodecTest, DeltaCodingBeatsFixedWidth) {
  // Sorted z-indices delta-encode to far fewer than 12 bytes/point.
  const auto points = SortedRandomPoints(10000, 5);
  const auto bytes = EncodePointsBinary(points);
  EXPECT_LT(bytes.size(), points.size() * 12);
}

TEST(BinaryCodecTest, RejectsCorruptFrames) {
  auto bytes = EncodePointsBinary(SortedRandomPoints(10, 3));
  // Bad magic.
  auto tampered = bytes;
  tampered[0] ^= 0xFF;
  EXPECT_FALSE(DecodePointsBinary(tampered).ok());
  // Truncated payload.
  auto truncated = bytes;
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(DecodePointsBinary(truncated).ok());
  // Trailing garbage.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(DecodePointsBinary(padded).ok());
}

TEST(BinaryCodecTest, RejectsImplausiblePointCount) {
  // A tampered count field must be refused before any allocation is
  // sized from it (a huge count used to reach vector::reserve).
  std::vector<uint8_t> bytes;
  PutVarint64(&bytes, 0x54505453);  // the codec's magic
  PutVarint64(&bytes, UINT64_MAX);  // claimed count
  bytes.push_back(0);               // one stray payload byte
  auto decoded = DecodePointsBinary(bytes);
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(BinaryCodecTest, FuzzRandomMutationsNeverCrash) {
  // Fuzz-style hardening check: random single-byte mutations and random
  // truncations of valid frames, plus entirely random buffers, must
  // always produce a Status (or a benign decode) — never a crash or an
  // out-of-bounds read. Run under tools/check.sh (ASan/UBSan) for the
  // full effect.
  SplitMix64 rng(20150331);
  for (int iter = 0; iter < 200; ++iter) {
    const auto points =
        SortedRandomPoints(rng.NextBounded(200), rng.Next());
    const auto bytes = EncodePointsBinary(points);

    auto mutated = bytes;
    const size_t index = rng.NextBounded(mutated.size());
    mutated[index] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    // A flip in a norm byte is undetectable without a checksum (the
    // framed transport adds CRC32 on top), so a clean decode of mutated
    // input is legitimate; the property under test is memory safety.
    (void)DecodePointsBinary(mutated);

    auto truncated = bytes;
    truncated.resize(rng.NextBounded(truncated.size()));
    (void)DecodePointsBinary(truncated);

    std::vector<uint8_t> garbage(rng.NextBounded(64));
    for (auto& byte : garbage) {
      byte = static_cast<uint8_t>(rng.NextBounded(256));
    }
    (void)DecodePointsBinary(garbage);
  }
}

TEST(BinaryCodecTest, FuzzRandomizedRoundTrip) {
  // Randomized round-trip: decode(encode(x)) == x for arbitrary sorted
  // point sets, including adversarial shapes (duplicate z-indices,
  // extreme norms).
  SplitMix64 rng(907);
  for (int iter = 0; iter < 100; ++iter) {
    auto points = SortedRandomPoints(rng.NextBounded(500), rng.Next());
    if (!points.empty() && iter % 3 == 0) {
      points.push_back(points.back());  // duplicate z-index
      points.back().norm = -0.0f;
    }
    const auto bytes = EncodePointsBinary(points);
    auto decoded = DecodePointsBinary(bytes);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ((*decoded)[i], points[i]);
    }
  }
}

TEST(XmlCodecTest, RoundTripsPoints) {
  const auto points = SortedRandomPoints(50, 9);
  const std::string xml = EncodePointsXml(points);
  auto decoded = DecodePointsXml(xml);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ((*decoded)[i].zindex, points[i].zindex);
    EXPECT_FLOAT_EQ((*decoded)[i].norm, points[i].norm);
  }
}

TEST(XmlCodecTest, EmptyResult) {
  const std::string xml = EncodePointsXml({});
  EXPECT_NE(xml.find("count=\"0\""), std::string::npos);
  auto decoded = DecodePointsXml(xml);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(XmlCodecTest, XmlInflationIsSubstantial) {
  // The paper's point: SOAP/XML wrapping inflates transfers severalfold.
  const auto points = SortedRandomPoints(5000, 11);
  const auto binary = EncodePointsBinary(points);
  const std::string xml = EncodePointsXml(points);
  EXPECT_GT(xml.size(), 5 * binary.size());
}

// -- Closed-form sizes: the reply path charges these, so they must equal
// the rendered encodings exactly, on every input.

void ExpectSizesMatchEncoders(const std::vector<ThresholdPoint>& points) {
  EXPECT_EQ(PointsBinarySize(points), EncodePointsBinary(points).size())
      << points.size() << " points";
  EXPECT_EQ(PointsXmlSize(points), EncodePointsXml(points).size())
      << points.size() << " points";
}

TEST(PointsSizeTest, MatchesEncodersOnRandomSets) {
  SplitMix64 rng(1215);
  for (size_t count : {0u, 1u, 9u, 10u, 11u, 99u, 100u, 101u, 999u, 1000u,
                       1001u, 5000u}) {
    auto points = SortedRandomPoints(count, rng.Next());
    ExpectSizesMatchEncoders(points);
    // Norms spread over many decades, both signs.
    for (ThresholdPoint& point : points) {
      const double magnitude = std::pow(10.0, rng.NextDouble(-12.0, 14.0));
      point.norm = static_cast<float>(rng.NextBounded(4) == 0 ? -magnitude
                                                              : magnitude);
    }
    ExpectSizesMatchEncoders(points);
    // Norm-sorted, as top-k replies are: z-index deltas wrap mod 2^64.
    std::sort(points.begin(), points.end(),
              [](const ThresholdPoint& a, const ThresholdPoint& b) {
                return a.norm > b.norm;
              });
    ExpectSizesMatchEncoders(points);
  }
}

TEST(PointsSizeTest, MatchesEncodersOnEdgeValues) {
  std::vector<float> norms = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::nextafter(std::numeric_limits<float>::min(), 0.0f),
      std::numeric_limits<float>::min(),
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      0.5f,
      1.5f,
      123.456f,
  };
  // Around each power of ten from 1e-5 to 1e10, where %g switches
  // between fixed and exponent notation or rounding carries a digit.
  for (int exponent = -5; exponent <= 10; ++exponent) {
    float below = static_cast<float>(std::pow(10.0, exponent));
    float above = below;
    for (int step = 0; step < 4; ++step) {
      norms.push_back(below);
      norms.push_back(-above);
      norms.push_back(above);
      below = std::nextafter(below, 0.0f);
      above = std::nextafter(above, std::numeric_limits<float>::infinity());
    }
  }
  // Coordinates at every digit-count boundary.
  const uint32_t coords[] = {0, 9, 10, 99, 100, 999, 1000, 2097151};
  std::vector<ThresholdPoint> points;
  for (size_t i = 0; i < norms.size(); ++i) {
    const uint32_t x = coords[i % 8];
    const uint32_t y = coords[(i / 8) % 8];
    const uint32_t z = coords[(i + 3) % 8];
    points.push_back(MakeThresholdPoint(x, y, z, norms[i]));
    ExpectSizesMatchEncoders({points.back()});
  }
  ExpectSizesMatchEncoders({});
  ExpectSizesMatchEncoders(points);
}

TEST(PointsSizeTest, AppendAndRangeDecodeMatchTheVectorCodec) {
  const auto points = SortedRandomPoints(300, 77);
  const std::vector<uint8_t> encoded = EncodePointsBinary(points);
  std::vector<uint8_t> buffer = {0xAA, 0xBB};
  AppendPointsBinary(points, &buffer);
  buffer.push_back(0xCC);
  ASSERT_EQ(buffer.size(), 3 + encoded.size());
  EXPECT_TRUE(std::equal(encoded.begin(), encoded.end(), buffer.begin() + 2));
  auto decoded = DecodePointsBinary(buffer.data() + 2, encoded.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, points);
  // The range ends where the blob does: one byte short is a truncated
  // norm, even though the buffer goes on.
  EXPECT_TRUE(DecodePointsBinary(buffer.data() + 2, encoded.size() - 1)
                  .status()
                  .IsCorruption());
}

TEST(XmlCodecTest, MalformedDocumentsFail) {
  EXPECT_TRUE(
      DecodePointsXml("<Point><X>1</X>").status().IsCorruption());
  EXPECT_TRUE(DecodePointsXml("<Point><X>1</X><Y>2</Y></Point>")
                  .status()
                  .IsCorruption());
}

}  // namespace
}  // namespace turbdb
