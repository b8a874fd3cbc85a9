#include "wire/serializer.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace turbdb {

namespace {

constexpr uint32_t kBinaryMagic = 0x54505453;  // 'STPT'

// The XML document, piece by piece. PointsXmlSize counts the same pieces.
constexpr char kXmlHead[] =
    "<?xml version=\"1.0\"?>\n<ThresholdResult count=\"";
constexpr char kXmlHeadEnd[] = "\">\n";
constexpr char kXmlPoint[] =
    "  <Point><X>%u</X><Y>%u</Y><Z>%u</Z><Value>%.9g</Value></Point>\n";
constexpr char kXmlTail[] = "</ThresholdResult>\n";
// kXmlPoint without its three "%u" and one "%.9g".
constexpr size_t kXmlPointFixedBytes = sizeof(kXmlPoint) - 1 - 3 * 2 - 4;

size_t VarintLength(uint64_t value) {
  return static_cast<size_t>(std::bit_width(value | 1) + 6) / 7;
}

uint8_t* WriteVarint(uint8_t* out, uint64_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<uint8_t>(value) | 0x80;
    value >>= 7;
  }
  *out++ = static_cast<uint8_t>(value);
  return out;
}

Result<uint64_t> ReadVarint(const uint8_t* data, size_t size, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  while (*pos < size) {
    const uint8_t byte = data[(*pos)++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7F) > 1)) {
      return Status::Corruption("varint overflow");
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return Status::Corruption("truncated varint");
}

size_t DecimalDigits(uint64_t value) {
  size_t digits = 1;
  while (value >= 10) {
    value /= 10;
    ++digits;
  }
  return digits;
}

/// Length of printf("%.9g", norm), the <Value> text of EncodePointsXml.
size_t FormattedNormLength(float norm) {
  static constexpr double kPow10[] = {1e0, 1e1, 1e2,  1e3,  1e4,  1e5, 1e6,
                                      1e7, 1e8, 1e9, 1e10, 1e11, 1e12};
  const double value = norm;
  const double magnitude = std::fabs(value);
  if (magnitude >= 1e-4 && magnitude < 1e9) {
    // Here %.9g prints fixed notation with 8 - X decimals, X being the
    // decimal exponent of the value rounded to 9 significant digits.
    // Scale by the smallest 10^k, k <= 12, that lifts the value into
    // [1e8, 1e9): a float times 10^k is exact in a double (24 + 28
    // significant bits), so nearbyint rounds the true value, ties to
    // even, as printf does.
    size_t decimals = 0;
    double scaled = magnitude;
    while (scaled < 1e8 && decimals < 12) {
      scaled = magnitude * kPow10[++decimals];
    }
    auto digits = static_cast<uint64_t>(std::nearbyint(scaled));
    if (digits == 1000000000 && decimals > 0) {
      // Rounding carried into the next decade: one decimal fewer.
      digits = 100000000;
      --decimals;
    }
    if (scaled >= 1e8 && digits < 1000000000) {
      const size_t integer = decimals <= 8 ? 9 - decimals : 1;
      // %g drops trailing fractional zeros, and the point with them.
      while (decimals > 0 && digits % 10 == 0) {
        digits /= 10;
        --decimals;
      }
      const size_t sign = value < 0 ? 1 : 0;
      return sign + integer + (decimals > 0 ? 1 + decimals : 0);
    }
  }
  // Zero, denormals, the extremes, NaN and infinities: std::to_chars is
  // specified as printf's output.
  char buffer[32];
  const std::to_chars_result printed =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, 9);
  return static_cast<size_t>(printed.ptr - buffer);
}

}  // namespace

void PutVarint64(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

Result<uint64_t> GetVarint64(const std::vector<uint8_t>& bytes, size_t* pos) {
  return ReadVarint(bytes.data(), bytes.size(), pos);
}

size_t PointsBinarySize(const std::vector<ThresholdPoint>& points) {
  size_t size = VarintLength(kBinaryMagic) + VarintLength(points.size()) +
                4 * points.size();
  uint64_t prev = 0;
  for (const ThresholdPoint& point : points) {
    size += VarintLength(point.zindex - prev);
    prev = point.zindex;
  }
  return size;
}

void AppendPointsBinary(const std::vector<ThresholdPoint>& points,
                        std::vector<uint8_t>* out) {
  const size_t start = out->size();
  out->resize(start + PointsBinarySize(points));
  uint8_t* cursor = out->data() + start;
  cursor = WriteVarint(cursor, kBinaryMagic);
  cursor = WriteVarint(cursor, points.size());
  uint64_t prev = 0;
  for (const ThresholdPoint& point : points) {
    // Sorted input makes the deltas small; first delta is the absolute.
    cursor = WriteVarint(cursor, point.zindex - prev);
    prev = point.zindex;
    uint32_t bits;
    static_assert(sizeof(bits) == sizeof(point.norm));
    std::memcpy(&bits, &point.norm, sizeof(bits));
    cursor[0] = static_cast<uint8_t>(bits);
    cursor[1] = static_cast<uint8_t>(bits >> 8);
    cursor[2] = static_cast<uint8_t>(bits >> 16);
    cursor[3] = static_cast<uint8_t>(bits >> 24);
    cursor += 4;
  }
}

std::vector<uint8_t> EncodePointsBinary(
    const std::vector<ThresholdPoint>& points) {
  std::vector<uint8_t> out;
  AppendPointsBinary(points, &out);
  return out;
}

Result<std::vector<ThresholdPoint>> DecodePointsBinary(
    const std::vector<uint8_t>& bytes) {
  return DecodePointsBinary(bytes.data(), bytes.size());
}

Result<std::vector<ThresholdPoint>> DecodePointsBinary(const uint8_t* data,
                                                       size_t size) {
  size_t pos = 0;
  TURBDB_ASSIGN_OR_RETURN(uint64_t magic, ReadVarint(data, size, &pos));
  if (magic != kBinaryMagic) return Status::Corruption("bad frame magic");
  TURBDB_ASSIGN_OR_RETURN(uint64_t count, ReadVarint(data, size, &pos));
  // Every encoded point occupies at least 5 bytes (1-byte delta varint +
  // 4-byte norm), so a count the remaining payload cannot possibly hold
  // is corruption — reject it *before* reserving, or a tampered count
  // becomes a multi-gigabyte allocation.
  if (count > (size - pos) / 5) {
    return Status::Corruption("implausible point count");
  }
  std::vector<ThresholdPoint> points;
  points.reserve(count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    TURBDB_ASSIGN_OR_RETURN(uint64_t delta, ReadVarint(data, size, &pos));
    prev += delta;
    if (size - pos < 4) return Status::Corruption("truncated norm");
    uint32_t bits = static_cast<uint32_t>(data[pos]) |
                    (static_cast<uint32_t>(data[pos + 1]) << 8) |
                    (static_cast<uint32_t>(data[pos + 2]) << 16) |
                    (static_cast<uint32_t>(data[pos + 3]) << 24);
    pos += 4;
    float norm;
    std::memcpy(&norm, &bits, sizeof(norm));
    points.push_back(ThresholdPoint{prev, norm});
  }
  if (pos != size) return Status::Corruption("trailing bytes");
  return points;
}

std::string EncodePointsXml(const std::vector<ThresholdPoint>& points) {
  std::string out;
  out.reserve(64 + points.size() * 96);
  out += kXmlHead;
  out += std::to_string(points.size());
  out += kXmlHeadEnd;
  char buf[128];
  for (const ThresholdPoint& point : points) {
    uint32_t x, y, z;
    point.Coords(&x, &y, &z);
    std::snprintf(buf, sizeof(buf), kXmlPoint, x, y, z, point.norm);
    out += buf;
  }
  out += kXmlTail;
  return out;
}

size_t PointsXmlSize(const std::vector<ThresholdPoint>& points) {
  size_t size = sizeof(kXmlHead) - 1 + DecimalDigits(points.size()) +
                sizeof(kXmlHeadEnd) - 1 + sizeof(kXmlTail) - 1 +
                kXmlPointFixedBytes * points.size();
  for (const ThresholdPoint& point : points) {
    uint32_t x, y, z;
    point.Coords(&x, &y, &z);
    size += DecimalDigits(x) + DecimalDigits(y) + DecimalDigits(z) +
            FormattedNormLength(point.norm);
  }
  return size;
}

namespace {

/// Extracts the text between `<tag>` and `</tag>` starting at *pos;
/// advances *pos past the close tag.
Result<std::string> TakeElement(const std::string& xml, const char* tag,
                                size_t* pos) {
  const std::string open = std::string("<") + tag + ">";
  const std::string close = std::string("</") + tag + ">";
  const size_t start = xml.find(open, *pos);
  if (start == std::string::npos) {
    return Status::Corruption(std::string("missing element ") + tag);
  }
  const size_t value_start = start + open.size();
  const size_t end = xml.find(close, value_start);
  if (end == std::string::npos) {
    return Status::Corruption(std::string("unterminated element ") + tag);
  }
  *pos = end + close.size();
  return xml.substr(value_start, end - value_start);
}

}  // namespace

Result<std::vector<ThresholdPoint>> DecodePointsXml(const std::string& xml) {
  std::vector<ThresholdPoint> points;
  size_t pos = 0;
  while (true) {
    const size_t next = xml.find("<Point>", pos);
    if (next == std::string::npos) break;
    pos = next;
    TURBDB_ASSIGN_OR_RETURN(std::string x_str, TakeElement(xml, "X", &pos));
    TURBDB_ASSIGN_OR_RETURN(std::string y_str, TakeElement(xml, "Y", &pos));
    TURBDB_ASSIGN_OR_RETURN(std::string z_str, TakeElement(xml, "Z", &pos));
    TURBDB_ASSIGN_OR_RETURN(std::string v_str,
                            TakeElement(xml, "Value", &pos));
    char* end = nullptr;
    const unsigned long x = std::strtoul(x_str.c_str(), &end, 10);
    const unsigned long y = std::strtoul(y_str.c_str(), &end, 10);
    const unsigned long z = std::strtoul(z_str.c_str(), &end, 10);
    const float value = std::strtof(v_str.c_str(), &end);
    points.push_back(MakeThresholdPoint(static_cast<uint32_t>(x),
                                        static_cast<uint32_t>(y),
                                        static_cast<uint32_t>(z), value));
  }
  return points;
}

}  // namespace turbdb
