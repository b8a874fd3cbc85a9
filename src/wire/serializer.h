#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "array/point.h"
#include "common/result.h"

namespace turbdb {

/// Result serialization for the two transports in the deployment:
///
///  - node -> mediator uses a compact binary frame (sorted z-indices are
///    delta + varint encoded, norms are raw IEEE floats);
///  - mediator -> user goes through the SOAP web service, which wraps
///    values in XML. The paper observes this inflates transfers several
///    times ("a Web-service request will be much larger due to the
///    overhead of wrapping the data in an xml format", Sec. 5.3). The
///    network cost model charges PointsXmlSize, the exact size of the
///    document EncodePointsXml renders (tests pin the two together), so
///    the reply path never renders XML just to measure it.
///
/// Points must be sorted by zindex for binary encoding (they are produced
/// that way by the query engine).
std::vector<uint8_t> EncodePointsBinary(
    const std::vector<ThresholdPoint>& points);

/// Appends EncodePointsBinary(points) to *out, without a temporary.
void AppendPointsBinary(const std::vector<ThresholdPoint>& points,
                        std::vector<uint8_t>* out);

/// EncodePointsBinary(points).size(), without encoding.
size_t PointsBinarySize(const std::vector<ThresholdPoint>& points);

Result<std::vector<ThresholdPoint>> DecodePointsBinary(
    const std::vector<uint8_t>& bytes);

/// Decodes an EncodePointsBinary blob held in [data, data + size); no read
/// goes past its end.
Result<std::vector<ThresholdPoint>> DecodePointsBinary(const uint8_t* data,
                                                       size_t size);

/// XML encoding of a result set (element per point), as the SOAP layer
/// would emit. The reference renderer: the system itself only needs
/// PointsXmlSize.
std::string EncodePointsXml(const std::vector<ThresholdPoint>& points);

/// EncodePointsXml(points).size(), without rendering.
size_t PointsXmlSize(const std::vector<ThresholdPoint>& points);

Result<std::vector<ThresholdPoint>> DecodePointsXml(const std::string& xml);

/// Unsigned LEB128 varint primitives (exposed for tests).
void PutVarint64(std::vector<uint8_t>* out, uint64_t value);
Result<uint64_t> GetVarint64(const std::vector<uint8_t>& bytes, size_t* pos);

}  // namespace turbdb
