//===- perfbench/src/HttpFraming.h - Client-side response framing -*- C++ -*-===//
//
// Splits the byte stream of one client connection into HTTP/1.1 responses
// framed by Content-Length, however the bytes arrive: several pipelined
// responses in one read, or one response split over many reads.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HTTPFRAMING_H
#define PERFBENCH_HTTPFRAMING_H

#include <cstddef>
#include <string>

namespace perfbench {

struct FramedResponse {
  int Status = 0;
  std::string RequestId; ///< X-Request-Id header, verbatim
  std::string Body;
};

class ResponseReader {
public:
  enum class Result { Complete, NeedMore, Malformed };

  void feed(const char *Data, std::size_t Len);

  /// Extracts the next complete response into \p Out.
  Result next(FramedResponse &Out);

  /// Bytes received but not yet consumed by next().
  std::size_t buffered() const { return Buf.size() - Pos; }

private:
  std::string Buf;
  std::size_t Pos = 0;
};

} // namespace perfbench

#endif // PERFBENCH_HTTPFRAMING_H
