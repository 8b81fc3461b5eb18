//===- perfbench/src/SpanAnalysis.h - Per-layer times from /spans.json -*- C++ -*-===//
//
// Reads the proxy's exported request traces (/spans.json) and joins them
// with what the client saw, request by request. Each request's latency is
// split into what the client measured and what the spans cover:
//
//   generator lateness   scheduled send time -> actual send (client clock)
//   span coverage        send -> the reply's io.write completes: the time
//                        some span of the request's connection (accept,
//                        admission, io.*, handler, response; not the root)
//                        was open
//   client residual      reply write completed -> full reply at the client
//
// The rest is the unaccounted share: time no layer's span explains, such
// as a connection waiting for accept or a task waiting for a worker. Client
// times and span times share one clock (repro::nowNanos).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANANALYSIS_H
#define PERFBENCH_SPANANALYSIS_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRec {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for the root
  std::string Name;
  uint64_t StartNs = 0; ///< absolute, nowNs() time base
  uint64_t EndNs = 0;
};

struct TraceRec {
  std::string TraceId; ///< 32 hex digits, as exported
  uint64_t SpansDropped = 0;
  std::vector<SpanRec> Spans; ///< Spans[0] is the root span
};

struct SpanDump {
  std::vector<TraceRec> Traces;
  uint64_t Started = 0;
  uint64_t Finished = 0;
  uint64_t RetainedDropped = 0;
  uint64_t ActiveOverflow = 0;
};

/// Parses a /spans.json body; span times become absolute by adding
/// \p EpochNs. False (with \p Error) on malformed input.
bool parseSpanDump(std::string_view Json, uint64_t EpochNs, SpanDump &Out,
                   std::string *Error);

/// Nanoseconds of [Begin, End) covered by the union of \p Intervals.
uint64_t coveredNs(uint64_t Begin, uint64_t End,
                   std::vector<std::pair<uint64_t, uint64_t>> Intervals);

/// What the client recorded for one request.
struct ClientRecord {
  std::string TraceId; ///< the trace id it sent in `traceparent`
  uint64_t SchedNs = 0;
  uint64_t SendNs = 0;
  uint64_t RecvNs = 0;
  bool Miss = false;
};

/// Per-layer samples (microseconds) of the requests matched to spans.
struct ProxyLayers {
  std::vector<double> HandlerSelfUs;
  std::vector<double> AcceptToHandlerUs;
  std::vector<double> AdmissionUs;
  std::vector<double> ReadUs;    ///< client-socket reads
  std::vector<double> WriteUs;   ///< every io.write under a handler
  std::vector<double> ConnectUs; ///< origin connects
  std::vector<double> OriginServiceUs; ///< origin request out -> EOF
  std::vector<double> CoveredUs;  ///< span coverage of each request
  std::vector<double> ResidualUs; ///< client residual of each request
  uint64_t OriginBusyNs = 0; ///< union of origin legs (connect -> EOF)
  std::size_t Requests = 0;
  std::size_t Matched = 0;
  double LatencyNs = 0;     ///< sum over matched requests
  double UnaccountedNs = 0; ///< sum over matched requests
  uint64_t SpansDropped = 0;
};

/// Joins \p Records (in send order) with \p Dump. Requests of one trace
/// map to its "handler" spans in start order, after skipping the first
/// \p SkipHandlers[trace id] of them (requests sent during set-up).
ProxyLayers analyzeProxy(const SpanDump &Dump,
                         const std::vector<ClientRecord> &Records,
                         const std::map<std::string, std::size_t> &SkipHandlers);

} // namespace perfbench

#endif // PERFBENCH_SPANANALYSIS_H
