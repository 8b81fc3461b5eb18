//===- perfbench/tests/selftest.cpp - Tests of the benchmark's own code ----===//
//
// Run with `python3 perfbench/run.py --selftest` (or ctest in the build
// directory). Exits nonzero on the first failed check.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "HttpFraming.h"
#include "Schedule.h"
#include "SpanAnalysis.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

int Checks = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    ++Checks;                                                                  \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__, __LINE__,   \
                   #Cond);                                                     \
      std::exit(1);                                                            \
    }                                                                          \
  } while (0)

bool sameSchedule(const std::vector<Arrival> &A, const std::vector<Arrival> &B) {
  if (A.size() != B.size())
    return false;
  for (std::size_t I = 0; I < A.size(); ++I)
    if (A[I].AtNs != B[I].AtNs || A[I].Conn != B[I].Conn ||
        A[I].Key != B[I].Key || A[I].Miss != B[I].Miss ||
        A[I].JobType != B[I].JobType || A[I].RequestId != B[I].RequestId)
      return false;
  return true;
}

void testScheduleIsDeterministicPerSeed() {
  for (const char *Name : {"proxy-hit", "proxy-miss", "jobs-mixed"}) {
    const WorkloadSpec *W = findWorkload(Name);
    CHECK(W != nullptr);
    auto A = makeSchedule(*W, 7, 3.0), B = makeSchedule(*W, 7, 3.0);
    auto C = makeSchedule(*W, 8, 3.0);
    CHECK(sameSchedule(A, B));
    CHECK(!sameSchedule(A, C));
    double Expected = W->RatePerSec * 3.0;
    CHECK(std::fabs(static_cast<double>(A.size()) - Expected) <
          5 * std::sqrt(Expected));
    for (std::size_t I = 1; I < A.size(); ++I)
      CHECK(A[I - 1].AtNs <= A[I].AtNs);
    CHECK(A.back().AtNs < 3'000'000'000ULL);
  }
  const WorkloadSpec &Miss = *findWorkload("proxy-miss");
  auto S = makeSchedule(Miss, 3, 10.0);
  uint32_t NextMiss = 0;
  std::size_t Misses = 0;
  for (const Arrival &A : S) {
    if (A.Miss) {
      CHECK(A.Key == NextMiss++); // every miss URL is new
      ++Misses;
    } else {
      CHECK(A.Key < Miss.HotKeys);
    }
  }
  double Share = static_cast<double>(Misses) / static_cast<double>(S.size());
  CHECK(std::fabs(Share - Miss.MissShare) < 0.03);
  CHECK(objectBody(3, "h1") == objectBody(3, "h1"));
  CHECK(objectBody(3, "h1") != objectBody(4, "h1"));
  CHECK(missKey(3, 0) != missKey(4, 0));
}

void testPercentiles() {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I);
  CHECK(percentile(V, 50) == 50);
  CHECK(percentile(V, 99) == 99);
  CHECK(percentile(V, 100) == 100);
  CHECK(percentile({}, 50) == 0);
  // The highest percentile with at least ten samples beyond its rank.
  CHECK(highestSupportedPercentile(1000) == 99);
  CHECK(highestSupportedPercentile(999) == 95);
  CHECK(highestSupportedPercentile(10000) == 99.9);
  CHECK(highestSupportedPercentile(100000) == 99.99);
  CHECK(highestSupportedPercentile(20) == 50);
  CHECK(highestSupportedPercentile(19) == 0);
  CHECK(highestSupportedPercentile(0) == 0);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 2, 3}) == 2.5);
}

std::string response(const std::string &Body, const std::string &Id) {
  return "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: " +
         std::to_string(Body.size()) + "\r\nConnection: keep-alive\r\n" +
         "X-Request-Id: " + Id + "\r\n\r\n" + Body;
}

void testFramingAcrossPipelinedAndSplitReads() {
  // Two pipelined responses arriving in one read.
  ResponseReader R;
  std::string Two = response("hello", "a1") + response("world!", "b2");
  R.feed(Two.data(), Two.size());
  FramedResponse F;
  CHECK(R.next(F) == ResponseReader::Result::Complete);
  CHECK(F.Status == 200 && F.Body == "hello" && F.RequestId == "a1");
  CHECK(R.next(F) == ResponseReader::Result::Complete);
  CHECK(F.Body == "world!" && F.RequestId == "b2");
  CHECK(R.next(F) == ResponseReader::Result::NeedMore);
  CHECK(R.buffered() == 0);

  // The same stream split into single bytes: each response completes on
  // exactly its last byte.
  ResponseReader S;
  std::string First = response("hello", "a1");
  int Completed = 0;
  for (std::size_t I = 0; I < Two.size(); ++I) {
    S.feed(&Two[I], 1);
    ResponseReader::Result Res = S.next(F);
    if (Res == ResponseReader::Result::Complete) {
      ++Completed;
      CHECK(I + 1 == (Completed == 1 ? First.size() : Two.size()));
    } else {
      CHECK(Res == ResponseReader::Result::NeedMore);
    }
  }
  CHECK(Completed == 2 && F.Body == "world!");

  // A header split mid-line, then a body split across reads.
  ResponseReader P;
  std::string One = response(std::string(3000, 'x'), "c3");
  P.feed(One.data(), 20);
  CHECK(P.next(F) == ResponseReader::Result::NeedMore);
  P.feed(One.data() + 20, One.size() - 20 - 1000);
  CHECK(P.next(F) == ResponseReader::Result::NeedMore);
  P.feed(One.data() + One.size() - 1000, 1000);
  CHECK(P.next(F) == ResponseReader::Result::Complete);
  CHECK(F.Body.size() == 3000 && F.RequestId == "c3");

  ResponseReader Bad;
  std::string NoLength = "HTTP/1.1 200 OK\r\nX: y\r\n\r\nabc";
  Bad.feed(NoLength.data(), NoLength.size());
  CHECK(Bad.next(F) == ResponseReader::Result::Malformed);
  ResponseReader Garbage;
  Garbage.feed("SSH-2.0\r\n\r\n", 11);
  CHECK(Garbage.next(F) == ResponseReader::Result::Malformed);
}

void testSpanSelfTimesAndLayerSum() {
  CHECK(coveredNs(0, 100, {{10, 30}, {20, 40}, {90, 150}}) == 40);
  CHECK(coveredNs(50, 60, {{0, 100}}) == 10);
  CHECK(coveredNs(0, 100, {}) == 0);

  // One keep-alive trace: a set-up request (skipped), then one measured
  // request. Times in microseconds from the epoch.
  const char *Json = R"({"stats": {"started": 1, "finished": 1},
    "traces": [{"trace_id": "t1", "spans_dropped": 0, "spans": [
      {"span_id": "01", "parent_span_id": "", "name": "request",
       "start_micros": 0, "duration_micros": 1000},
      {"span_id": "02", "parent_span_id": "01", "name": "handler",
       "start_micros": 10, "duration_micros": 5},
      {"span_id": "03", "parent_span_id": "01", "name": "io.read",
       "start_micros": 50, "duration_micros": 60},
      {"span_id": "04", "parent_span_id": "01", "name": "handler",
       "start_micros": 120, "duration_micros": 30},
      {"span_id": "05", "parent_span_id": "04", "name": "response",
       "start_micros": 130, "duration_micros": 15},
      {"span_id": "06", "parent_span_id": "05", "name": "io.write",
       "start_micros": 131, "duration_micros": 10}]}]})";
  SpanDump D;
  std::string Err;
  CHECK(parseSpanDump(Json, 1'000'000, D, &Err));
  CHECK(D.Traces.size() == 1 && D.Traces[0].Spans.size() == 6);
  CHECK(D.Traces[0].Spans[1].StartNs == 1'010'000);

  ClientRecord C;
  C.TraceId = "t1";
  C.SchedNs = 1'090'000; // scheduled at 90 us
  C.SendNs = 1'100'000;  // sent 10 us late
  C.RecvNs = 1'170'000;  // received 20 us after the handler ended
  ProxyLayers L = analyzeProxy(D, {C}, {{"t1", 1}});
  CHECK(L.Matched == 1);
  CHECK(L.HandlerSelfUs.size() == 1 && L.HandlerSelfUs[0] == 15);
  CHECK(L.WriteUs.size() == 1 && L.WriteUs[0] == 10);
  CHECK(L.ReadUs.size() == 1 && L.ReadUs[0] == 10); // send -> read end
  // 80 us of latency: 10 late + 10 read + 30 handler + 20 residual; the
  // 10 us between the read and the handler start is unaccounted.
  CHECK(L.LatencyNs == 80'000);
  CHECK(L.UnaccountedNs == 10'000);
}

} // namespace

int main() {
  testScheduleIsDeterministicPerSeed();
  testPercentiles();
  testFramingAcrossPipelinedAndSplitReads();
  testSpanSelfTimesAndLayerSum();
  std::printf("perfbench selftest: %d checks passed\n", Checks);
  return 0;
}
