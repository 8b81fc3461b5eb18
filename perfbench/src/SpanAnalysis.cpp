//===- perfbench/src/SpanAnalysis.cpp - Per-layer times from /spans.json ---===//

#include "SpanAnalysis.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace perfbench {

namespace {

using repro::json::Value;

uint64_t hexId(const Value *V) {
  if (!V || !V->isString() || V->asString().empty())
    return 0;
  return std::strtoull(V->asString().c_str(), nullptr, 16);
}

double number(const Value *V) { return V && V->isNumber() ? V->asNumber() : 0; }

uint64_t microsToNs(double Micros) {
  return Micros > 0 ? static_cast<uint64_t>(std::llround(Micros * 1000.0)) : 0;
}

double us(uint64_t Ns) { return static_cast<double>(Ns) / 1000.0; }

} // namespace

bool parseSpanDump(std::string_view Json, uint64_t EpochNs, SpanDump &Out,
                   std::string *Error) {
  std::optional<Value> Doc = repro::json::parse(Json, Error);
  if (!Doc || !Doc->isObject())
    return false;
  const Value *Traces = Doc->find("traces");
  if (!Traces || !Traces->isArray()) {
    if (Error)
      *Error = "no traces array";
    return false;
  }
  if (const Value *St = Doc->find("stats")) {
    Out.Started = static_cast<uint64_t>(number(St->find("started")));
    Out.Finished = static_cast<uint64_t>(number(St->find("finished")));
    Out.RetainedDropped =
        static_cast<uint64_t>(number(St->find("retained_dropped")));
    Out.ActiveOverflow =
        static_cast<uint64_t>(number(St->find("active_overflow")));
  }
  for (const Value &T : Traces->elements()) {
    TraceRec R;
    if (const Value *Id = T.find("trace_id"); Id && Id->isString())
      R.TraceId = Id->asString();
    R.SpansDropped = static_cast<uint64_t>(number(T.find("spans_dropped")));
    const Value *Spans = T.find("spans");
    if (!Spans || !Spans->isArray())
      continue;
    for (const Value &S : Spans->elements()) {
      SpanRec Sp;
      Sp.Id = hexId(S.find("span_id"));
      Sp.Parent = hexId(S.find("parent_span_id"));
      if (const Value *N = S.find("name"); N && N->isString())
        Sp.Name = N->asString();
      Sp.StartNs = EpochNs + microsToNs(number(S.find("start_micros")));
      Sp.EndNs = Sp.StartNs + microsToNs(number(S.find("duration_micros")));
      R.Spans.push_back(std::move(Sp));
    }
    if (!R.Spans.empty())
      Out.Traces.push_back(std::move(R));
  }
  return true;
}

uint64_t coveredNs(uint64_t Begin, uint64_t End,
                   std::vector<std::pair<uint64_t, uint64_t>> Intervals) {
  std::sort(Intervals.begin(), Intervals.end());
  uint64_t Covered = 0, Cursor = Begin;
  for (auto [B, E] : Intervals) {
    B = std::max(B, Cursor);
    E = std::min(E, End);
    if (E > B) {
      Covered += E - B;
      Cursor = E;
    }
  }
  return Covered;
}

ProxyLayers analyzeProxy(const SpanDump &Dump,
                         const std::vector<ClientRecord> &Records,
                         const std::map<std::string, std::size_t> &SkipHandlers) {
  ProxyLayers L;
  L.Requests = Records.size();
  std::map<std::string, const TraceRec *> ById;
  for (const TraceRec &T : Dump.Traces) {
    ById[T.TraceId] = &T;
    L.SpansDropped += T.SpansDropped;
  }
  std::map<std::string, std::vector<const ClientRecord *>> Groups;
  for (const ClientRecord &R : Records)
    Groups[R.TraceId].push_back(&R);

  std::vector<std::pair<uint64_t, uint64_t>> OriginLegs;
  for (const auto &[TraceId, Reqs] : Groups) {
    auto It = ById.find(TraceId);
    if (It == ById.end())
      continue;
    const TraceRec &T = *It->second;
    const SpanRec &Root = T.Spans[0];
    std::map<uint64_t, std::vector<const SpanRec *>> Children;
    std::vector<const SpanRec *> Handlers, RootReads, NonRoot;
    uint64_t MaxSpanNs = 0;
    for (const SpanRec &S : T.Spans) {
      Children[S.Parent].push_back(&S);
      if (&S != &Root) {
        NonRoot.push_back(&S);
        MaxSpanNs = std::max(MaxSpanNs, S.EndNs - S.StartNs);
      }
      if (S.Name == "handler")
        Handlers.push_back(&S);
      else if (S.Name == "admission")
        L.AdmissionUs.push_back(us(S.EndNs - S.StartNs));
      else if (S.Name == "io.read" && S.Parent == Root.Id)
        RootReads.push_back(&S);
    }
    auto ByStart = [](const SpanRec *A, const SpanRec *B) {
      return A->StartNs < B->StartNs;
    };
    std::sort(Handlers.begin(), Handlers.end(), ByStart);
    std::sort(NonRoot.begin(), NonRoot.end(), ByStart);
    std::sort(RootReads.begin(), RootReads.end(),
              [](const SpanRec *A, const SpanRec *B) {
                return A->EndNs < B->EndNs;
              });
    auto Skip = SkipHandlers.find(TraceId);
    std::size_t First = Skip == SkipHandlers.end() ? 0 : Skip->second;
    if (First == 0 && !Handlers.empty())
      L.AcceptToHandlerUs.push_back(
          us(Handlers[0]->StartNs - std::min(Handlers[0]->StartNs,
                                             Root.StartNs)));

    for (std::size_t K = 0; K < Reqs.size(); ++K) {
      const ClientRecord &R = *Reqs[K];
      if (First + K >= Handlers.size())
        break;
      const SpanRec &H = *Handlers[First + K];
      if (H.EndNs <= H.StartNs || H.StartNs < R.SendNs)
        continue;

      // Handler self time: its interval minus what its direct children
      // cover. Every socket op below it is a sample of its reactor layer.
      std::vector<std::pair<uint64_t, uint64_t>> Kids;
      std::vector<const SpanRec *> Stack{&H};
      uint64_t OriginWriteEnd = 0, OriginReadEnd = 0, OriginConnect = 0;
      uint64_t ReplyWritten = 0; ///< the client reply's io.write end
      while (!Stack.empty()) {
        const SpanRec *S = Stack.back();
        Stack.pop_back();
        for (const SpanRec *C : Children[S->Id]) {
          Stack.push_back(C);
          if (S == &H)
            Kids.emplace_back(C->StartNs, C->EndNs);
          if (C->Name == "io.write") {
            L.WriteUs.push_back(us(C->EndNs - C->StartNs));
            if (S == &H)
              OriginWriteEnd = std::max(OriginWriteEnd, C->EndNs);
            else if (S->Name == "response")
              ReplyWritten = std::max(ReplyWritten, C->EndNs);
          } else if (C->Name == "io.connect") {
            L.ConnectUs.push_back(us(C->EndNs - C->StartNs));
            OriginConnect = C->StartNs;
          } else if (C->Name == "io.read" && S == &H) {
            OriginReadEnd = std::max(OriginReadEnd, C->EndNs);
          }
        }
      }
      if (!ReplyWritten)
        continue;
      ++L.Matched;
      uint64_t HandlerNs = H.EndNs - H.StartNs;
      L.HandlerSelfUs.push_back(
          us(HandlerNs - coveredNs(H.StartNs, H.EndNs, std::move(Kids))));
      if (OriginConnect && OriginReadEnd > OriginWriteEnd && OriginWriteEnd) {
        L.OriginServiceUs.push_back(us(OriginReadEnd - OriginWriteEnd));
        OriginLegs.emplace_back(OriginConnect, OriginReadEnd);
      }

      // The client-socket read that delivered this request: the first one
      // ending at or after the send.
      uint64_t ReadNs = 0;
      auto RIt = std::lower_bound(
          RootReads.begin(), RootReads.end(), R.SendNs,
          [](const SpanRec *S, uint64_t T) { return S->EndNs < T; });
      if (RIt != RootReads.end() && (*RIt)->EndNs <= H.StartNs) {
        ReadNs = (*RIt)->EndNs - std::max((*RIt)->StartNs, R.SendNs);
        L.ReadUs.push_back(us(ReadNs));
      }
      // The reply is on its way once its write completes; whatever the
      // handler does after that is off the client's path. Between the send
      // and that point, the request's time is accounted where some span of
      // its connection (root excepted) was open.
      uint64_t Served = std::max(R.SendNs, std::min(R.RecvNs, ReplyWritten));
      uint64_t Earliest = R.SendNs - std::min(R.SendNs, MaxSpanNs);
      std::vector<std::pair<uint64_t, uint64_t>> Open;
      for (auto SIt = std::lower_bound(
               NonRoot.begin(), NonRoot.end(), Earliest,
               [](const SpanRec *S, uint64_t T) { return S->StartNs < T; });
           SIt != NonRoot.end() && (*SIt)->StartNs < Served; ++SIt)
        Open.emplace_back((*SIt)->StartNs, (*SIt)->EndNs);
      uint64_t Covered = coveredNs(R.SendNs, Served, std::move(Open));
      uint64_t Latency = R.RecvNs - R.SchedNs;
      uint64_t Accounted =
          (R.SendNs - R.SchedNs) + Covered + (R.RecvNs - Served);
      L.LatencyNs += static_cast<double>(Latency);
      L.UnaccountedNs +=
          static_cast<double>(Latency - std::min(Latency, Accounted));
      L.CoveredUs.push_back(us(Covered));
      L.ResidualUs.push_back(us(R.RecvNs - Served));
    }
  }
  if (!OriginLegs.empty()) {
    uint64_t Lo = UINT64_MAX, Hi = 0;
    for (auto [B, E] : OriginLegs) {
      Lo = std::min(Lo, B);
      Hi = std::max(Hi, E);
    }
    L.OriginBusyNs = coveredNs(Lo, Hi, std::move(OriginLegs));
  }
  return L;
}

} // namespace perfbench
