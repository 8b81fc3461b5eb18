//===- perfbench/src/HttpFraming.cpp - Client-side response framing --------===//

#include "HttpFraming.h"

#include <cctype>
#include <cstdlib>
#include <string_view>

namespace perfbench {

namespace {

bool equalsLower(std::string_view A, std::string_view LowerB) {
  if (A.size() != LowerB.size())
    return false;
  for (std::size_t I = 0; I < A.size(); ++I)
    if (std::tolower(static_cast<unsigned char>(A[I])) != LowerB[I])
      return false;
  return true;
}

std::string_view trim(std::string_view S) {
  while (!S.empty() && (S.front() == ' ' || S.front() == '\t'))
    S.remove_prefix(1);
  while (!S.empty() && (S.back() == ' ' || S.back() == '\t'))
    S.remove_suffix(1);
  return S;
}

} // namespace

void ResponseReader::feed(const char *Data, std::size_t Len) {
  // Compact once the consumed prefix dominates, so a long keep-alive
  // connection never grows the buffer.
  if (Pos > 0 && Pos * 2 >= Buf.size()) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
  Buf.append(Data, Len);
}

ResponseReader::Result ResponseReader::next(FramedResponse &Out) {
  std::string_view View(Buf);
  View.remove_prefix(Pos);
  std::size_t HeaderEnd = View.find("\r\n\r\n");
  if (HeaderEnd == std::string_view::npos)
    return View.size() > 65536 ? Result::Malformed : Result::NeedMore;
  std::string_view Head = View.substr(0, HeaderEnd);

  std::size_t LineEnd = Head.find("\r\n");
  std::string_view StatusLine = Head.substr(0, LineEnd);
  if (StatusLine.substr(0, 5) != "HTTP/")
    return Result::Malformed;
  std::size_t Sp = StatusLine.find(' ');
  if (Sp == std::string_view::npos || Sp + 4 > StatusLine.size())
    return Result::Malformed;
  int Status = 0;
  for (std::size_t I = Sp + 1; I < Sp + 4; ++I) {
    if (!std::isdigit(static_cast<unsigned char>(StatusLine[I])))
      return Result::Malformed;
    Status = Status * 10 + (StatusLine[I] - '0');
  }

  long ContentLength = -1;
  std::string RequestId;
  std::size_t P = LineEnd == std::string_view::npos ? Head.size() : LineEnd + 2;
  while (P < Head.size()) {
    std::size_t E = Head.find("\r\n", P);
    if (E == std::string_view::npos)
      E = Head.size();
    std::string_view Line = Head.substr(P, E - P);
    std::size_t Colon = Line.find(':');
    if (Colon == std::string_view::npos)
      return Result::Malformed;
    std::string_view Key = trim(Line.substr(0, Colon));
    std::string_view Val = trim(Line.substr(Colon + 1));
    if (equalsLower(Key, "content-length")) {
      if (Val.empty() || Val.size() > 9)
        return Result::Malformed;
      long N = 0;
      for (char C : Val) {
        if (!std::isdigit(static_cast<unsigned char>(C)))
          return Result::Malformed;
        N = N * 10 + (C - '0');
      }
      ContentLength = N;
    } else if (equalsLower(Key, "x-request-id")) {
      RequestId.assign(Val);
    }
    P = E + 2;
  }
  if (ContentLength < 0)
    return Result::Malformed;

  std::size_t Total = HeaderEnd + 4 + static_cast<std::size_t>(ContentLength);
  if (View.size() < Total)
    return Result::NeedMore;
  Out.Status = Status;
  Out.RequestId = std::move(RequestId);
  Out.Body.assign(View.substr(HeaderEnd + 4,
                              static_cast<std::size_t>(ContentLength)));
  Pos += Total;
  return Result::Complete;
}

} // namespace perfbench
