//===- server/Protocol.cpp ------------------------------------------------===//
//
// Part of PPD. See Protocol.h.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

using namespace ppd;

namespace {

/// Emits `u32 Len | payload` where \p Body writes the payload after the
/// common header.
template <typename BodyFn>
void encodeFrame(uint8_t Type, uint64_t RequestId, LogWriter &Out,
                 BodyFn Body) {
  LogWriter Payload;
  Payload.u8(ProtocolVersion);
  Payload.u8(Type);
  Payload.u64(RequestId);
  Body(Payload);
  Out.u32(uint32_t(Payload.size()));
  Out.bytes(Payload);
}

void string32(LogWriter &Out, const std::string &S) {
  Out.u32(uint32_t(S.size()));
  for (char C : S)
    Out.u8(uint8_t(C));
}

/// Reads a u32-length-prefixed string; fails the reader on a length that
/// cannot fit in the remaining payload.
bool readString32(ByteReader &R, std::string &Out) {
  uint32_t Len = R.u32();
  if (!R.ok() || Len > R.remaining())
    return false;
  Out.clear();
  Out.reserve(Len);
  for (uint32_t I = 0; I != Len; ++I)
    Out.push_back(char(R.u8()));
  return R.ok();
}

void blob32(LogWriter &Out, const std::vector<uint8_t> &B) {
  Out.u32(uint32_t(B.size()));
  for (uint8_t C : B)
    Out.u8(C);
}

/// Reads a u32-length-prefixed byte blob with the same bounds discipline
/// as readString32.
bool readBlob32(ByteReader &R, std::vector<uint8_t> &Out) {
  uint32_t Len = R.u32();
  if (!R.ok() || Len > R.remaining())
    return false;
  Out.clear();
  Out.reserve(Len);
  for (uint32_t I = 0; I != Len; ++I)
    Out.push_back(R.u8());
  return R.ok();
}

} // namespace

void ppd::encodeRequest(const Request &Req, LogWriter &Out) {
  encodeFrame(uint8_t(Req.Type), Req.RequestId, Out, [&](LogWriter &P) {
    switch (Req.Type) {
    case MsgType::OpenSession:
      P.u32(Req.ProgramIndex);
      break;
    case MsgType::Query:
      P.u64(Req.SessionId);
      string32(P, Req.Command);
      break;
    case MsgType::Step:
      P.u64(Req.SessionId);
      P.u8(Req.Direction);
      break;
    case MsgType::Races:
    case MsgType::Stats:
    case MsgType::CloseSession:
      P.u64(Req.SessionId);
      break;
    case MsgType::Shutdown:
      break;
    case MsgType::StreamHello:
      P.u32(Req.ProgramIndex);
      P.u64(Req.ProgramHash);
      break;
    case MsgType::SectionData:
      P.u64(Req.StreamId);
      P.u64(Req.CutSeq);
      P.u32(Req.Pid);
      P.u8(Req.Flags);
      P.u64(Req.Stalls);
      P.u32(Req.FirstRecord);
      blob32(P, Req.Blob);
      break;
    case MsgType::StreamEnd:
      P.u64(Req.StreamId);
      P.u64(Req.Stalls);
      blob32(P, Req.Blob);
      break;
    case MsgType::TailQuery:
      P.u64(Req.StreamId);
      string32(P, Req.Command);
      break;
    case MsgType::Frontier:
      P.u64(Req.StreamId);
      break;
    }
  });
}

void ppd::encodeResponse(const Response &Resp, LogWriter &Out) {
  encodeFrame(uint8_t(Resp.Type), Resp.RequestId, Out, [&](LogWriter &P) {
    switch (Resp.Type) {
    case RespType::SessionOpened:
      P.u64(Resp.SessionId);
      break;
    case RespType::Result:
    case RespType::StatsText:
      string32(P, Resp.Text);
      break;
    case RespType::Error:
      P.u32(uint32_t(Resp.Code));
      string32(P, Resp.Text);
      break;
    case RespType::Closed:
    case RespType::Busy:
    case RespType::ShutdownAck:
      break;
    case RespType::Ack:
      P.u64(Resp.StreamId);
      P.u32(Resp.Credits);
      break;
    }
  });
}

bool ppd::decodeRequest(const uint8_t *Data, size_t Size, Request &Out) {
  if (Size > MaxFramePayload)
    return false;
  ByteReader R(Data, Size);
  uint8_t Version = R.u8();
  uint8_t RawType = R.u8();
  Out.RequestId = R.u64();
  if (!R.ok() || Version != ProtocolVersion)
    return false;
  if (RawType < uint8_t(MsgType::OpenSession) ||
      RawType > uint8_t(MsgType::Frontier))
    return false;
  Out.Type = MsgType(RawType);
  switch (Out.Type) {
  case MsgType::OpenSession:
    Out.ProgramIndex = R.u32();
    break;
  case MsgType::Query:
    Out.SessionId = R.u64();
    if (!readString32(R, Out.Command))
      return false;
    break;
  case MsgType::Step:
    Out.SessionId = R.u64();
    Out.Direction = R.u8();
    if (Out.Direction > 1)
      return false;
    break;
  case MsgType::Races:
  case MsgType::Stats:
  case MsgType::CloseSession:
    Out.SessionId = R.u64();
    break;
  case MsgType::Shutdown:
    break;
  case MsgType::StreamHello:
    Out.ProgramIndex = R.u32();
    Out.ProgramHash = R.u64();
    break;
  case MsgType::SectionData:
    Out.StreamId = R.u64();
    Out.CutSeq = R.u64();
    Out.Pid = R.u32();
    Out.Flags = R.u8();
    if (R.ok() && (Out.Flags & ~SectionLastInCut) != 0)
      return false;
    Out.Stalls = R.u64();
    Out.FirstRecord = R.u32();
    if (!readBlob32(R, Out.Blob))
      return false;
    break;
  case MsgType::StreamEnd:
    Out.StreamId = R.u64();
    Out.Stalls = R.u64();
    if (!readBlob32(R, Out.Blob))
      return false;
    break;
  case MsgType::TailQuery:
    Out.StreamId = R.u64();
    if (!readString32(R, Out.Command))
      return false;
    break;
  case MsgType::Frontier:
    Out.StreamId = R.u64();
    break;
  }
  // A frame with trailing garbage is malformed, not silently tolerated:
  // that is what catches a body meant for a different message type.
  return R.ok() && R.atEnd();
}

bool ppd::decodeResponse(const uint8_t *Data, size_t Size, Response &Out) {
  if (Size > MaxFramePayload)
    return false;
  ByteReader R(Data, Size);
  uint8_t Version = R.u8();
  uint8_t RawType = R.u8();
  Out.RequestId = R.u64();
  if (!R.ok() || Version != ProtocolVersion)
    return false;
  if (RawType < uint8_t(RespType::SessionOpened) ||
      RawType > uint8_t(RespType::Ack))
    return false;
  Out.Type = RespType(RawType);
  switch (Out.Type) {
  case RespType::SessionOpened:
    Out.SessionId = R.u64();
    break;
  case RespType::Result:
  case RespType::StatsText:
    if (!readString32(R, Out.Text))
      return false;
    break;
  case RespType::Error: {
    uint32_t Code = R.u32();
    if (!R.ok() || Code < uint32_t(ErrCode::BadFrame) ||
        Code > uint32_t(ErrCode::LogUnreadable))
      return false;
    Out.Code = ErrCode(Code);
    if (!readString32(R, Out.Text))
      return false;
    break;
  }
  case RespType::Closed:
  case RespType::Busy:
  case RespType::ShutdownAck:
    break;
  case RespType::Ack:
    Out.StreamId = R.u64();
    Out.Credits = R.u32();
    break;
  }
  return R.ok() && R.atEnd();
}
