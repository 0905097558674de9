//===- server/Protocol.h - Debug-server wire protocol -----------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed wire protocol between debug clients and the PPD server.
///
/// Every message travels as one frame:
///
///   u32 Len | u8 Version | u8 Type | u64 RequestId | body
///
/// Len counts the payload after the length prefix (so Version is byte 4 of
/// the stream) and is capped at MaxFramePayload; a peer announcing a
/// larger frame is malformed by definition and the connection drops
/// instead of buffering unboundedly. RequestId is an opaque client cookie
/// echoed in the response so clients may pipeline requests.
///
/// Bodies are fixed-width little-endian fields plus length-prefixed byte
/// strings, encoded with LogWriter and decoded with the bounds-checked
/// ByteReader from log/LogIO.h: any truncated, oversized, or garbage body
/// latches the reader's failed state and decode reports false — never a
/// crash, never a partial struct observed by the caller.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_SERVER_PROTOCOL_H
#define PPD_SERVER_PROTOCOL_H

#include "log/LogIO.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ppd {

/// Protocol revision; bumped on any wire-visible change.
inline constexpr uint8_t ProtocolVersion = 2;

/// Hard cap on one frame's payload. Debug responses are text and DOT
/// dumps; a megabyte is generous, and the cap is what lets a reader
/// reject a corrupt length prefix before allocating.
inline constexpr uint32_t MaxFramePayload = 1u << 20;

/// Client → server message types.
enum class MsgType : uint8_t {
  OpenSession = 1, ///< body: u32 program index
  Query = 2,       ///< body: u64 session, u32 len, command text
  Step = 3,        ///< body: u64 session, u8 direction (0 back, 1 fwd)
  Races = 4,       ///< body: u64 session
  Stats = 5,       ///< body: u64 session (0 = whole-server metrics)
  CloseSession = 6, ///< body: u64 session
  Shutdown = 7,    ///< body: empty
  // Streaming ingest (live attach). A tracer opens a stream with
  // StreamHello, ships consistent cuts as SectionData frames (one per
  // process with new records; the last in a cut carries LastInCut), and
  // closes with StreamEnd carrying the program output. The server grants
  // send credit via RespType::Ack; the tracer blocks at zero credit.
  StreamHello = 8, ///< body: u32 program index, u64 program hash
  SectionData = 9, ///< body: u64 stream, u64 cut, u32 pid, u8 flags,
                   ///<       u64 stalls, u32 first record, u32 len, blob
  StreamEnd = 10,  ///< body: u64 stream, u64 stalls, u32 len, output blob
  TailQuery = 11,  ///< body: u64 stream, u32 len, command text
  Frontier = 12,   ///< body: u64 stream (0 = list live streams)
};

/// SectionData flag bits.
inline constexpr uint8_t SectionLastInCut = 1u << 0;

/// Server → client message types.
enum class RespType : uint8_t {
  SessionOpened = 1, ///< body: u64 session id
  Result = 2,        ///< body: u32 len, response text
  StatsText = 3,     ///< body: u32 len, rendered metrics
  Closed = 4,        ///< body: empty
  Busy = 5,          ///< body: empty — queue full, retry later
  Error = 6,         ///< body: u32 code, u32 len, message text
  ShutdownAck = 7,   ///< body: empty
  Ack = 8,           ///< body: u64 stream id, u32 credits granted
};

/// Error codes carried by RespType::Error.
enum class ErrCode : uint32_t {
  BadFrame = 1,     ///< undecodable body or bad length
  BadVersion = 2,   ///< unsupported protocol version
  UnknownType = 3,  ///< unrecognized message type
  NoSuchProgram = 4,
  NoSuchSession = 5,
  TooManySessions = 6,
  Timeout = 7,      ///< request expired in the queue
  ShuttingDown = 8, ///< server is draining
  NoSuchStream = 9, ///< stream id unknown or already ended
  StreamProtocol = 10, ///< ingest invariant violated; stream is dead
  LogUnreadable = 11,  ///< the paged log changed since open or is corrupt
};

/// A decoded client request. Fields not used by a given Type stay at
/// their defaults.
struct Request {
  MsgType Type = MsgType::Query;
  uint64_t RequestId = 0;
  uint32_t ProgramIndex = 0; ///< OpenSession
  uint64_t SessionId = 0;    ///< Query/Step/Races/Stats/CloseSession
  uint8_t Direction = 0;     ///< Step: 0 back, 1 fwd
  std::string Command;       ///< Query/TailQuery
  uint64_t ProgramHash = 0;  ///< StreamHello
  uint64_t StreamId = 0;     ///< SectionData/StreamEnd/TailQuery/Frontier
  uint64_t CutSeq = 0;       ///< SectionData: consistent-cut sequence
  uint32_t Pid = 0;          ///< SectionData
  uint32_t FirstRecord = 0;  ///< SectionData: index of first new record
  uint8_t Flags = 0;         ///< SectionData: SectionLastInCut etc.
  uint64_t Stalls = 0;       ///< SectionData/StreamEnd: cumulative
                             ///< tracer credit stalls
  std::vector<uint8_t> Blob; ///< SectionData records / StreamEnd output
};

/// A decoded server response.
struct Response {
  RespType Type = RespType::Error;
  uint64_t RequestId = 0;
  uint64_t SessionId = 0;            ///< SessionOpened
  ErrCode Code = ErrCode::BadFrame;  ///< Error
  std::string Text;                  ///< Result/StatsText/Error message
  uint64_t StreamId = 0;             ///< Ack
  uint32_t Credits = 0;              ///< Ack: send credit granted
};

/// Appends one complete frame (length prefix included) for \p Req.
void encodeRequest(const Request &Req, LogWriter &Out);

/// Appends one complete frame (length prefix included) for \p Resp.
void encodeResponse(const Response &Resp, LogWriter &Out);

/// Decodes a frame payload (the bytes after the length prefix) into
/// \p Out. False on any malformed input; \p Out is unspecified then.
/// On a version mismatch the RequestId is still recovered when possible
/// so the server can address its error response.
bool decodeRequest(const uint8_t *Data, size_t Size, Request &Out);

/// Decodes a response payload. False on malformed input.
bool decodeResponse(const uint8_t *Data, size_t Size, Response &Out);

/// Incremental frame accumulator for a byte stream. Feed arbitrary
/// chunks; complete payloads pop out in order. A declared length above
/// MaxFramePayload poisons the stream (malformed(); the transport should
/// drop the connection).
class FrameReader {
public:
  /// Appends \p Size stream bytes.
  void feed(const uint8_t *Data, size_t Size) {
    Buffer.insert(Buffer.end(), Data, Data + Size);
  }

  /// Extracts the next complete payload into \p Payload. False when no
  /// complete frame is buffered or the stream is poisoned.
  bool next(std::vector<uint8_t> &Payload) {
    if (Malformed || Buffer.size() - Consumed < 4)
      return false;
    uint32_t Len = 0;
    std::memcpy(&Len, Buffer.data() + Consumed, 4);
    if (Len > MaxFramePayload) {
      Malformed = true;
      return false;
    }
    if (Buffer.size() - Consumed < 4 + size_t(Len))
      return false;
    Payload.assign(Buffer.begin() + Consumed + 4,
                   Buffer.begin() + Consumed + 4 + Len);
    Consumed += 4 + size_t(Len);
    // Reclaim consumed prefix once it dominates the buffer.
    if (Consumed > 4096 && Consumed * 2 > Buffer.size()) {
      Buffer.erase(Buffer.begin(), Buffer.begin() + long(Consumed));
      Consumed = 0;
    }
    return true;
  }

  /// True once an impossible length prefix was seen.
  bool malformed() const { return Malformed; }

private:
  std::vector<uint8_t> Buffer;
  size_t Consumed = 0;
  bool Malformed = false;
};

} // namespace ppd

#endif // PPD_SERVER_PROTOCOL_H
