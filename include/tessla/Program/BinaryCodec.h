//===- tessla/Program/BinaryCodec.h - Shared binary encoding ---*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The little-endian binary encoding primitives shared by every
/// serialized artifact in the system: the `.tpb` program bundle
/// (Program/Serialize.h), the `.tcp` fleet checkpoint
/// (Runtime/Checkpoint.h) and the service wire format (Runtime/Wire.h).
/// One writer, one bounds-checked reader, one canonical Value encoding —
/// so a Value round-trips identically whether it travels inside a
/// program constant pool, a checkpointed monitor slot or an ingestion
/// frame, and every decoder inherits the same untrusting discipline:
/// reads never run past the buffer, aggregate counts are capped by the
/// remaining payload, nesting is bounded, and the first error wins.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_PROGRAM_BINARYCODEC_H
#define TESSLA_PROGRAM_BINARYCODEC_H

#include "tessla/Runtime/Value.h"
#include "tessla/Support/Diagnostics.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace tessla {
namespace bc {

/// Section/frame tags, packed as little-endian u32 four-character codes.
constexpr uint32_t fourCC(char A, char B, char C, char D) {
  return static_cast<uint32_t>(static_cast<uint8_t>(A)) |
         static_cast<uint32_t>(static_cast<uint8_t>(B)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(C)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(D)) << 24;
}

/// Renders a tag for diagnostics ("SPEC", "LANE", ...); non-printable
/// bytes become '?'.
std::string fourCCName(uint32_t T);

/// Nesting bound for recursive encodings (aggregate values inside
/// aggregate values, type parameters inside type parameters). Real
/// programs are nowhere near it; crafted inputs must not be able to
/// exhaust the stack.
constexpr unsigned MaxNesting = 32;

// --- Writer ---------------------------------------------------------------

/// Append-only little-endian byte buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u16(uint16_t V) {
    for (unsigned I = 0; I != 2; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u32(uint32_t V) {
    for (unsigned I = 0; I != 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double D) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(D));
    __builtin_memcpy(&Bits, &D, sizeof(Bits));
    u64(Bits);
  }
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  void bytes(const ByteWriter &W) {
    Buf.insert(Buf.end(), W.Buf.begin(), W.Buf.end());
  }
  void raw(const uint8_t *Data, size_t Size) {
    Buf.insert(Buf.end(), Data, Data + Size);
  }

  /// Overwrites the eight bytes at \p Offset (already written) with
  /// \p V, little-endian — for a field known only after its payload.
  void patchU64(size_t Offset, uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      Buf[Offset + I] = static_cast<uint8_t>(V >> (8 * I));
  }
  void reserve(size_t N) { Buf.reserve(N); }

  const std::vector<uint8_t> &data() const { return Buf; }
  size_t size() const { return Buf.size(); }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  std::vector<uint8_t> Buf;
};

// --- Reader ---------------------------------------------------------------

/// Bounds-checked little-endian reader over one byte range. All read
/// methods return zero values once a read ran out of bytes; callers
/// check failed() at loop boundaries.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  bool failed() const { return Failed; }
  size_t remaining() const { return Failed ? 0 : Size - Pos; }
  bool atEnd() const { return Pos == Size; }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return Data[Pos++];
  }
  uint16_t u16() { return static_cast<uint16_t>(le(2)); }
  uint32_t u32() { return static_cast<uint32_t>(le(4)); }
  uint64_t u64() { return le(8); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64() {
    uint64_t Bits = u64();
    double D;
    __builtin_memcpy(&D, &Bits, sizeof(D));
    return D;
  }

  std::string str() {
    uint32_t Len = u32();
    if (!need(Len))
      return std::string();
    std::string S(reinterpret_cast<const char *>(Data + Pos), Len);
    Pos += Len;
    return S;
  }

private:
  bool need(size_t N) {
    if (Failed || Size - Pos < N) {
      Failed = true;
      return false;
    }
    return true;
  }
  uint64_t le(unsigned N) {
    if (!need(N))
      return 0;
    uint64_t V = 0;
    for (unsigned I = 0; I != N; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += N;
    return V;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

/// Shared decode state: the first error wins and every decode helper
/// checks Ok before trusting anything it read.
struct DecodeContext {
  DiagnosticEngine &Diags;
  /// Prefixed to every diagnostic ("tpb", "tcp", "wire").
  const char *Scope = "tpb";
  bool Ok = true;

  bool fail(std::string Msg) {
    if (Ok) {
      Ok = false;
      Diags.error(std::string(Scope) + ": " + std::move(Msg));
    }
    return false;
  }
};

// --- Values ---------------------------------------------------------------

/// Tag byte marking a back-reference to an aggregate already encoded
/// under the same share context (structural-sharing dedup). Disjoint
/// from every Value::Kind.
constexpr uint8_t ValueBackRefTag = 0xFF;

/// Encode-side share context: maps payload identity to the pre-order
/// index of its first encoding. Thread one context across every value
/// of an artifact (all lanes of a checkpoint, all records of a frame)
/// and aggregates shared between them are encoded once, then referenced.
struct ValueEncodeShare {
  std::unordered_map<const void *, uint32_t> Index;
};

/// Decode-side share context: aggregates by the same pre-order index
/// the encoder assigned. Decoding with sharing restores shared payloads
/// as shared handles, not duplicated copies.
struct ValueDecodeShare {
  std::vector<Value> Values;
};

/// Full Value encoding: kind byte, then the payload. Aggregate elements
/// are written in canonical (compareValues) order so equal values encode
/// identically. With a non-null \p Share, an aggregate payload already
/// seen under this context encodes as a back-reference.
void writeValue(ByteWriter &W, const Value &V,
                ValueEncodeShare *Share = nullptr);

/// Decodes one Value; on malformed input reports through \p Ctx and
/// returns unit. Bounded nesting, bounded aggregate counts. \p Share
/// must mirror the encoder's (non-null iff encoding used one).
Value readValue(ByteReader &R, DecodeContext &Ctx, unsigned Depth = 0,
                ValueDecodeShare *Share = nullptr);

} // namespace bc
} // namespace tessla

#endif // TESSLA_PROGRAM_BINARYCODEC_H
