//===- Program/BinaryCodec.cpp ----------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Program/BinaryCodec.h"

#include "tessla/Runtime/Containers.h"
#include "tessla/Support/Format.h"

#include <algorithm>

using namespace tessla;
using namespace tessla::bc;

std::string bc::fourCCName(uint32_t T) {
  std::string S(4, '?');
  for (unsigned I = 0; I != 4; ++I) {
    char C = static_cast<char>((T >> (8 * I)) & 0xFF);
    S[I] = (C >= 32 && C < 127) ? C : '?';
  }
  return S;
}

void bc::writeValue(ByteWriter &W, const Value &V, ValueEncodeShare *Share) {
  // Pre-order dedup: register the payload *before* encoding its elements
  // so encoder and decoder assign identical indices to nested aggregates.
  if (Share && V.isAggregate()) {
    auto [It, Inserted] = Share->Index.try_emplace(
        V.aggregateIdentity(), static_cast<uint32_t>(Share->Index.size()));
    if (!Inserted) {
      W.u8(ValueBackRefTag);
      W.u32(It->second);
      return;
    }
  }
  W.u8(static_cast<uint8_t>(V.kind()));
  switch (V.kind()) {
  case Value::Kind::Unit:
    break;
  case Value::Kind::Bool:
    W.u8(V.getBool() ? 1 : 0);
    break;
  case Value::Kind::Int:
    W.i64(V.getInt());
    break;
  case Value::Kind::Float:
    W.f64(V.getFloat());
    break;
  case Value::Kind::String:
    W.str(V.getString());
    break;
  case Value::Kind::Set: {
    std::vector<Value> Items = V.asSet().items();
    std::sort(Items.begin(), Items.end(), [](const Value &A, const Value &B) {
      return compareValues(A, B) < 0;
    });
    W.u32(static_cast<uint32_t>(Items.size()));
    for (const Value &E : Items)
      writeValue(W, E, Share);
    break;
  }
  case Value::Kind::Map: {
    std::vector<std::pair<Value, Value>> Items = V.asMap().items();
    std::sort(Items.begin(), Items.end(),
              [](const auto &A, const auto &B) {
                return compareValues(A.first, B.first) < 0;
              });
    W.u32(static_cast<uint32_t>(Items.size()));
    for (const auto &[K, Val] : Items) {
      writeValue(W, K, Share);
      writeValue(W, Val, Share);
    }
    break;
  }
  case Value::Kind::Queue: {
    std::vector<Value> Items = V.asQueue().items(); // front-first
    W.u32(static_cast<uint32_t>(Items.size()));
    for (const Value &E : Items)
      writeValue(W, E, Share);
    break;
  }
  }
}

namespace {

bool readAggregateCount(ByteReader &R, DecodeContext &Ctx, uint32_t &Count) {
  Count = R.u32();
  if (R.failed() || Count > R.remaining()) {
    Ctx.fail("aggregate element count exceeds the remaining payload");
    return false;
  }
  return true;
}

} // namespace

namespace {

/// Reserves the pre-order share slot for an aggregate about to be
/// decoded; returns its index (or SIZE_MAX without sharing). The slot
/// holds unit until the aggregate is complete, so an in-flight (cyclic)
/// back-reference is detectable.
size_t reserveShareSlot(ValueDecodeShare *Share) {
  if (!Share)
    return SIZE_MAX;
  Share->Values.push_back(Value::unit());
  return Share->Values.size() - 1;
}

void fillShareSlot(ValueDecodeShare *Share, size_t Slot, const Value &V) {
  if (Share)
    Share->Values[Slot] = V;
}

} // namespace

Value bc::readValue(ByteReader &R, DecodeContext &Ctx, unsigned Depth,
                    ValueDecodeShare *Share) {
  if (Depth > MaxNesting) {
    Ctx.fail("value nesting exceeds the format limit");
    return Value::unit();
  }
  uint8_t Kind = R.u8();
  if (R.failed() || !Ctx.Ok) {
    Ctx.fail("truncated value");
    return Value::unit();
  }
  if (Kind == ValueBackRefTag) {
    if (!Share) {
      Ctx.fail("value back-reference outside a shared encoding");
      return Value::unit();
    }
    uint32_t Idx = R.u32();
    if (R.failed() || Idx >= Share->Values.size()) {
      Ctx.fail("value back-reference out of range");
      return Value::unit();
    }
    if (!Share->Values[Idx].isAggregate()) {
      Ctx.fail("value back-reference into an incomplete aggregate");
      return Value::unit();
    }
    return Share->Values[Idx];
  }
  switch (static_cast<Value::Kind>(Kind)) {
  case Value::Kind::Unit:
    return Value::unit();
  case Value::Kind::Bool:
    return Value::boolean(R.u8() != 0);
  case Value::Kind::Int:
    return Value::integer(R.i64());
  case Value::Kind::Float:
    return Value::floating(R.f64());
  case Value::Kind::String:
    return Value::string(R.str());
  case Value::Kind::Set: {
    uint32_t N;
    if (!readAggregateCount(R, Ctx, N))
      return Value::unit();
    size_t Slot = reserveShareSlot(Share);
    Value Fresh = Value::emptySet();
    SetCow D = Fresh.setCow(true);
    for (uint32_t I = 0; I != N && Ctx.Ok && !R.failed(); ++I)
      D.add(readValue(R, Ctx, Depth + 1, Share));
    Value Out = std::move(D).finish();
    fillShareSlot(Share, Slot, Out);
    return Out;
  }
  case Value::Kind::Map: {
    uint32_t N;
    if (!readAggregateCount(R, Ctx, N))
      return Value::unit();
    size_t Slot = reserveShareSlot(Share);
    Value Fresh = Value::emptyMap();
    MapCow D = Fresh.mapCow(true);
    for (uint32_t I = 0; I != N && Ctx.Ok && !R.failed(); ++I) {
      Value K = readValue(R, Ctx, Depth + 1, Share);
      Value V = readValue(R, Ctx, Depth + 1, Share);
      D.put(std::move(K), std::move(V));
    }
    Value Out = std::move(D).finish();
    fillShareSlot(Share, Slot, Out);
    return Out;
  }
  case Value::Kind::Queue: {
    uint32_t N;
    if (!readAggregateCount(R, Ctx, N))
      return Value::unit();
    size_t Slot = reserveShareSlot(Share);
    Value Fresh = Value::emptyQueue();
    QueueCow D = Fresh.queueCow(true);
    for (uint32_t I = 0; I != N && Ctx.Ok && !R.failed(); ++I)
      D.enqueue(readValue(R, Ctx, Depth + 1, Share));
    Value Out = std::move(D).finish();
    fillShareSlot(Share, Slot, Out);
    return Out;
  }
  }
  Ctx.fail(formatString("unknown value kind %u", Kind));
  return Value::unit();
}
