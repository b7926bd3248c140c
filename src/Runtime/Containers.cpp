//===- Runtime/Containers.cpp -----------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Value's aggregate surface: factories, views, COW handles, identity and
// the node walk.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Containers.h"

using namespace tessla;

// detached() on an empty structure allocates its root: every aggregate
// value has one, so distinct empties never share an identity.
Value Value::emptySet() { return Value(Payload(SetRep().detached())); }
Value Value::emptyMap() { return Value(Payload(MapRep().detached())); }
Value Value::emptyQueue() { return Value(Payload(QueueRep().detached())); }

SetView Value::asSet() const { return SetView(std::get<SetRep>(V)); }
MapView Value::asMap() const { return MapView(std::get<MapRep>(V)); }
QueueView Value::asQueue() const { return QueueView(std::get<QueueRep>(V)); }

SetCow Value::setCow(bool InPlace) const & {
  return SetCow(std::get<SetRep>(V), InPlace);
}
MapCow Value::mapCow(bool InPlace) const & {
  return MapCow(std::get<MapRep>(V), InPlace);
}
QueueCow Value::queueCow(bool InPlace) const & {
  return QueueCow(std::get<QueueRep>(V), InPlace);
}

const void *Value::aggregateIdentity() const {
  switch (kind()) {
  case Kind::Set:
    return std::get<SetRep>(V).root();
  case Kind::Map:
    return std::get<MapRep>(V).root();
  case Kind::Queue:
    return std::get<QueueRep>(V).root();
  default:
    return nullptr;
  }
}

void Value::forEachAggregateNode(
    const std::function<bool(const void *, size_t, uint32_t)> &Callback)
    const {
  switch (kind()) {
  case Kind::Set:
    return std::get<SetRep>(V).forEachNode(Callback);
  case Kind::Map:
    return std::get<MapRep>(V).forEachNode(Callback);
  case Kind::Queue:
    return std::get<QueueRep>(V).forEachNode(Callback);
  default:
    return;
  }
}
