//===- Runtime/BuiltinImpls.cpp ---------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/BuiltinImpls.h"

#include "tessla/Support/Format.h"

#include <cassert>
#include <cmath>
#include <functional>

using namespace tessla;

namespace {

bool isNumeric(const Value &V) {
  return V.kind() == Value::Kind::Int || V.kind() == Value::Kind::Float;
}

/// Applies an Int/Float binary arithmetic operator.
Value arith(BuiltinId Fn, const Value &A, const Value &B, EvalError &Err) {
  if (!isNumeric(A) || !isNumeric(B) || A.kind() != B.kind()) {
    Err.fail(formatString("arithmetic on non-numeric or mixed kinds "
                          "(%s, %s)",
                          std::string(valueKindName(A.kind())).c_str(),
                          std::string(valueKindName(B.kind())).c_str()));
    return Value::unit();
  }
  if (A.kind() == Value::Kind::Int) {
    int64_t X = A.getInt(), Y = B.getInt();
    switch (Fn) {
    case BuiltinId::Add:
      return Value::integer(X + Y);
    case BuiltinId::Sub:
      return Value::integer(X - Y);
    case BuiltinId::Mul:
      return Value::integer(X * Y);
    case BuiltinId::Div:
      if (Y == 0) {
        Err.fail("integer division by zero");
        return Value::unit();
      }
      return Value::integer(X / Y);
    case BuiltinId::Mod:
      if (Y == 0) {
        Err.fail("integer modulo by zero");
        return Value::unit();
      }
      return Value::integer(X % Y);
    case BuiltinId::Min:
      return Value::integer(std::min(X, Y));
    case BuiltinId::Max:
      return Value::integer(std::max(X, Y));
    default:
      break;
    }
  } else {
    double X = A.getFloat(), Y = B.getFloat();
    switch (Fn) {
    case BuiltinId::Add:
      return Value::floating(X + Y);
    case BuiltinId::Sub:
      return Value::floating(X - Y);
    case BuiltinId::Mul:
      return Value::floating(X * Y);
    case BuiltinId::Div:
      return Value::floating(X / Y); // IEEE semantics for float division
    case BuiltinId::Mod:
      return Value::floating(std::fmod(X, Y));
    case BuiltinId::Min:
      return Value::floating(std::min(X, Y));
    case BuiltinId::Max:
      return Value::floating(std::max(X, Y));
    default:
      break;
    }
  }
  assert(false && "not an arithmetic builtin");
  return Value::unit();
}

Value expectBool(const Value &V, EvalError &Err) {
  if (V.kind() != Value::Kind::Bool) {
    Err.fail("boolean operator applied to non-Bool value");
    return Value::boolean(false);
  }
  return V;
}

// --- Set operations ------------------------------------------------------

Value setWithInsert(const Value &S, const Value &X, bool InPlace) {
  SetCow C = S.setCow(InPlace);
  C.add(X);
  return std::move(C).finish();
}

Value setWithErase(const Value &S, const Value &X, bool InPlace) {
  SetCow C = S.setCow(InPlace);
  C.remove(X);
  return std::move(C).finish();
}

// --- Queue operations ----------------------------------------------------

Value queueWithEnq(const Value &Q, const Value &X, bool InPlace) {
  QueueCow C = Q.queueCow(InPlace);
  C.enqueue(X);
  return std::move(C).finish();
}

Value queueWithDeq(const Value &Q, bool InPlace, EvalError &Err) {
  if (Q.asQueue().empty()) {
    Err.fail("queueDeq on empty queue");
    return Value::unit();
  }
  QueueCow C = Q.queueCow(InPlace);
  C.dequeue();
  return std::move(C).finish();
}

Value queueTrimmed(const Value &Q, int64_t Bound, bool InPlace) {
  if (Bound < 0)
    Bound = 0;
  if (Q.asQueue().size() <= static_cast<size_t>(Bound))
    return Q; // unchanged: share the handle
  QueueCow C = Q.queueCow(InPlace);
  while (C.size() > static_cast<size_t>(Bound))
    C.dequeue();
  return std::move(C).finish();
}

// --- Per-builtin evaluators ----------------------------------------------
//
// One function per builtin, all with the uniform BuiltinFn signature, so
// Program::compile can resolve a lift step to a direct function pointer
// once and the per-event hot path never dispatches over BuiltinId.

/// Shorthand for the required-argument access inside an evaluator.
#define TESSLA_ARG(I) (*Args[I])

template <BuiltinId Fn>
Value evalArith(const Value *const *Args, bool, EvalError &Err) {
  // `arith`'s inner switch over Fn constant-folds per instantiation.
  return arith(Fn, TESSLA_ARG(0), TESSLA_ARG(1), Err);
}

Value evalMerge(const Value *const *Args, bool, EvalError &) {
  return TESSLA_ARG(0); // engine already selected the winning argument
}

Value evalIte(const Value *const *Args, bool, EvalError &Err) {
  return expectBool(TESSLA_ARG(0), Err).getBool() ? TESSLA_ARG(1)
                                                  : TESSLA_ARG(2);
}

Value evalFilter(const Value *const *Args, bool, EvalError &) {
  return TESSLA_ARG(0); // engine checked the condition
}

Value evalNeg(const Value *const *Args, bool, EvalError &Err) {
  if (TESSLA_ARG(0).kind() == Value::Kind::Int)
    return Value::integer(-TESSLA_ARG(0).getInt());
  if (TESSLA_ARG(0).kind() == Value::Kind::Float)
    return Value::floating(-TESSLA_ARG(0).getFloat());
  Err.fail("neg on non-numeric value");
  return Value::unit();
}

Value evalAbs(const Value *const *Args, bool, EvalError &Err) {
  if (TESSLA_ARG(0).kind() == Value::Kind::Int)
    return Value::integer(std::abs(TESSLA_ARG(0).getInt()));
  if (TESSLA_ARG(0).kind() == Value::Kind::Float)
    return Value::floating(std::fabs(TESSLA_ARG(0).getFloat()));
  Err.fail("abs on non-numeric value");
  return Value::unit();
}

Value evalEq(const Value *const *Args, bool, EvalError &) {
  return Value::boolean(TESSLA_ARG(0) == TESSLA_ARG(1));
}

Value evalNeq(const Value *const *Args, bool, EvalError &) {
  return Value::boolean(!(TESSLA_ARG(0) == TESSLA_ARG(1)));
}

/// Float operands compare by IEEE rules (every comparison with NaN is
/// false), as the native tier does; everything else by compareValues.
template <typename Cmp>
Value compare(const Value &A, const Value &B, Cmp Holds) {
  if (A.kind() == Value::Kind::Float && B.kind() == Value::Kind::Float)
    return Value::boolean(Holds(A.getFloat(), B.getFloat()));
  return Value::boolean(Holds(compareValues(A, B), 0));
}

Value evalLt(const Value *const *Args, bool, EvalError &) {
  return compare(TESSLA_ARG(0), TESSLA_ARG(1), std::less<>());
}

Value evalLeq(const Value *const *Args, bool, EvalError &) {
  return compare(TESSLA_ARG(0), TESSLA_ARG(1), std::less_equal<>());
}

Value evalGt(const Value *const *Args, bool, EvalError &) {
  return compare(TESSLA_ARG(0), TESSLA_ARG(1), std::greater<>());
}

Value evalGeq(const Value *const *Args, bool, EvalError &) {
  return compare(TESSLA_ARG(0), TESSLA_ARG(1), std::greater_equal<>());
}

Value evalLAnd(const Value *const *Args, bool, EvalError &Err) {
  return Value::boolean(expectBool(TESSLA_ARG(0), Err).getBool() &&
                        expectBool(TESSLA_ARG(1), Err).getBool());
}

Value evalLOr(const Value *const *Args, bool, EvalError &Err) {
  return Value::boolean(expectBool(TESSLA_ARG(0), Err).getBool() ||
                        expectBool(TESSLA_ARG(1), Err).getBool());
}

Value evalLNot(const Value *const *Args, bool, EvalError &Err) {
  return Value::boolean(!expectBool(TESSLA_ARG(0), Err).getBool());
}

Value evalToFloat(const Value *const *Args, bool, EvalError &) {
  return Value::floating(static_cast<double>(TESSLA_ARG(0).getInt()));
}

Value evalToInt(const Value *const *Args, bool, EvalError &) {
  return Value::integer(static_cast<int64_t>(TESSLA_ARG(0).getFloat()));
}

Value evalSetEmpty(const Value *const *, bool, EvalError &) {
  return Value::emptySet();
}

Value evalSetAdd(const Value *const *Args, bool InPlace, EvalError &) {
  return setWithInsert(TESSLA_ARG(0), TESSLA_ARG(1), InPlace);
}

Value evalSetRemove(const Value *const *Args, bool InPlace, EvalError &) {
  return setWithErase(TESSLA_ARG(0), TESSLA_ARG(1), InPlace);
}

Value evalSetToggle(const Value *const *Args, bool InPlace, EvalError &) {
  return TESSLA_ARG(0).asSet().contains(TESSLA_ARG(1))
             ? setWithErase(TESSLA_ARG(0), TESSLA_ARG(1), InPlace)
             : setWithInsert(TESSLA_ARG(0), TESSLA_ARG(1), InPlace);
}

Value evalSetUpdate(const Value *const *Args, bool InPlace, EvalError &) {
  // Optional presence: Args[1] = value to add, Args[2] = value to
  // remove; at least one is present (engine enforced). One handle for
  // both, so an in-place update keeps the root.
  SetCow C = TESSLA_ARG(0).setCow(InPlace);
  if (Args[1])
    C.add(*Args[1]);
  if (Args[2])
    C.remove(*Args[2]);
  return std::move(C).finish();
}

Value evalSetUnion(const Value *const *Args, bool InPlace, EvalError &) {
  // Writes Args[0], reads Args[1]. items() materializes a copy of the
  // reader, so even a (degenerate) self-union never iterates a structure
  // being destructively updated.
  std::vector<Value> Src = TESSLA_ARG(1).asSet().items();
  SetCow C = TESSLA_ARG(0).setCow(InPlace);
  for (Value &V : Src)
    C.add(std::move(V));
  return std::move(C).finish();
}

Value evalSetDiff(const Value *const *Args, bool InPlace, EvalError &) {
  std::vector<Value> Src = TESSLA_ARG(1).asSet().items();
  SetCow C = TESSLA_ARG(0).setCow(InPlace);
  for (const Value &V : Src)
    C.remove(V);
  return std::move(C).finish();
}

Value evalSetContains(const Value *const *Args, bool, EvalError &) {
  return Value::boolean(TESSLA_ARG(0).asSet().contains(TESSLA_ARG(1)));
}

Value evalSetSize(const Value *const *Args, bool, EvalError &) {
  return Value::integer(
      static_cast<int64_t>(TESSLA_ARG(0).asSet().size()));
}

Value evalMapEmpty(const Value *const *, bool, EvalError &) {
  return Value::emptyMap();
}

Value evalMapPut(const Value *const *Args, bool InPlace, EvalError &) {
  MapCow C = TESSLA_ARG(0).mapCow(InPlace);
  C.put(TESSLA_ARG(1), TESSLA_ARG(2));
  return std::move(C).finish();
}

Value evalMapRemove(const Value *const *Args, bool InPlace, EvalError &) {
  MapCow C = TESSLA_ARG(0).mapCow(InPlace);
  C.remove(TESSLA_ARG(1));
  return std::move(C).finish();
}

Value evalMapGet(const Value *const *Args, bool, EvalError &Err) {
  const Value *Found = TESSLA_ARG(0).asMap().find(TESSLA_ARG(1));
  if (!Found) {
    Err.fail("mapGet: key " + TESSLA_ARG(1).str() + " not present");
    return Value::unit();
  }
  return *Found;
}

Value evalMapGetOrElse(const Value *const *Args, bool, EvalError &) {
  const Value *Found = TESSLA_ARG(0).asMap().find(TESSLA_ARG(1));
  return Found ? *Found : TESSLA_ARG(2);
}

Value evalMapContains(const Value *const *Args, bool, EvalError &) {
  return Value::boolean(TESSLA_ARG(0).asMap().contains(TESSLA_ARG(1)));
}

Value evalMapSize(const Value *const *Args, bool, EvalError &) {
  return Value::integer(
      static_cast<int64_t>(TESSLA_ARG(0).asMap().size()));
}

Value evalQueueEmpty(const Value *const *, bool, EvalError &) {
  return Value::emptyQueue();
}

Value evalQueueEnq(const Value *const *Args, bool InPlace, EvalError &) {
  return queueWithEnq(TESSLA_ARG(0), TESSLA_ARG(1), InPlace);
}

Value evalQueueDeq(const Value *const *Args, bool InPlace, EvalError &Err) {
  return queueWithDeq(TESSLA_ARG(0), InPlace, Err);
}

Value evalQueueFront(const Value *const *Args, bool, EvalError &Err) {
  QueueView Q = TESSLA_ARG(0).asQueue();
  if (Q.empty()) {
    Err.fail("queueFront on empty queue");
    return Value::unit();
  }
  return Q.front();
}

Value evalQueueSize(const Value *const *Args, bool, EvalError &) {
  return Value::integer(
      static_cast<int64_t>(TESSLA_ARG(0).asQueue().size()));
}

Value evalQueueTrim(const Value *const *Args, bool InPlace, EvalError &) {
  return queueTrimmed(TESSLA_ARG(0), TESSLA_ARG(1).getInt(), InPlace);
}

Value evalStrConcat(const Value *const *Args, bool, EvalError &) {
  return Value::string(TESSLA_ARG(0).getString() + TESSLA_ARG(1).getString());
}

Value evalStrLen(const Value *const *Args, bool, EvalError &) {
  return Value::integer(
      static_cast<int64_t>(TESSLA_ARG(0).getString().size()));
}

#undef TESSLA_ARG

} // namespace

BuiltinFn tessla::builtinImpl(BuiltinId Fn) {
  switch (Fn) {
  case BuiltinId::Merge:
    return evalMerge;
  case BuiltinId::Ite:
    return evalIte;
  case BuiltinId::Filter:
    return evalFilter;
  case BuiltinId::Add:
    return evalArith<BuiltinId::Add>;
  case BuiltinId::Sub:
    return evalArith<BuiltinId::Sub>;
  case BuiltinId::Mul:
    return evalArith<BuiltinId::Mul>;
  case BuiltinId::Div:
    return evalArith<BuiltinId::Div>;
  case BuiltinId::Mod:
    return evalArith<BuiltinId::Mod>;
  case BuiltinId::Min:
    return evalArith<BuiltinId::Min>;
  case BuiltinId::Max:
    return evalArith<BuiltinId::Max>;
  case BuiltinId::Neg:
    return evalNeg;
  case BuiltinId::Abs:
    return evalAbs;
  case BuiltinId::Eq:
    return evalEq;
  case BuiltinId::Neq:
    return evalNeq;
  case BuiltinId::Lt:
    return evalLt;
  case BuiltinId::Leq:
    return evalLeq;
  case BuiltinId::Gt:
    return evalGt;
  case BuiltinId::Geq:
    return evalGeq;
  case BuiltinId::LAnd:
    return evalLAnd;
  case BuiltinId::LOr:
    return evalLOr;
  case BuiltinId::LNot:
    return evalLNot;
  case BuiltinId::ToFloat:
    return evalToFloat;
  case BuiltinId::ToInt:
    return evalToInt;
  case BuiltinId::SetEmpty:
    return evalSetEmpty;
  case BuiltinId::SetAdd:
    return evalSetAdd;
  case BuiltinId::SetRemove:
    return evalSetRemove;
  case BuiltinId::SetContains:
    return evalSetContains;
  case BuiltinId::SetSize:
    return evalSetSize;
  case BuiltinId::SetToggle:
    return evalSetToggle;
  case BuiltinId::SetUpdate:
    return evalSetUpdate;
  case BuiltinId::SetUnion:
    return evalSetUnion;
  case BuiltinId::SetDiff:
    return evalSetDiff;
  case BuiltinId::MapEmpty:
    return evalMapEmpty;
  case BuiltinId::MapPut:
    return evalMapPut;
  case BuiltinId::MapRemove:
    return evalMapRemove;
  case BuiltinId::MapGet:
    return evalMapGet;
  case BuiltinId::MapGetOrElse:
    return evalMapGetOrElse;
  case BuiltinId::MapContains:
    return evalMapContains;
  case BuiltinId::MapSize:
    return evalMapSize;
  case BuiltinId::QueueEmpty:
    return evalQueueEmpty;
  case BuiltinId::QueueEnq:
    return evalQueueEnq;
  case BuiltinId::QueueDeq:
    return evalQueueDeq;
  case BuiltinId::QueueFront:
    return evalQueueFront;
  case BuiltinId::QueueSize:
    return evalQueueSize;
  case BuiltinId::QueueTrim:
    return evalQueueTrim;
  case BuiltinId::StrConcat:
    return evalStrConcat;
  case BuiltinId::StrLen:
    return evalStrLen;
  }
  assert(false && "unhandled builtin");
  return evalMerge;
}

Value tessla::applyBuiltin(BuiltinId Fn, const Value *const *Args,
                           unsigned NumArgs, bool InPlace, EvalError &Err) {
  (void)NumArgs;
  return builtinImpl(Fn)(Args, InPlace, Err);
}
