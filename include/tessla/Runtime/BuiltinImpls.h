//===- tessla/Runtime/BuiltinImpls.h - Lifted function eval ----*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluation of built-in lifted functions over runtime values. Every
/// aggregate-writing builtin has two modes selected by the mutability
/// analysis:
///
///  * persistent (InPlace = false): the argument payload is left
///    untouched; the result is a fresh handle around the persistent
///    structure's updated version (path copying);
///  * destructive (InPlace = true): when argument 0's root is uniquely
///    owned, its structure is updated in place and the result keeps that
///    root — the "destructive update" of §I. The interpreter passes true
///    only for an argument 0 it moved out of a dead slot (see
///    Runtime/Containers.h).
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_BUILTINIMPLS_H
#define TESSLA_RUNTIME_BUILTINIMPLS_H

#include "tessla/Runtime/Containers.h"

namespace tessla {

/// Collects the first runtime evaluation error (division by zero, missing
/// map key, empty queue, dynamic type mismatch).
struct EvalError {
  bool Failed = false;
  std::string Message;

  void fail(std::string Msg) {
    if (!Failed) {
      Failed = true;
      Message = std::move(Msg);
    }
  }
};

/// Uniform evaluator signature shared by every builtin: \p Args holds the
/// argument pointers (entries may be null only for builtins with optional
/// presence, i.e. EventSemantics::FirstAndAnyRest); \p InPlace selects the
/// destructive mode for aggregate updates and the representation of
/// freshly created aggregates. On error, sets \p Err and returns unit.
using BuiltinFn = Value (*)(const Value *const *Args, bool InPlace,
                            EvalError &Err);

/// Returns the evaluator for \p Fn — the compile-time half of the
/// interpreter's dispatch. Program::compile resolves every lift step to
/// its function pointer once, so the per-event hot path never switches
/// over BuiltinId.
BuiltinFn builtinImpl(BuiltinId Fn);

/// One-shot convenience wrapper: builtinImpl(Fn)(Args, InPlace, Err).
Value applyBuiltin(BuiltinId Fn, const Value *const *Args, unsigned NumArgs,
                   bool InPlace, EvalError &Err);

} // namespace tessla

#endif // TESSLA_RUNTIME_BUILTINIMPLS_H
