//===- CodeGen/NativeCompile.cpp --------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/CodeGen/NativeCompile.h"

#include "tessla/CodeGen/CppEmitter.h"
#include "tessla/Program/Serialize.h"
#include "tessla/Runtime/TraceIO.h"
#include "tessla/Support/Format.h"

#include <cstdlib>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>

using namespace tessla;
namespace fs = std::filesystem;

// Baked in by src/CMakeLists.txt so a freshly built tree can compile
// generated monitors without any environment setup.
#ifndef TESSLA_NATIVE_CXX_DEFAULT
#define TESSLA_NATIVE_CXX_DEFAULT "c++"
#endif
#ifndef TESSLA_NATIVE_INCLUDE_DIR
#define TESSLA_NATIVE_INCLUDE_DIR ""
#endif

namespace {

std::string envOr(const char *Name, std::string Fallback) {
  if (const char *V = std::getenv(Name); V && *V)
    return V;
  return Fallback;
}

std::string compilerFor(const NativeCompileOptions &Opts) {
  if (!Opts.Compiler.empty())
    return Opts.Compiler;
  return envOr("TESSLA_NATIVE_CXX", TESSLA_NATIVE_CXX_DEFAULT);
}

std::string includeDirFor() {
  return envOr("TESSLA_NATIVE_INCLUDE", TESSLA_NATIVE_INCLUDE_DIR);
}

std::string cacheDirFor(const NativeCompileOptions &Opts) {
  if (!Opts.CacheDir.empty())
    return Opts.CacheDir;
  std::string Tmp = envOr("TMPDIR", "/tmp");
  return envOr("TESSLA_NATIVE_CACHE_DIR", Tmp + "/tessla-native-cache");
}

/// The Program checksum: FNV-1a-64 over the deterministic .tpb bytes —
/// the same stamp the shim bakes into tessla_native_checksum().
uint64_t programChecksum(const Program &P) {
  std::vector<uint8_t> Bytes = serializeProgram(P);
  return tpbChecksum(Bytes.data(), Bytes.size());
}

/// The cache key additionally salts in everything that changes the
/// produced binary without changing the Program.
uint64_t cacheKey(uint64_t Checksum, const NativeCompileOptions &Opts) {
  std::string Salt = formatString("%llu|abi%lld|%s|%s",
                                  static_cast<unsigned long long>(Checksum),
                                  static_cast<long long>(NativeShimAbiVersion),
                                  compilerFor(Opts).c_str(),
                                  Opts.ExtraFlags.c_str());
  return tpbChecksum(reinterpret_cast<const uint8_t *>(Salt.data()),
                     Salt.size());
}

std::string cachePath(const Program &P, const NativeCompileOptions &Opts) {
  return cacheDirFor(Opts) +
         formatString("/tessla-native-%016llx.so",
                      static_cast<unsigned long long>(
                          cacheKey(programChecksum(P), Opts)));
}

} // namespace

std::shared_ptr<NativeMonitorLibrary>
NativeMonitorLibrary::open(const std::string &Path, uint64_t WantChecksum,
                           std::string &ErrorOut) {
  void *H = dlopen(Path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H) {
    ErrorOut = formatString("dlopen failed: %s", dlerror());
    return nullptr;
  }
  // Deleter-based shared_ptr so every early-return path dlcloses.
  auto Lib = std::shared_ptr<NativeMonitorLibrary>(
      new NativeMonitorLibrary(), [](NativeMonitorLibrary *L) { delete L; });
  Lib->Handle = H;
  Lib->Path = Path;

  auto Resolve = [&](const char *Sym) -> void * {
    return dlsym(H, Sym);
  };
  auto *AbiFn =
      reinterpret_cast<int64_t (*)()>(Resolve("tessla_native_abi"));
  auto *ChecksumFn =
      reinterpret_cast<uint64_t (*)()>(Resolve("tessla_native_checksum"));
  Lib->create = reinterpret_cast<decltype(Lib->create)>(
      Resolve("tessla_native_create"));
  Lib->feed =
      reinterpret_cast<decltype(Lib->feed)>(Resolve("tessla_native_feed"));
  Lib->finish = reinterpret_cast<decltype(Lib->finish)>(
      Resolve("tessla_native_finish"));
  Lib->error = reinterpret_cast<decltype(Lib->error)>(
      Resolve("tessla_native_error"));
  Lib->numOutputs = reinterpret_cast<decltype(Lib->numOutputs)>(
      Resolve("tessla_native_num_outputs"));
  Lib->destroy = reinterpret_cast<decltype(Lib->destroy)>(
      Resolve("tessla_native_destroy"));
  Lib->numInputs = reinterpret_cast<decltype(Lib->numInputs)>(
      Resolve("tessla_native_num_inputs"));
  Lib->inputName = reinterpret_cast<decltype(Lib->inputName)>(
      Resolve("tessla_native_input_name"));

  if (!AbiFn || !ChecksumFn || !Lib->create || !Lib->feed || !Lib->finish ||
      !Lib->error || !Lib->numOutputs || !Lib->destroy || !Lib->numInputs ||
      !Lib->inputName) {
    ErrorOut = "missing tessla_native_* entry points";
    return nullptr;
  }
  if (AbiFn() != NativeShimAbiVersion) {
    ErrorOut = formatString("shim ABI mismatch: library has v%lld, "
                            "loader wants v%lld",
                            static_cast<long long>(AbiFn()),
                            static_cast<long long>(NativeShimAbiVersion));
    return nullptr;
  }
  if (ChecksumFn() != WantChecksum) {
    ErrorOut = formatString(
        "program checksum mismatch: library stamped %016llx, "
        "program is %016llx",
        static_cast<unsigned long long>(ChecksumFn()),
        static_cast<unsigned long long>(WantChecksum));
    return nullptr;
  }
  Lib->Checksum = WantChecksum;
  return Lib;
}

namespace {

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Emit + compile into the cache slot. Returns true on success.
bool buildInto(const Program &P, const NativeCompileOptions &Opts,
               uint64_t Checksum, const std::string &Target,
               std::string &ErrorOut) {
  std::string Inc = includeDirFor();
  if (Inc.empty() || !fs::exists(Inc + "/tessla/CodeGen/RuntimeSupport.h")) {
    ErrorOut = formatString(
        "runtime-support headers not found under '%s' (set "
        "TESSLA_NATIVE_INCLUDE to the repository's include/ directory)",
        Inc.c_str());
    return false;
  }

  CppEmitterOptions EmitOpts;
  EmitOpts.ClassName = "TesslaNativeMonitor";
  EmitOpts.EmitNativeShim = true;
  EmitOpts.ShimChecksum = Checksum;
  DiagnosticEngine Diags;
  std::optional<std::string> Source = emitCppMonitor(P, EmitOpts, Diags);
  if (!Source) {
    ErrorOut = "the C++ backend does not support this program";
    for (const Diagnostic &D : Diags.diagnostics())
      ErrorOut += "; " + D.Message;
    return false;
  }

  std::error_code Ec;
  fs::create_directories(fs::path(Target).parent_path(), Ec);
  if (Ec) {
    ErrorOut = "cannot create cache directory: " + Ec.message();
    return false;
  }

  // Hermetic scratch directory next to the cache slot so the final
  // rename() stays on one filesystem (atomic publish).
  std::string Template =
      (fs::path(Target).parent_path() / "build-XXXXXX").string();
  std::vector<char> Dir(Template.begin(), Template.end());
  Dir.push_back('\0');
  if (!mkdtemp(Dir.data())) {
    ErrorOut = "mkdtemp failed for the native build directory";
    return false;
  }
  std::string Work(Dir.data());
  auto Cleanup = [&] { fs::remove_all(Work, Ec); };

  std::string Src = Work + "/monitor.cpp";
  std::string Obj = Work + "/monitor.so";
  std::string ErrFile = Work + "/compile.err";
  {
    std::ofstream Out(Src);
    Out << *Source;
    if (!Out) {
      ErrorOut = "cannot write the generated source";
      Cleanup();
      return false;
    }
  }

  std::string Cmd = compilerFor(Opts) +
                    " -std=c++20 -O2 -fPIC -shared"
                    " -I'" + Inc + "'"
                    " '" + Src + "' -o '" + Obj + "'" +
                    (Opts.ExtraFlags.empty() ? "" : " " + Opts.ExtraFlags) +
                    " 2>'" + ErrFile + "'";
  int Rc = std::system(Cmd.c_str());
  int Exit = (Rc >= 0 && WIFEXITED(Rc)) ? WEXITSTATUS(Rc) : -1;
  if (Exit != 0) {
    std::string Stderr = readWholeFile(ErrFile);
    if (Stderr.size() > 800)
      Stderr = Stderr.substr(0, 800) + "...";
    if (Exit == 127)
      ErrorOut = formatString("native compiler '%s' not found",
                              compilerFor(Opts).c_str());
    else
      ErrorOut = formatString("native compiler '%s' failed (exit %d): %s",
                              compilerFor(Opts).c_str(), Exit,
                              Stderr.c_str());
    Cleanup();
    return false;
  }

  fs::rename(Obj, Target, Ec);
  if (Ec) {
    ErrorOut = "cannot publish the native library: " + Ec.message();
    Cleanup();
    return false;
  }
  Cleanup();
  return true;
}

/// The native ShardEngine: one shim instance per lane, all Monitor::feed
/// validation re-run host-side (the generated feed keeps only a weak
/// ordering backstop), outputs lifted back into Values via
/// parseValueText so downstream comparison and printing are engine-
/// agnostic.
class NativeShardEngine final : public ShardEngine {
public:
  NativeShardEngine(std::shared_ptr<NativeMonitorLibrary> Lib,
                    const Program &Prog, bool CollectOutputs)
      : Lib(std::move(Lib)), Prog(Prog), CollectOutputs(CollectOutputs) {
    const Spec &S = Prog.spec();
    const std::vector<StreamId> &Inputs = S.inputs();
    for (size_t I = 0; I != Inputs.size(); ++I)
      InputIndex[Inputs[I]] = static_cast<int32_t>(I);
    for (const OutputSlot &O : Prog.outputs())
      OutIdOf[S.stream(O.Id).Name] = O.Id;
  }

  ~NativeShardEngine() override {
    // Instances must die before the library (shared_ptr member order
    // alone is not enough: destroy() lives inside the .so).
    for (auto &Lane : Lanes)
      if (Lane->Inst)
        Lib->destroy(Lane->Inst);
    Lanes.clear();
  }

  unsigned addLane(SessionId Session) override {
    unsigned L;
    if (!FreeLanes.empty()) {
      L = FreeLanes.back();
      FreeLanes.pop_back();
      *Lanes[L] = LaneData();
    } else {
      L = static_cast<unsigned>(Lanes.size());
      Lanes.push_back(std::make_unique<LaneData>());
    }
    LaneData &D = *Lanes[L];
    D.Owner = this;
    D.Session = Session;
    D.Present.assign(Prog.numValueSlots() + 1, 0);
    D.Inst = Lib->create(CollectOutputs ? &NativeShardEngine::onOutput
                                        : nullptr,
                         &D);
    D.Live = true;
    return L;
  }

  bool feed(unsigned Lane, StreamId Input, Time Ts, Value V) override {
    LaneData &D = *Lanes[Lane];
    // Monitor::feed's validation, in its exact order and wording; the
    // shared object only flushes and applies.
    if (D.Failed)
      return false;
    if (EngineFinished)
      return fail(D, "feed() after finish()");
    SlotId Slot = Prog.valueSlot(Input);
    if (Ts < 0)
      return failAt(D, Ts, Input, "timestamps must be non-negative");
    if (Ts < D.PendingTs || (D.CalcDone && Ts == D.PendingTs))
      return failAt(D, Ts, Input,
                    "input events must arrive in timestamp order");
    bool Advance = Ts > D.PendingTs;
    if (!Advance && D.Present[Slot])
      return failAt(D, Ts, Input,
                    "two events on one stream at the same timestamp");
    if (!callFeed(D, Input, Ts, V))
      return false;
    if (Advance) {
      D.PendingTs = Ts;
      D.CalcDone = false;
      std::fill(D.Present.begin(), D.Present.end(), 0);
    }
    D.Present[Slot] = 1;
    ++D.NumFed;
    return true;
  }

  void finishAll(std::optional<Time> Horizon) override {
    for (auto &LanePtr : Lanes) {
      LaneData &D = *LanePtr;
      if (!D.Live || D.Failed)
        continue;
      int32_t Ok = Lib->finish(D.Inst, Horizon ? *Horizon : 0,
                               Horizon ? 1 : 0);
      if (!Ok)
        takeNativeError(D);
      else
        checkCallback(D);
    }
    EngineFinished = true;
  }

  SessionId laneSession(unsigned Lane) const override {
    return Lanes[Lane]->Session;
  }
  bool laneFailed(unsigned Lane) const override {
    return Lanes[Lane]->Failed;
  }
  const std::string &laneError(unsigned Lane) const override {
    return Lanes[Lane]->Error;
  }
  uint64_t laneInputEvents(unsigned Lane) const override {
    return Lanes[Lane]->NumFed;
  }
  uint64_t laneOutputEvents(unsigned Lane) const override {
    return Lib->numOutputs(Lanes[Lane]->Inst);
  }

  std::vector<OutputEvent> takeLaneOutputs(unsigned Lane) override {
    return std::move(Lanes[Lane]->Outputs);
  }

  const char *name() const override { return "native"; }

private:
  struct LaneData {
    NativeShardEngine *Owner = nullptr;
    void *Inst = nullptr;
    SessionId Session = 0;
    Time PendingTs = 0;
    bool CalcDone = false;
    bool Failed = false;
    bool Live = false;
    std::string Error;
    std::string CallbackError;
    uint64_t NumFed = 0;
    std::vector<char> Present; // duplicate-event mirror, per value slot
    std::vector<OutputEvent> Outputs;
  };

  // Destruction order: Lanes (and their instances) are torn down in the
  // destructor body above, strictly before this handle can drop the
  // shared object.
  std::shared_ptr<NativeMonitorLibrary> Lib;
  const Program &Prog;
  const bool CollectOutputs;
  std::unordered_map<StreamId, int32_t> InputIndex;
  std::unordered_map<std::string, StreamId> OutIdOf;
  std::vector<std::unique_ptr<LaneData>> Lanes;
  std::vector<unsigned> FreeLanes;
  bool EngineFinished = false;

  static void onOutput(void *Ctx, int64_t Ts, const char *Stream,
                       const char *ValueText) {
    auto *D = static_cast<LaneData *>(Ctx);
    auto It = D->Owner->OutIdOf.find(Stream);
    std::optional<Value> V = parseValueText(ValueText);
    if (It == D->Owner->OutIdOf.end() || !V) {
      if (D->CallbackError.empty())
        D->CallbackError = formatString(
            "native output '%s = %s' does not lift back into a value",
            Stream, ValueText);
      return;
    }
    D->Outputs.push_back({Ts, It->second, std::move(*V)});
  }

  bool fail(LaneData &D, std::string Message) {
    D.Failed = true;
    D.Error = std::move(Message);
    return false;
  }
  bool failAt(LaneData &D, Time Ts, StreamId Id,
              const std::string &Message) {
    return fail(D, formatString("at t=%lld, stream '%s': %s",
                                static_cast<long long>(Ts),
                                Prog.spec().stream(Id).Name.c_str(),
                                Message.c_str()));
  }
  void takeNativeError(LaneData &D) {
    const char *Err = Lib->error(D.Inst);
    D.Failed = true;
    D.Error = Err ? Err : "native monitor failed without a message";
  }
  /// Output lifting runs inside the native call; surface its failure
  /// only after the call returns.
  bool checkCallback(LaneData &D) {
    if (D.CallbackError.empty())
      return true;
    return fail(D, std::move(D.CallbackError));
  }

  bool callFeed(LaneData &D, StreamId Input, Time Ts, const Value &V) {
    int64_t IntV = 0;
    double FloatV = 0;
    const char *StrV = nullptr;
    int32_t BoolV = 0;
    switch (V.kind()) {
    case Value::Kind::Int:
      IntV = V.getInt();
      break;
    case Value::Kind::Float:
      FloatV = V.getFloat();
      break;
    case Value::Kind::Bool:
      BoolV = V.getBool() ? 1 : 0;
      break;
    case Value::Kind::String:
      StrV = V.getString().c_str();
      break;
    default:
      break; // Unit carries no payload; aggregates fail emission
    }
    int32_t Ok = Lib->feed(D.Inst, InputIndex.at(Input), Ts, IntV, FloatV,
                           StrV, BoolV);
    if (!Ok) {
      takeNativeError(D);
      return false;
    }
    return checkCallback(D);
  }
};

} // namespace

NativeMonitorLibrary::~NativeMonitorLibrary() {
  if (Handle)
    dlclose(Handle);
}

std::string tessla::nativeCachePathFor(const Program &P,
                                       const NativeCompileOptions &Opts) {
  return cachePath(P, Opts);
}

std::shared_ptr<NativeMonitorLibrary>
tessla::compileNative(const Program &P, const NativeCompileOptions &Opts,
                      std::string &ErrorOut) {
  ErrorOut.clear();
  uint64_t Checksum = programChecksum(P);
  std::string Target = cachePath(P, Opts);

  if (!Opts.Force && fs::exists(Target)) {
    std::string CacheErr;
    if (auto Lib = NativeMonitorLibrary::open(Target, Checksum, CacheErr))
      return Lib;
    // Stale or corrupt cache entry (failed dlopen, wrong stamp): drop
    // it and rebuild once.
    std::error_code Ec;
    fs::remove(Target, Ec);
  }

  if (!buildInto(P, Opts, Checksum, Target, ErrorOut))
    return nullptr;
  auto Lib = NativeMonitorLibrary::open(Target, Checksum, ErrorOut);
  if (!Lib)
    ErrorOut = "freshly built native library is unusable: " + ErrorOut;
  return Lib;
}

EngineFactory
tessla::makeNativeEngineFactory(std::shared_ptr<NativeMonitorLibrary> Lib) {
  if (!Lib)
    return nullptr;
  return [Lib](const Program &Prog, bool CollectOutputs) {
    return std::unique_ptr<ShardEngine>(
        new NativeShardEngine(Lib, Prog, CollectOutputs));
  };
}

EngineFactory
tessla::makeNativeEngineFactory(const Program &P,
                                const NativeCompileOptions &Opts,
                                std::string &ErrorOut) {
  return makeNativeEngineFactory(compileNative(P, Opts, ErrorOut));
}
