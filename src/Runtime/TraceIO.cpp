//===- Runtime/TraceIO.cpp --------------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/TraceIO.h"

#include "tessla/Runtime/Containers.h"
#include "tessla/Support/Format.h"

using namespace tessla;

static std::string_view trim(std::string_view S) {
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.front())))
    S.remove_prefix(1);
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.back())))
    S.remove_suffix(1);
  return S;
}

std::optional<Value> tessla::parseValueLiteral(std::string_view Text) {
  Text = trim(Text);
  if (Text.empty())
    return std::nullopt;
  if (Text == "()")
    return Value::unit();
  if (Text == "true")
    return Value::boolean(true);
  if (Text == "false")
    return Value::boolean(false);
  if (Text.front() == '"') {
    if (Text.size() < 2 || Text.back() != '"')
      return std::nullopt;
    std::string_view Body = Text.substr(1, Text.size() - 2);
    std::string Out;
    for (size_t I = 0; I != Body.size(); ++I) {
      if (Body[I] != '\\') {
        Out += Body[I];
        continue;
      }
      if (++I == Body.size())
        return std::nullopt;
      switch (Body[I]) {
      case 'n': Out += '\n'; break;
      case 't': Out += '\t'; break;
      case 'r': Out += '\r'; break;
      case '"': Out += '"'; break;
      case '\\': Out += '\\'; break;
      default:
        return std::nullopt;
      }
    }
    return Value::string(std::move(Out));
  }
  int64_t IntVal;
  if (parseInt64(Text, IntVal))
    return Value::integer(IntVal);
  double FloatVal;
  if (parseDouble(Text, FloatVal))
    return Value::floating(FloatVal);
  return std::nullopt;
}

namespace {

/// Recursive-descent parser over canonical Value::str() renderings.
/// Scalars are delegated to parseValueLiteral; aggregates recurse.
class ValueTextParser {
public:
  explicit ValueTextParser(std::string_view S) : S(S) {}

  std::optional<Value> parseWhole() {
    auto V = parseValue();
    if (!V)
      return std::nullopt;
    skipWs();
    if (Pos != S.size())
      return std::nullopt;
    return V;
  }

private:
  std::string_view S;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }
  bool consumeChar(char C) {
    skipWs();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool consumeArrow() {
    skipWs();
    if (Pos + 1 < S.size() && S[Pos] == '-' && S[Pos + 1] == '>') {
      Pos += 2;
      return true;
    }
    return false;
  }

  std::optional<Value> parseValue() {
    skipWs();
    if (Pos >= S.size())
      return std::nullopt;
    char C = S[Pos];
    if (C == '{')
      return parseSetOrMap();
    if (C == '<')
      return parseQueue();
    if (C == '"')
      return parseString();
    return parseScalar();
  }

  std::optional<Value> parseString() {
    size_t Start = Pos;
    ++Pos; // opening quote
    while (Pos < S.size()) {
      if (S[Pos] == '\\') {
        Pos += 2;
        continue;
      }
      if (S[Pos] == '"') {
        ++Pos;
        return parseValueLiteral(S.substr(Start, Pos - Start));
      }
      ++Pos;
    }
    return std::nullopt;
  }

  /// Non-string scalar: extends to the next structural delimiter. A '-'
  /// only terminates as part of a map's "->" — numbers like "1e-5" run
  /// through it.
  std::optional<Value> parseScalar() {
    size_t Start = Pos;
    while (Pos < S.size()) {
      char C = S[Pos];
      if (C == ',' || C == '}' || C == '>')
        break;
      if (C == '-' && Pos + 1 < S.size() && S[Pos + 1] == '>')
        break;
      ++Pos;
    }
    if (Pos == Start)
      return std::nullopt;
    return parseValueLiteral(S.substr(Start, Pos - Start));
  }

  std::optional<Value> parseSetOrMap() {
    ++Pos; // '{'
    if (consumeChar('}'))
      return Value::emptySet(); // "{}": empty set and map render
                                // identically
    auto First = parseValue();
    if (!First)
      return std::nullopt;
    if (consumeArrow())
      return parseMapRest(std::move(*First));
    Value Fresh = Value::emptySet();
    SetCow Set = Fresh.setCow(true);
    Set.add(std::move(*First));
    while (!consumeChar('}')) {
      if (!consumeChar(','))
        return std::nullopt;
      auto Elem = parseValue();
      if (!Elem)
        return std::nullopt;
      Set.add(std::move(*Elem));
    }
    return std::move(Set).finish();
  }

  std::optional<Value> parseMapRest(Value FirstKey) {
    Value Fresh = Value::emptyMap();
    MapCow Map = Fresh.mapCow(true);
    auto FirstVal = parseValue();
    if (!FirstVal)
      return std::nullopt;
    Map.put(std::move(FirstKey), std::move(*FirstVal));
    while (!consumeChar('}')) {
      if (!consumeChar(','))
        return std::nullopt;
      auto Key = parseValue();
      if (!Key || !consumeArrow())
        return std::nullopt;
      auto Val = parseValue();
      if (!Val)
        return std::nullopt;
      Map.put(std::move(*Key), std::move(*Val));
    }
    return std::move(Map).finish();
  }

  std::optional<Value> parseQueue() {
    ++Pos; // '<'
    Value Fresh = Value::emptyQueue();
    QueueCow Queue = Fresh.queueCow(true);
    if (consumeChar('>'))
      return std::move(Queue).finish();
    while (true) {
      auto Elem = parseValue();
      if (!Elem)
        return std::nullopt;
      Queue.enqueue(std::move(*Elem));
      if (consumeChar('>'))
        return std::move(Queue).finish();
      if (!consumeChar(','))
        return std::nullopt;
    }
  }
};

} // namespace

std::optional<Value> tessla::parseValueText(std::string_view Text) {
  return ValueTextParser(trim(Text)).parseWhole();
}

std::optional<std::vector<TraceEvent>>
tessla::parseTrace(std::string_view Text, const Spec &S,
                   DiagnosticEngine &Diags) {
  std::vector<TraceEvent> Events;
  unsigned Before = Diags.errorCount();
  uint32_t LineNo = 0;

  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Line = trim(Text.substr(Pos, End - Pos));
    Pos = End + 1;
    ++LineNo;
    if (Line.empty() || Line.front() == '#' || Line.substr(0, 2) == "--")
      continue;
    SourceLocation Loc(LineNo, 1);

    size_t Colon = Line.find(':');
    if (Colon == std::string_view::npos) {
      Diags.error(Loc, "expected 'ts: name = value'");
      continue;
    }
    int64_t Ts;
    if (!parseInt64(trim(Line.substr(0, Colon)), Ts) || Ts < 0) {
      Diags.error(Loc, "invalid timestamp");
      continue;
    }
    std::string_view Rest = Line.substr(Colon + 1);
    size_t Equal = Rest.find('=');
    if (Equal == std::string_view::npos) {
      Diags.error(Loc, "expected '= value'");
      continue;
    }
    std::string_view Name = trim(Rest.substr(0, Equal));
    auto Id = S.lookup(Name);
    if (!Id || S.stream(*Id).Kind != StreamKind::Input) {
      Diags.error(Loc, formatString("'%.*s' is not an input stream",
                                    static_cast<int>(Name.size()),
                                    Name.data()));
      continue;
    }
    auto V = parseValueLiteral(Rest.substr(Equal + 1));
    if (!V) {
      Diags.error(Loc, "invalid value literal");
      continue;
    }
    Events.emplace_back(*Id, Ts, std::move(*V));
  }
  if (Diags.errorCount() != Before)
    return std::nullopt;
  return Events;
}

std::string tessla::formatEvent(const Spec &S, const OutputEvent &E) {
  return formatString("%lld: %s = %s", static_cast<long long>(E.Ts),
                      S.stream(E.Id).Name.c_str(), E.V.str().c_str());
}

std::string tessla::formatOutputs(const Spec &S,
                                  const std::vector<OutputEvent> &Events) {
  std::string Out;
  for (const OutputEvent &E : Events) {
    Out += formatEvent(S, E);
    Out += '\n';
  }
  return Out;
}

EventBatch tessla::toBatch(const std::vector<TraceEvent> &Events,
                           SessionId Session) {
  EventBatch B;
  B.Records.reserve(Events.size());
  for (const auto &[Id, Ts, V] : Events)
    B.Records.push_back({Session, Id, Ts, V});
  return B;
}

bool tessla::feedBatch(Monitor &M, const EventBatch &B) {
  for (const EventRecord &R : B.Records)
    if (!M.feed(R.Input, R.Ts, R.V))
      return false;
  return true;
}

std::vector<OutputEvent>
tessla::runMonitor(const Program &Prog, const EventBatch &Batch,
                   std::optional<Time> Horizon, std::string *ErrorOut) {
  Monitor M(Prog);
  std::vector<OutputEvent> Out;
  M.setOutputHandler([&Out](Time Ts, StreamId Id, const Value &V) {
    // The copy shares the root, so later updates path-copy.
    Out.push_back({Ts, Id, V});
  });
  feedBatch(M, Batch);
  M.finish(Horizon);
  if (ErrorOut)
    *ErrorOut = M.failed() ? M.errorMessage() : "";
  return Out;
}
