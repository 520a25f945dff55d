//===- net/Json.cpp - Minimal JSON value + parser ----------------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Json.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

using namespace llsc;
using namespace llsc::net;

const JsonValue &JsonValue::get(const std::string &Key) const {
  static const JsonValue Null;
  if (K != Kind::Object)
    return Null;
  auto It = Obj.find(Key);
  return It == Obj.end() ? Null : It->second;
}

JsonValue JsonValue::boolean(bool V) {
  JsonValue J;
  J.K = Kind::Bool;
  J.B = V;
  return J;
}
JsonValue JsonValue::integer(int64_t V) {
  JsonValue J;
  J.K = Kind::Int;
  J.I = V;
  return J;
}
JsonValue JsonValue::number(double V) {
  JsonValue J;
  J.K = Kind::Double;
  J.D = V;
  return J;
}
JsonValue JsonValue::string(std::string V) {
  JsonValue J;
  J.K = Kind::String;
  J.S = std::move(V);
  return J;
}
JsonValue JsonValue::array() {
  JsonValue J;
  J.K = Kind::Array;
  return J;
}
JsonValue JsonValue::object() {
  JsonValue J;
  J.K = Kind::Object;
  return J;
}

std::string net::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

namespace {

/// Recursive-descent parser over a string_view. Depth-limited so a
/// hostile "[[[[..." line cannot blow the daemon's stack.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  ErrorOr<JsonValue> run() {
    auto V = parseValue(0);
    if (!V)
      return V;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing garbage after JSON value");
    return V;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  Error fail(const char *Msg) {
    return makeError("json: %s at offset %zu", Msg, Pos);
  }

  void skipWs() {
    while (Pos < Text.size() && std::isspace(
                                    static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool consumeWord(std::string_view W) {
    if (Text.substr(Pos, W.size()) == W) {
      Pos += W.size();
      return true;
    }
    return false;
  }

  ErrorOr<JsonValue> parseValue(unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return parseObject(Depth);
    if (C == '[')
      return parseArray(Depth);
    if (C == '"') {
      auto S = parseString();
      if (!S)
        return S.error();
      return JsonValue::string(std::move(*S));
    }
    if (consumeWord("true"))
      return JsonValue::boolean(true);
    if (consumeWord("false"))
      return JsonValue::boolean(false);
    if (consumeWord("null"))
      return JsonValue::null();
    return parseNumber();
  }

  ErrorOr<JsonValue> parseObject(unsigned Depth) {
    JsonValue Obj = JsonValue::object();
    ++Pos; // '{'
    skipWs();
    if (consume('}'))
      return Obj;
    while (true) {
      skipWs();
      auto Key = parseString();
      if (!Key)
        return Key.error();
      skipWs();
      if (!consume(':'))
        return fail("expected ':' in object");
      auto Val = parseValue(Depth + 1);
      if (!Val)
        return Val;
      Obj.membersMut()[std::move(*Key)] = std::move(*Val);
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return Obj;
      return fail("expected ',' or '}' in object");
    }
  }

  ErrorOr<JsonValue> parseArray(unsigned Depth) {
    JsonValue Arr = JsonValue::array();
    ++Pos; // '['
    skipWs();
    if (consume(']'))
      return Arr;
    while (true) {
      auto Val = parseValue(Depth + 1);
      if (!Val)
        return Val;
      Arr.itemsMut().push_back(std::move(*Val));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return Arr;
      return fail("expected ',' or ']' in array");
    }
  }

  ErrorOr<std::string> parseString() {
    if (!consume('"'))
      return fail("expected string");
    std::string Out;
    while (Pos < Text.size()) {
      // Copy the run of plain bytes up to the next quote or escape in
      // one append.
      size_t RunEnd = Text.find_first_of("\"\\", Pos);
      if (RunEnd == std::string_view::npos)
        RunEnd = Text.size();
      Out.append(Text.data() + Pos, RunEnd - Pos);
      Pos = RunEnd;
      if (Pos >= Text.size())
        break;
      char C = Text[Pos++];
      if (C == '"')
        return Out;
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (unsigned I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad hex digit in \\u escape");
        }
        // UTF-8 encode the BMP code point (surrogate pairs land as two
        // 3-byte sequences — good enough for diagnostics text).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown string escape");
      }
    }
    return fail("unterminated string");
  }

  ErrorOr<JsonValue> parseNumber() {
    size_t Start = Pos;
    if (consume('-')) {
    }
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    bool IsDouble = false;
    if (Pos < Text.size() && (Text[Pos] == '.' || Text[Pos] == 'e' ||
                              Text[Pos] == 'E')) {
      IsDouble = true;
      while (Pos < Text.size() &&
             (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
              Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
              Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
    }
    if (Pos == Start)
      return fail("expected value");
    std::string Num(Text.substr(Start, Pos - Start));
    if (!IsDouble) {
      errno = 0;
      char *End = nullptr;
      long long V = std::strtoll(Num.c_str(), &End, 10);
      if (errno == 0 && End && *End == '\0')
        return JsonValue::integer(V);
      // Fall through on overflow: represent as double.
    }
    char *End = nullptr;
    double D = std::strtod(Num.c_str(), &End);
    if (!End || *End != '\0')
      return fail("malformed number");
    return JsonValue::number(D);
  }

  std::string_view Text;
  size_t Pos = 0;
};

void renderTo(const JsonValue &V, std::string &Out) {
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    Out += "null";
    break;
  case JsonValue::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    break;
  case JsonValue::Kind::Int: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%" PRId64, V.asInt());
    Out += Buf;
    break;
  }
  case JsonValue::Kind::Double: {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V.asDouble());
    Out += Buf;
    break;
  }
  case JsonValue::Kind::String:
    Out += '"';
    Out += jsonEscape(V.asString());
    Out += '"';
    break;
  case JsonValue::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const JsonValue &Item : V.items()) {
      if (!First)
        Out += ',';
      First = false;
      renderTo(Item, Out);
    }
    Out += ']';
    break;
  }
  case JsonValue::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &Member : V.members()) {
      if (!First)
        Out += ',';
      First = false;
      Out += '"';
      Out += jsonEscape(Member.first);
      Out += "\":";
      renderTo(Member.second, Out);
    }
    Out += '}';
    break;
  }
  }
}

} // namespace

ErrorOr<JsonValue> JsonValue::parse(std::string_view Text) {
  return Parser(Text).run();
}

std::string JsonValue::render() const {
  std::string Out;
  renderTo(*this, Out);
  return Out;
}
