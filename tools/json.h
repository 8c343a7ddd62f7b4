// The minimal JSON reader shared by the standalone tools (metrics_check,
// orion_trace): a recursive-descent parser for the dialect the engine's
// exporters write, plus whole-file reading.  The tools validate exporter
// output, so this reader shares no code with the exporters.
//
// Each tool that includes this header defines `tools::Fail`.

#ifndef ORION_TOOLS_JSON_H_
#define ORION_TOOLS_JSON_H_

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace tools {

/// Prints `message` as this tool's failure and exits with status 1.
[[noreturn]] void Fail(const std::string& message);

inline std::string ReadFile(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Fail(std::string("cannot open ") + path);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipSpace();
    if (pos_ != text_.size()) {
      Fail("trailing bytes after JSON document at offset " +
           std::to_string(pos_));
    }
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of JSON input");
    }
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(std::string("expected '") + c + "' at offset " +
           std::to_string(pos_) + ", found '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  JsonValue ParseValue() {
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.str = ParseString();
        return v;
      }
      case 't':
      case 'f':
        return ParseBool();
      case 'n':
        ParseLiteral("null");
        return JsonValue{};
      default:
        return ParseNumber();
    }
  }

  void ParseLiteral(const char* lit) {
    SkipSpace();
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        Fail(std::string("bad literal, expected ") + lit);
      }
    }
  }

  JsonValue ParseBool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_[pos_] == 't') {
      ParseLiteral("true");
      v.b = true;
    } else {
      ParseLiteral("false");
      v.b = false;
    }
    return v;
  }

  JsonValue ParseNumber() {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("bad JSON number at offset " + std::to_string(pos_));
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return v;
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          Fail("unterminated escape in JSON string");
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u':
            if (pos_ + 4 > text_.size()) {
              Fail("truncated \\u escape");
            }
            out.push_back('?');  // the exporters never emit non-ASCII
            pos_ += 4;
            break;
          default:
            Fail(std::string("bad escape \\") + esc);
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= text_.size()) {
      Fail("unterminated JSON string");
    }
    ++pos_;  // closing quote
    return out;
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(ParseValue());
      const char c = Peek();
      ++pos_;
      if (c == ']') {
        return v;
      }
      if (c != ',') {
        Fail("expected ',' or ']' in JSON array");
      }
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = ParseString();
      Expect(':');
      v.object.emplace(std::move(key), ParseValue());
      const char c = Peek();
      ++pos_;
      if (c == '}') {
        return v;
      }
      if (c != ',') {
        Fail("expected ',' or '}' in JSON object");
      }
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace tools

#endif  // ORION_TOOLS_JSON_H_
