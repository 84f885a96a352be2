#include "svc/json.hpp"

#include <cctype>
#include <charconv>
#include <cstddef>

#include "sim/error.hpp"

namespace offramps::svc::json {

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Value::number_or(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->kind == Kind::kNumber) ? v->number : fallback;
}

bool Value::bool_or(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->kind == Kind::kBool) ? v->boolean : fallback;
}

std::string Value::string_or(const std::string& key,
                             std::string fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->kind == Kind::kString) ? v->string
                                                    : std::move(fallback);
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing data after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    skip_ws();
    // Recursion depth is bounded to keep a hostile spec file from
    // overflowing the stack.
    if (depth_ > kMaxParseDepth) fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Value v;
        v.kind = Value::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (consume_literal("true")) {
          Value v;
          v.kind = Value::Kind::kBool;
          v.boolean = true;
          return v;
        }
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) {
          Value v;
          v.kind = Value::Kind::kBool;
          return v;
        }
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value{};
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    ++depth_;
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.fields.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    ++depth_;
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': out += parse_control_escape(); break;
          default: fail("bad escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      out += c;
    }
  }

  /// The four hex digits after "\u".  Only control characters decode:
  /// they are what the report writers escape this way.
  char parse_control_escape() {
    if (text_.size() - pos_ < 4) fail("unterminated escape");
    unsigned code = 0;
    const char* hex = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(hex, hex + 4, code, 16);
    if (ec != std::errc{} || ptr != hex + 4) fail("bad \\u escape");
    if (code >= 0x20) {
      fail("\\u escapes other than control characters are not supported");
    }
    pos_ += 4;
    return static_cast<char>(code);
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    Value v;
    v.kind = Value::Kind::kNumber;
    const auto [ptr, ec] = std::from_chars(
        text_.data() + start, text_.data() + pos_, v.number);
    if (ec != std::errc{} || ptr != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("malformed number");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace offramps::svc::json
