// Minimal internal JSON reader and writer helpers shared by the obs
// artifacts (report.cpp, audit.cpp, log.cpp) and their tests. Header-only,
// recursive descent over a value tree, no external dependency. Deliberately
// NOT installed under include/ — the public surface stays
// parse_report/parse_audit_bundle; this is plumbing for round-tripping our
// own artifacts.
#pragma once

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "gridsec/util/error.hpp"

namespace gridsec::obs::json {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  // Map keeps insertion order irrelevant; artifact keys are unique.
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    const auto it = object.find(key);
    return it != object.end() ? &it->second : nullptr;
  }
  [[nodiscard]] double number_or(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  [[nodiscard]] std::string string_or(std::string fallback) const {
    return kind == Kind::kString ? string : std::move(fallback);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> parse() {
    JsonValue v;
    const Status st = parse_value(&v);
    if (!st.is_ok()) return st;
    skip_ws();
    if (pos_ != text_.size()) {
      return error("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status parse_value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': out->kind = JsonValue::Kind::kString;
                return parse_string(&out->string);
      case 't': return parse_literal("true", out, true);
      case 'f': return parse_literal("false", out, false);
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          out->kind = JsonValue::Kind::kNull;
          return Status::ok();
        }
        return error("bad literal");
      default: return parse_number(out);
    }
  }

  Status parse_literal(const char* word, JsonValue* out, bool value) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return error("bad literal");
    pos_ += n;
    out->kind = JsonValue::Kind::kBool;
    out->boolean = value;
    return Status::ok();
  }

  Status parse_number(JsonValue* out) {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return error("malformed number");
    pos_ += static_cast<std::size_t>(end - begin);
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    return Status::ok();
  }

  Status parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return error("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else return error("bad \\u escape");
          }
          // Our writers only emit \u for control characters; keep it simple.
          out->push_back(static_cast<char>(code & 0x7f));
          break;
        }
        default: return error("unknown escape");
      }
    }
    return error("unterminated string");
  }

  Status parse_array(JsonValue* out) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::ok();
    }
    while (true) {
      JsonValue element;
      const Status st = parse_value(&element);
      if (!st.is_ok()) return st;
      out->array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return error("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return Status::ok();
      if (c != ',') return error("expected ',' or ']' in array");
    }
  }

  Status parse_object(JsonValue* out) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::ok();
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return error("expected object key");
      }
      std::string key;
      Status st = parse_string(&key);
      if (!st.is_ok()) return st;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_++] != ':') {
        return error("expected ':' after object key");
      }
      JsonValue value;
      st = parse_value(&value);
      if (!st.is_ok()) return st;
      out->object.emplace(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return error("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return Status::ok();
      if (c != ',') return error("expected ',' or '}' in object");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  Status error(const std::string& what) const {
    return Status::invalid_argument("json: " + what + " at offset " +
                                    std::to_string(pos_));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Escapes and quotes `s` as a JSON string into `os`.
inline void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Writes `v` with 17 significant digits, so every finite double parses
/// back bit-identical. JSON has no Inf/NaN literals: a non-finite value is
/// written as a quoted string ("inf", "nan"), visibly not a number.
inline void write_number(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  if (std::isfinite(v)) {
    os << buf;
  } else {
    os << '"' << buf << '"';
  }
}

/// Current UTC time as ISO 8601 with second resolution,
/// e.g. "2026-08-06T12:00:00Z".
inline std::string utc_now_iso8601() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace gridsec::obs::json
