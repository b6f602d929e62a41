#include "common/json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace copydetect {

namespace {

constexpr int kMaxDepth = 64;

/// Room for any "%.Pg" literal of a double (sign, 17 digits, point,
/// "e-308": 24 bytes) plus the terminator strtod needs.
constexpr size_t kDoubleBufSize = 32;

/// True when the literal [begin, end) reads back as exactly `d`.
/// `begin` must have room for a terminator at `end`.
bool ReadsBackAs(char* begin, char* end, double d) {
  double back = 0.0;
  if (std::from_chars(begin, end, back).ec == std::errc()) {
    return back == d;
  }
  // from_chars refuses a result out of range, and some standard
  // libraries count subnormals as such; strtod still decides those.
  *end = '\0';
  return std::strtod(begin, nullptr) == d;
}

/// Writes the number literal of finite `d` (see AppendJsonDouble) to
/// `buf` and returns its end. The search for the smallest P starts at
/// the shortest round-trip digit count n, not at 1: a `%.Pg` literal
/// has at most P significant digits, and no decimal with fewer than n
/// reads back as `d`, so every P < n fails. It usually succeeds at
/// P = n. Where the correctly rounded n-digit literal misses d's
/// rounding interval while another n-digit decimal hits it (at powers
/// of two, whose interval is narrower below than above), it goes on
/// to P = n + 1.
char* FormatDouble(double d, char (&buf)[kDoubleBufSize]) {
  char* const limit = buf + kDoubleBufSize - 1;
  char* end =
      std::to_chars(buf, limit, d, std::chars_format::scientific).ptr;
  int precision = 0;
  for (const char* p = buf; p != end && *p != 'e'; ++p) {
    precision += *p >= '0' && *p <= '9';
  }
  for (;; ++precision) {
    // to_chars(general, P) writes exactly printf's "%.Pg".
    end = std::to_chars(buf, limit, d, std::chars_format::general,
                        precision)
              .ptr;
    if (precision >= 17 || ReadsBackAs(buf, end, d)) return end;
  }
}

/// Appends the escaped contents of `s` (no quotes): each run of bytes
/// that need no escaping is copied with one append.
void AppendEscaped(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  const char* run = s.data();
  const char* const end = s.data() + s.size();
  for (const char* p = run; p != end; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(run, static_cast<size_t>(p - run));
    run = p + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(run, static_cast<size_t>(end - run));
}

}  // namespace

void AppendJsonString(std::string_view s, std::string* out) {
  *out += '"';
  AppendEscaped(s, out);
  *out += '"';
}

void AppendJsonDouble(double d, std::string* out) {
  if (!std::isfinite(d)) {
    out->append("null");
    return;
  }
  char buf[kDoubleBufSize];
  out->append(buf, FormatDouble(d, buf));
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(s, &out);
  return out;
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v(Kind::kBool);
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Double(double d) {
  if (!std::isfinite(d)) return Null();
  JsonValue v(Kind::kNumber);
  char buf[kDoubleBufSize];
  v.text_.assign(buf, FormatDouble(d, buf));
  return v;
}

JsonValue JsonValue::Int64(int64_t value) {
  JsonValue v(Kind::kNumber);
  v.text_ = std::to_string(value);
  return v;
}

JsonValue JsonValue::Uint64(uint64_t value) {
  JsonValue v(Kind::kNumber);
  v.text_ = std::to_string(value);
  return v;
}

JsonValue JsonValue::NumberLiteral(std::string literal) {
  JsonValue v(Kind::kNumber);
  v.text_ = std::move(literal);
  return v;
}

JsonValue JsonValue::Str(std::string_view s) {
  JsonValue v(Kind::kString);
  v.text_ = std::string(s);
  return v;
}

JsonValue JsonValue::Raw(std::string json) {
  JsonValue v(Kind::kString);
  v.raw_ = true;
  v.text_ = std::move(json);
  return v;
}

bool JsonValue::AsDouble(double* out) const {
  if (kind_ != Kind::kNumber) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text_.c_str(), &end);
  if (end != text_.c_str() + text_.size() || errno == ERANGE) {
    return false;
  }
  *out = v;
  return true;
}

bool JsonValue::AsUint64(uint64_t* out) const {
  if (kind_ != Kind::kNumber || text_.empty() || text_[0] == '-') {
    return false;
  }
  // Integral literals only — a fractional count is a caller bug worth
  // surfacing, not truncating.
  if (text_.find_first_of(".eE") != std::string::npos) return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text_.c_str(), &end, 10);
  if (end != text_.c_str() + text_.size() || errno == ERANGE) {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

bool JsonValue::AsInt64(int64_t* out) const {
  if (kind_ != Kind::kNumber || text_.empty()) return false;
  if (text_.find_first_of(".eE") != std::string::npos) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text_.c_str(), &end, 10);
  if (end != text_.c_str() + text_.size() || errno == ERANGE) {
    return false;
  }
  *out = static_cast<int64_t>(v);
  return true;
}

JsonValue& JsonValue::Append(JsonValue v) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::Set(std::string_view key, JsonValue v) {
  kind_ = Kind::kObject;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(std::string(key), std::move(v));
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string_view def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->text()
                                        : std::string(def);
}

double JsonValue::GetDouble(std::string_view key, double def) const {
  const JsonValue* v = Find(key);
  double out = def;
  if (v != nullptr) v->AsDouble(&out);
  return out;
}

uint64_t JsonValue::GetUint64(std::string_view key, uint64_t def) const {
  const JsonValue* v = Find(key);
  uint64_t out = def;
  if (v != nullptr) v->AsUint64(&out);
  return out;
}

bool JsonValue::GetBool(std::string_view key, bool def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->bool_value() : def;
}

void JsonValue::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      *out += text_;
      return;
    case Kind::kString:
      if (raw_) {
        *out += text_;
      } else {
        AppendJsonString(text_, out);
      }
      return;
    case Kind::kArray: {
      *out += '[';
      bool first = true;
      for (const JsonValue& v : items_) {
        if (!first) *out += ',';
        first = false;
        v.DumpTo(out);
      }
      *out += ']';
      return;
    }
    case Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) *out += ',';
        first = false;
        AppendJsonString(k, out);
        *out += ':';
        v.DumpTo(out);
      }
      *out += '}';
      return;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipWs();
    JsonValue value;
    CD_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after the JSON value");
    }
    return value;
  }

 private:
  Status Error(std::string_view what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " +
                                   std::string(what));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        if (!ConsumeWord("null")) return Error("invalid literal");
        *out = JsonValue::Null();
        return Status::OK();
      case 't':
        if (!ConsumeWord("true")) return Error("invalid literal");
        *out = JsonValue::Bool(true);
        return Status::OK();
      case 'f':
        if (!ConsumeWord("false")) return Error("invalid literal");
        *out = JsonValue::Bool(false);
        return Status::OK();
      case '"':
        return ParseString(out);
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseNumber(JsonValue* out) {
    size_t begin = pos_;
    Consume('-');
    if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
      return Error("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // no leading zeros
    } else {
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
        return Error("digits required after decimal point");
      }
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() &&
        (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
        return Error("digits required in exponent");
      }
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    }
    // Keep the literal verbatim so Dump() round-trips byte for byte
    // and integers above 2^53 stay lossless.
    *out = JsonValue::NumberLiteral(
        std::string(text_.substr(begin, pos_ - begin)));
    return Status::OK();
  }

  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  std::string_view text_;
  size_t pos_ = 0;

  Status ParseString(JsonValue* out) {
    std::string s;
    CD_RETURN_IF_ERROR(ParseStringInto(&s));
    *out = JsonValue::Str(s);
    return Status::OK();
  }

  Status ParseStringInto(std::string* s) {
    ++pos_;  // opening quote
    while (true) {
      if (pos_ >= text_.size()) {
        return Error("unterminated string");
      }
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Error("raw control character in string");
      if (c != '\\') {
        *s += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': *s += '"'; break;
        case '\\': *s += '\\'; break;
        case '/': *s += '/'; break;
        case 'b': *s += '\b'; break;
        case 'f': *s += '\f'; break;
        case 'n': *s += '\n'; break;
        case 'r': *s += '\r'; break;
        case 't': *s += '\t'; break;
        case 'u': {
          uint32_t cp = 0;
          CD_RETURN_IF_ERROR(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            if (!Consume('\\') || !Consume('u')) {
              return Error("unpaired surrogate escape");
            }
            uint32_t low = 0;
            CD_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired surrogate escape");
          }
          AppendUtf8(cp, s);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* s) {
    if (cp < 0x80) {
      *s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *s += static_cast<char>(0xC0 | (cp >> 6));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *s += static_cast<char>(0xE0 | (cp >> 12));
      *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *s += static_cast<char>(0xF0 | (cp >> 18));
      *s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    JsonValue arr = JsonValue::Array();
    SkipWs();
    if (Consume(']')) {
      *out = std::move(arr);
      return Status::OK();
    }
    while (true) {
      JsonValue item;
      SkipWs();
      CD_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
      arr.Append(std::move(item));
      SkipWs();
      if (Consume(']')) break;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
    *out = std::move(arr);
    return Status::OK();
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    JsonValue obj = JsonValue::Object();
    SkipWs();
    if (Consume('}')) {
      *out = std::move(obj);
      return Status::OK();
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected string key in object");
      }
      std::string key;
      CD_RETURN_IF_ERROR(ParseStringInto(&key));
      SkipWs();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWs();
      JsonValue value;
      CD_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      obj.Set(key, std::move(value));
      SkipWs();
      if (Consume('}')) break;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
    *out = std::move(obj);
    return Status::OK();
  }
};

}  // namespace

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace copydetect
