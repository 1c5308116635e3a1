// Minimal strict JSON: the one parser every subsystem that speaks JSON
// shares — experiment configs (harness/config.cpp), the synthesis-service
// wire protocol (service/protocol.cpp), the bench-baseline regression gate
// (util/benchcmp.cpp), and the fleet coordinator's response reader
// (service/fleet.cpp).
//
// Scope is deliberately the subset our writers emit: objects, arrays,
// double-quoted strings with backslash escapes (\u00XX only), integer and
// double numbers, true/false. Numbers keep their raw token so integer
// readers can reject "1e4" / "-3" loudly instead of silently truncating.
// The parser is recursive descent with a hard nesting-depth cap, so
// adversarial inputs ("[[[[[…", megabyte key floods) fail with
// std::invalid_argument instead of overflowing the stack.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace netsyn::util {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  std::string raw;  ///< number token, full precision
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  /// First member with `key`, or nullptr. Duplicate keys are legal JSON
  /// (RFC 8259 leaves the behavior open); this reader is first-wins, which
  /// the config fuzz tests pin.
  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Maximum object/array nesting the parser accepts before rejecting the
/// document. Every legitimate document in this codebase is < 10 deep.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parses one complete JSON document (trailing characters are an error).
/// Throws std::invalid_argument, with an offset, on any malformed input.
JsonValue parseJson(const std::string& text);

/// Escapes a string for embedding between double quotes in a JSON document
/// (quotes, backslashes, and C0 controls; RFC 8259 forbids raw controls).
std::string escapeJson(const std::string& s);

// ---- typed member readers ---------------------------------------------------
//
// Absent keys leave `out` untouched (callers keep their preset defaults);
// present keys of the wrong type/shape throw std::invalid_argument naming
// the key. Integer readers reject signs, exponents, and out-of-range values
// — stoull alone would silently truncate "1e4" to 1 or wrap "-4".

/// `v` as a non-negative integer; `key` names it in error messages.
std::uint64_t jsonUnsigned(const JsonValue& v, const char* key);

/// `v` as a finite double; `key` names it in error messages.
double jsonDouble(const JsonValue& v, const char* key);

void readSize(const JsonValue& obj, const char* key, std::size_t& out);
void readU64(const JsonValue& obj, const char* key, std::uint64_t& out);
void readDouble(const JsonValue& obj, const char* key, double& out);
void readBool(const JsonValue& obj, const char* key, bool& out);
void readString(const JsonValue& obj, const char* key, std::string& out);

}  // namespace netsyn::util
