// The one JSON emitter.  Every JSON text the library, the CLI and the
// benches write -- metric exports, harness payloads, bench sidecars, the
// fault explorer's artifacts -- is built with JsonWriter, so they share one
// number format and one layout:
//
//  * Integers print exactly.  Doubles print as the shortest text that reads
//    back to the same double (std::to_chars).  NaN and the infinities print
//    as null, because JSON has no literal for them.
//  * Strings are escaped by jsonEscape.
//  * Layout: the members of the outermost value go one per line, indented
//    two spaces, and so do the members of a container directly inside it
//    that itself holds a container.  Everything deeper sits on one line,
//    ", " between items.  A key is followed by ": ".
//
// raw() embeds a value written earlier (a harness payload inside a bench
// sidecar, a planted-bug artifact inside the explorer's result) verbatim,
// its lines re-indented to where it lands.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace tagspin::obs {

/// Body of a JSON string literal: quote, backslash, \n and \t escaped,
/// other control bytes as \u00XX.
std::string jsonEscape(std::string_view s);

class JsonWriter {
 public:
  JsonWriter& beginObject();
  JsonWriter& beginArray();
  /// Closes the innermost open object or array.
  JsonWriter& end();
  /// Names the next value; only inside an object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return scalar(std::string_view(buf, res.ptr - buf));
  }
  JsonWriter& null() { return scalar("null"); }
  /// An already-written JSON value, embedded as it is.
  JsonWriter& raw(std::string_view json);

  /// key(name).value(v).
  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  /// The finished text, newline-terminated.  Every container must be
  /// closed.
  std::string str() const;

 private:
  struct Node {
    std::string key;   // member name, inside an object
    std::string text;  // a scalar's or a raw value's JSON text
    char open = 0;     // '{' or '[' for a container
    std::vector<Node> items;
  };

  JsonWriter& scalar(std::string_view text);
  Node& add();
  static void render(const Node& node, int depth, std::string& out);

  std::vector<Node> doc_;    // the one top-level value
  std::vector<Node*> open_;  // open containers, innermost last
  std::string key_;
};

}  // namespace tagspin::obs
