#include "obs/json.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace tagspin::obs {

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonWriter::Node& JsonWriter::add() {
  if (open_.empty()) {
    assert(doc_.empty() && "one top-level value per writer");
    return doc_.emplace_back();
  }
  Node& node = open_.back()->items.emplace_back();
  if (open_.back()->open == '{') node.key = std::move(key_);
  key_.clear();
  return node;
}

JsonWriter& JsonWriter::beginObject() {
  Node& node = add();
  node.open = '{';
  open_.push_back(&node);
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  Node& node = add();
  node.open = '[';
  open_.push_back(&node);
  return *this;
}

JsonWriter& JsonWriter::end() {
  assert(!open_.empty());
  open_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  assert(!open_.empty() && open_.back()->open == '{');
  key_ = name;
  return *this;
}

JsonWriter& JsonWriter::scalar(std::string_view text) {
  add().text = text;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) { return scalar(v ? "true" : "false"); }

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return scalar(std::string_view(buf, res.ptr - buf));
}

JsonWriter& JsonWriter::value(std::string_view s) {
  return scalar("\"" + jsonEscape(s) + "\"");
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  while (!json.empty() && (json.back() == '\n' || json.back() == ' ')) {
    json.remove_suffix(1);
  }
  return scalar(json);
}

void JsonWriter::render(const Node& node, int depth, std::string& out) {
  if (node.open == 0) {
    for (char c : node.text) {
      out += c;
      if (c == '\n') out.append(2 * depth, ' ');
    }
    return;
  }
  const bool holdsContainer =
      std::any_of(node.items.begin(), node.items.end(), [](const Node& n) {
        return n.open != 0 || n.text.starts_with('{') ||
               n.text.starts_with('[');
      });
  const bool broken =
      !node.items.empty() && (depth == 0 || (depth == 1 && holdsContainer));
  out += node.open;
  for (size_t i = 0; i < node.items.size(); ++i) {
    if (i > 0) out += broken ? "," : ", ";
    if (broken) {
      out += '\n';
      out.append(2 * (depth + 1), ' ');
    }
    const Node& item = node.items[i];
    if (node.open == '{') out += "\"" + jsonEscape(item.key) + "\": ";
    render(item, depth + 1, out);
  }
  if (broken) {
    out += '\n';
    out.append(2 * depth, ' ');
  }
  out += node.open == '{' ? '}' : ']';
}

std::string JsonWriter::str() const {
  assert(open_.empty() && doc_.size() == 1);
  std::string out;
  render(doc_.front(), 0, out);
  out += '\n';
  return out;
}

}  // namespace tagspin::obs
