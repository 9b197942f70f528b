#include "directory/filter.hpp"

#include <cstdlib>
#include <vector>

#include "common/strings.hpp"

namespace esg::directory {

using common::Errc;
using common::Error;
using common::Result;

struct Filter::Node {
  enum class Kind { and_, or_, not_, equals, present, ge, le, all };
  Kind kind = Kind::all;
  std::string attr;
  std::string value;      // escapes decoded
  bool wildcard = false;  // equals only: `value`'s '*'s are wildcards
  std::vector<std::shared_ptr<const Node>> children;
};

namespace {

using Node = Filter::Node;

// Recursive-descent parser over the filter text.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<std::shared_ptr<const Node>> parse() {
    auto node = parse_filter();
    if (!node) return node;
    skip_ws();
    if (pos_ != text_.size()) {
      return err("trailing characters after filter");
    }
    return node;
  }

 private:
  Error err(const std::string& what) const {
    return Error{Errc::invalid_argument,
                 what + " at offset " + std::to_string(pos_) + " in '" +
                     text_ + "'"};
  }

  void skip_ws() {
    while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
  }

  Result<std::shared_ptr<const Node>> parse_filter() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '(') {
      return err("expected '('");
    }
    ++pos_;
    skip_ws();
    if (pos_ >= text_.size()) return err("unterminated filter");

    auto node = std::make_shared<Node>();
    const char op = text_[pos_];
    if (op == '&' || op == '|') {
      ++pos_;
      node->kind = op == '&' ? Node::Kind::and_ : Node::Kind::or_;
      skip_ws();
      while (pos_ < text_.size() && text_[pos_] == '(') {
        auto child = parse_filter();
        if (!child) return child;
        node->children.push_back(std::move(*child));
        skip_ws();
      }
    } else if (op == '!') {
      ++pos_;
      node->kind = Node::Kind::not_;
      auto child = parse_filter();
      if (!child) return child;
      node->children.push_back(std::move(*child));
      skip_ws();
    } else {
      // Simple comparison: attr op value, where op is '=', '>=', or '<='.
      const auto start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '=' &&
             text_[pos_] != ')' && text_[pos_] != '>' && text_[pos_] != '<') {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] == ')') {
        return err("expected comparison operator");
      }
      std::string attr(common::trim(text_.substr(start, pos_ - start)));
      if (attr.empty()) return err("empty attribute");
      if (text_[pos_] == '>' || text_[pos_] == '<') {
        node->kind = text_[pos_] == '>' ? Node::Kind::ge : Node::Kind::le;
        ++pos_;
        if (pos_ >= text_.size() || text_[pos_] != '=') {
          return err("expected '=' after '>'/'<'");
        }
      } else {
        node->kind = Node::Kind::equals;
      }
      ++pos_;  // consume '='
      const auto vstart = pos_;
      int depth = 0;
      while (pos_ < text_.size() && (text_[pos_] != ')' || depth > 0)) {
        if (text_[pos_] == '(') ++depth;
        if (text_[pos_] == ')') --depth;
        ++pos_;
      }
      node->attr = common::to_lower(attr);
      const std::string_view raw =
          common::trim(std::string_view(text_).substr(vstart, pos_ - vstart));
      const bool has_star = raw.find('*') != std::string_view::npos;
      if (node->kind == Node::Kind::equals && raw == "*") {
        node->kind = Node::Kind::present;
      } else if (raw.find('\\') == std::string_view::npos) {
        node->value = std::string(raw);
        node->wildcard = node->kind == Node::Kind::equals && has_star;
      } else if (node->kind == Node::Kind::equals && has_star) {
        return err("value mixes escapes with '*' wildcards");
      } else if (!unescape(raw, node->value)) {
        return err("malformed '\\XX' escape");
      }
    }
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != ')') {
      return err("expected ')'");
    }
    ++pos_;
    return std::const_pointer_cast<const Node>(node);
  }

  // Decodes RFC 4515 "\XX" escapes; false when one is malformed.
  static bool unescape(std::string_view raw, std::string& out) {
    const auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    out.clear();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '\\') {
        out += raw[i];
        continue;
      }
      if (raw.size() - i < 3) return false;
      const int hi = hex(raw[i + 1]);
      const int lo = hex(raw[i + 2]);
      if (hi < 0 || lo < 0) return false;
      out += static_cast<char>(hi * 16 + lo);
      i += 2;
    }
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool compare_ge(const std::string& a, const std::string& b) {
  char* ea = nullptr;
  char* eb = nullptr;
  const long long ia = std::strtoll(a.c_str(), &ea, 10);
  const long long ib = std::strtoll(b.c_str(), &eb, 10);
  if (ea && *ea == '\0' && eb && *eb == '\0' && !a.empty() && !b.empty()) {
    return ia >= ib;
  }
  return a >= b;
}

bool eval(const Node& node, const Entry& entry) {
  switch (node.kind) {
    case Node::Kind::all:
      return true;
    case Node::Kind::and_:
      for (const auto& c : node.children) {
        if (!eval(*c, entry)) return false;
      }
      return true;
    case Node::Kind::or_:
      for (const auto& c : node.children) {
        if (eval(*c, entry)) return true;
      }
      return false;
    case Node::Kind::not_:
      return !node.children.empty() && !eval(*node.children.front(), entry);
    case Node::Kind::present:
      return entry.has(node.attr);
    case Node::Kind::equals:
      for (const auto& v : entry.values(node.attr)) {
        if (node.wildcard ? common::wildcard_match(node.value, v)
                          : v == node.value) {
          return true;
        }
      }
      return false;
    case Node::Kind::ge:
      for (const auto& v : entry.values(node.attr)) {
        if (compare_ge(v, node.value)) return true;
      }
      return false;
    case Node::Kind::le:
      for (const auto& v : entry.values(node.attr)) {
        if (compare_ge(node.value, v)) return true;
      }
      return false;
  }
  return false;
}

std::string render(const Node& node) {
  switch (node.kind) {
    case Node::Kind::all:
      return "(objectclass=*)";
    case Node::Kind::and_:
    case Node::Kind::or_: {
      std::string out = node.kind == Node::Kind::and_ ? "(&" : "(|";
      for (const auto& c : node.children) out += render(*c);
      return out + ")";
    }
    case Node::Kind::not_:
      return "(!" + (node.children.empty() ? "" : render(*node.children[0])) +
             ")";
    case Node::Kind::present:
      return "(" + node.attr + "=*)";
    case Node::Kind::equals:
      return "(" + node.attr + "=" +
             (node.wildcard ? node.value : Filter::escape(node.value)) + ")";
    case Node::Kind::ge:
      return "(" + node.attr + ">=" + Filter::escape(node.value) + ")";
    case Node::Kind::le:
      return "(" + node.attr + "<=" + Filter::escape(node.value) + ")";
  }
  return "";
}

}  // namespace

Result<Filter> Filter::parse(const std::string& text) {
  Parser parser(text);
  auto root = parser.parse();
  if (!root) return root.error();
  return Filter(std::move(*root));
}

Filter Filter::match_all() {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::all;
  return Filter(std::move(node));
}

std::string Filter::escape(std::string_view value) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '*' || c == '(' || c == ')' || c == '\\' || c == '\0') {
      const auto byte = static_cast<unsigned char>(c);
      out += '\\';
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

bool Filter::matches(const Entry& entry) const {
  return root_ && eval(*root_, entry);
}

const std::string* Filter::required_class() const {
  const auto exact_class = [](const Node& n) {
    return n.kind == Node::Kind::equals && n.attr == "objectclass" &&
           !n.wildcard;
  };
  if (!root_) return nullptr;
  if (exact_class(*root_)) return &root_->value;
  if (root_->kind == Node::Kind::and_) {
    for (const auto& c : root_->children) {
      if (exact_class(*c)) return &c->value;
    }
  }
  return nullptr;
}

std::string Filter::to_string() const {
  return root_ ? render(*root_) : "(objectclass=*)";
}

}  // namespace esg::directory
