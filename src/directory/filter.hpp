// RFC-2254-style search filters: "(&(objectclass=collection)(name=co2*))".
//
// Supports conjunction &, disjunction |, negation !, equality with '*'
// wildcards, presence (attr=*), and >= / <= comparisons (numeric when both
// sides parse as integers, lexicographic otherwise).  A value may spell a
// byte as "\XX" (RFC 4515 §3); an escaped '*' is a literal, never a
// wildcard, and a value mixing escapes with unescaped '*'s is rejected.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "directory/entry.hpp"

namespace esg::directory {

class Filter {
 public:
  /// Parse a filter string.  The grammar requires outer parentheses, as in
  /// LDAP ("(attr=value)", "(&(a=1)(b=2))").
  static common::Result<Filter> parse(const std::string& text);

  /// A filter matching every entry.
  static Filter match_all();

  /// `value` with '*', '(', ')', '\' and NUL escaped as "\XX", so a name
  /// spliced into a filter matches only itself.
  static std::string escape(std::string_view value);

  bool matches(const Entry& entry) const;

  /// The objectclass value every match must hold, or nullptr.  Set when the
  /// filter is an exact "(objectclass=v)" (no '*'), or an '&' with such a
  /// direct child; the directory then draws candidates from its class index.
  const std::string* required_class() const;

  std::string to_string() const;

  struct Node;  // implementation detail, defined in filter.cpp

 private:
  explicit Filter(std::shared_ptr<const Node> root) : root_(std::move(root)) {}
  std::shared_ptr<const Node> root_;
};

}  // namespace esg::directory
