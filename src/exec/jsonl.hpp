#ifndef BACO_EXEC_JSONL_HPP_
#define BACO_EXEC_JSONL_HPP_

/**
 * @file
 * The tiny shared JSONL vocabulary of the exec and serve subsystems: cache
 * files, checkpoint files and wire-protocol frames are all one JSON object
 * per line, written by these helpers and read through one strict Object
 * reader, so the formats cannot drift apart. Configurations appear in
 * checkpoints and protocol frames as the same typed array
 * ([{"r":...},{"i":...},{"p":[...]}]), (de)serialized by
 * write_config/parse_config.
 *
 * Reading rules, shared by every format:
 *  - only top-level keys count: a key nested inside another value never
 *    shadows one of the line's own fields, and nested values are skipped
 *    by depth;
 *  - a typed read of a present field either succeeds on the whole value
 *    or reports it malformed, never a silent zero or a prefix;
 *  - strings are returned as written, without unescaping (the writers
 *    never emit escapes; a reader only needs them to find a string's end).
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"

namespace baco::jsonl {

/** Outcome of one typed field read. */
enum class Read { kAbsent, kOk, kMalformed };

/**
 * One JSON object, indexed by its top-level keys in a single pass. The
 * object keeps views into the text it parsed, which must outlive it.
 */
class Object {
 public:
  /**
   * Index the compact object (no whitespace between tokens, as the
   * writers emit it) spanning text[begin, end) (end = npos: the rest of
   * the text). False unless that range is exactly one complete object.
   */
  bool parse(const std::string& text, std::size_t begin = 0,
             std::size_t end = std::string::npos);

  /** The raw value text of key (its first occurrence); empty when absent. */
  std::string_view raw(std::string_view key) const;

  /** Digits only, within range. */
  Read get(std::string_view key, std::uint64_t& out) const;
  /** An optionally negative integer within int range. */
  Read get(std::string_view key, int& out) const;
  /**
   * A number. Non-finite values may be bare (inf, -inf, nan, as
   * fmt_double writes them) or quoted ("inf", as the wire writes them).
   */
  Read get(std::string_view key, double& out) const;
  /** true or false. */
  Read get(std::string_view key, bool& out) const;
  /** A quoted string, returned without its quotes. */
  Read get(std::string_view key, std::string& out) const;
  /** A configuration array (parse_config) filling the whole value. */
  Read get(std::string_view key, Configuration& out) const;

  /**
   * Call f(begin, end) with the text range of each element of the array
   * under key, in order; f returns false to reject an element.
   */
  template <class F>
  Read each(std::string_view key, F&& f) const;

  /** The text this object was parsed from. */
  const std::string& text() const { return *text_; }

 private:
  struct Field {
    std::string_view key;
    std::string_view value;
  };

  /** Offset of a raw value inside text(). */
  std::size_t offset(std::string_view v) const
  {
      return static_cast<std::size_t>(v.data() - text_->data());
  }

  const std::string* text_ = nullptr;
  std::vector<Field> fields_;
};

/**
 * End (one past the last character) of the JSON value starting at s[at]:
 * a string, an array or object skipped by depth, or a bare scalar token
 * (everything up to the next ',', '}' or ']').
 * npos when no complete value starts there.
 */
std::size_t value_end(std::string_view s, std::size_t at);

template <class F>
Read
Object::each(std::string_view key, F&& f) const
{
    std::string_view v = raw(key);
    if (v.empty())
        return Read::kAbsent;
    if (v.front() != '[')
        return Read::kMalformed;
    const std::string& s = *text_;
    std::size_t at = offset(v) + 1;
    std::size_t close = offset(v) + v.size() - 1;
    if (s[close] != ']')
        return Read::kMalformed;
    if (at == close)
        return Read::kOk;
    for (;;) {
        std::size_t end = value_end(s, at);
        if (end == std::string::npos || end > close || !f(at, end))
            return Read::kMalformed;
        if (end == close)
            return Read::kOk;
        if (s[end] != ',')
            return Read::kMalformed;
        at = end + 1;
    }
}

/** Format a double with %.17g (exact IEEE round-trip). */
std::string fmt_double(double v);

/** Append fmt_double(v) to out. */
void append_double(std::string& out, double v);

/**
 * Append c as a typed JSON array: one {"r":x} / {"i":n} / {"p":[...]}
 * object per parameter, in configuration order.
 */
void write_config(std::string& out, const Configuration& c);

/** write_config into a fresh string. */
std::string config_json(const Configuration& c);

/**
 * Parse the array emitted by write_config starting at s[at] (the '[').
 * Advances at past the closing ']'. Returns false on malformed input
 * (never throws).
 */
bool parse_config(const std::string& s, std::size_t& at, Configuration& out);

/** strtod at s[at]; false when no number starts there. Advances at. */
bool parse_double_at(const std::string& s, std::size_t& at, double& out);

/** strtoll at s[at]; false when no integer starts there. Advances at. */
bool parse_int_at(const std::string& s, std::size_t& at, std::int64_t& out);

}  // namespace baco::jsonl

#endif  // BACO_EXEC_JSONL_HPP_
