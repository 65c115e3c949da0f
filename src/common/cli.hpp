#pragma once

// Tiny command-line flag parser shared by the bench/ and examples/ binaries.
// Supports --name value, --name=value, and bare --flag booleans.
//
// Each binary lists the flags it reads and how many positional arguments it
// takes (none unless it says so); an unknown flag, a positional argument
// beyond that count, or a value that is not a well-formed number or boolean
// where one is read, throws xbgas::Error naming the flag or argument, so a
// mistyped or retired flag fails the run instead of being silently ignored.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace xbgas {

/// Flag names (without the leading "--") that one binary or library reads.
using CliFlags = std::span<const std::string_view>;

class CliArgs {
 public:
  /// Parse argv. Throws xbgas::Error at the first flag that appears in none
  /// of the `known` lists, and at the first positional argument past
  /// `max_positional`.
  CliArgs(int argc, const char* const* argv,
          std::initializer_list<CliFlags> known,
          std::size_t max_positional = 0);

  /// Decimal, or 0x-prefixed hex, `text` read for --name; throws
  /// xbgas::Error naming the flag on anything else.
  static std::int64_t parse_int(const std::string& name,
                                const std::string& text);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// Decimal, or 0x-prefixed hex; throws xbgas::Error on anything else.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// true/1/yes or false/0/no; a bare --flag is true.
  bool get_bool(const std::string& name, bool fallback) const;

  /// The comma-separated items of --name, e.g. --fault-kill 1:rma:3,2:amo:5;
  /// empty when the flag is absent.
  std::vector<std::string> get_list(const std::string& name) const;

  /// Comma-separated integer list, e.g. --pes 1,2,4,8.
  std::vector<int> get_int_list(const std::string& name,
                                const std::vector<int>& fallback) const;

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace xbgas
