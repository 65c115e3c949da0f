#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"

namespace xbgas {

namespace {

[[noreturn]] void malformed(const std::string& name, const char* expected,
                            const std::string& value) {
  throw Error("--" + name + " expects " + expected + ", got '" + value + "'");
}

}  // namespace

std::int64_t CliArgs::parse_int(const std::string& name,
                                const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 0);
  if (text.empty() || *end != '\0' || errno == ERANGE) {
    malformed(name, "an integer", text);
  }
  return v;
}

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::initializer_list<CliFlags> known,
                 std::size_t max_positional) {
  XBGAS_CHECK(argc >= 1 && argv != nullptr, "CliArgs requires argv[0]");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (positional_.size() == max_positional) {
        throw Error(program_ + ": unexpected argument '" + arg +
                    "' (positional arguments allowed: " +
                    std::to_string(max_positional) + ")");
      }
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
  for (const auto& [name, value] : flags_) {
    const auto lists = [&](CliFlags f) {
      return std::find(f.begin(), f.end(), name) != f.end();
    };
    const bool listed = std::any_of(known.begin(), known.end(), lists);
    if (listed) continue;
    std::string names;
    for (const CliFlags f : known) {
      for (const std::string_view n : f) names.append(" --").append(n);
    }
    throw Error(program_ + ": unknown flag --" + name + " (known:" + names +
                ")");
  }
}

bool CliArgs::has(const std::string& name) const { return flags_.contains(name); }

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : parse_int(name, it->second);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& value = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || errno == ERANGE) {
    malformed(name, "a number", value);
  }
  return v;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  malformed(name, "true/false, 1/0 or yes/no", v);
}

std::vector<std::string> CliArgs::get_list(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return {};
  std::vector<std::string> items;
  const std::string& s = it->second;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = s.find(',', pos);
    items.push_back(s.substr(pos, comma - pos));
    if (comma == std::string::npos) return items;
    pos = comma + 1;
  }
}

std::vector<int> CliArgs::get_int_list(const std::string& name,
                                       const std::vector<int>& fallback) const {
  if (!has(name)) return fallback;
  std::vector<int> out;
  for (const std::string& item : get_list(name)) {
    const std::int64_t v = parse_int(name, item);
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      malformed(name, "a list of int-sized integers", get(name, ""));
    }
    out.push_back(static_cast<int>(v));
  }
  return out;
}

}  // namespace xbgas
