#include "benchlib/table.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "common/strfmt.hpp"

namespace xbgas {

AsciiTable::AsciiTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  XBGAS_CHECK(!headers_.empty(), "table needs at least one column");
}

void AsciiTable::add_row(std::vector<std::string> cells) {
  XBGAS_CHECK(cells.size() == headers_.size(),
              "row width must match header width");
  rows_.push_back(std::move(cells));
}

std::string AsciiTable::cell(double v) { return strfmt("%.3f", v); }
std::string AsciiTable::cell(long long v) { return strfmt("%lld", v); }
std::string AsciiTable::cell(unsigned long long v) { return strfmt("%llu", v); }

std::string AsciiTable::render() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  auto emit_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += " " + row[c] + std::string(width[c] - row[c].size(), ' ') + " |";
    }
    return line + "\n";
  };

  std::string rule = "+";
  for (const auto w : width) rule += std::string(w + 2, '-') + "+";
  rule += "\n";

  std::string out = rule + emit_row(headers_) + rule;
  for (const auto& row : rows_) out += emit_row(row);
  out += rule;
  return out;
}

void AsciiTable::print() const { std::fputs(render().c_str(), stdout); }

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_row(const std::vector<std::string>& cells) {
  std::string out = "[";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c != 0) out += ", ";
    out += json_string(cells[c]);
  }
  return out + "]";
}

}  // namespace

std::string AsciiTable::render_json() const {
  std::string out = "{\"headers\": " + json_row(headers_) + ", \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += r == 0 ? "\n" : ",\n";
    out += "      " + json_row(rows_[r]);
  }
  return out + "]}";
}

void write_tables_json(
    const std::string& path, const std::string& bench,
    const std::vector<std::pair<std::string, const AsciiTable*>>& tables) {
  std::string json = "{\"bench\": " + json_string(bench) + ", \"tables\": {";
  for (std::size_t i = 0; i < tables.size(); ++i) {
    json += i == 0 ? "\n" : ",\n";
    json += "  " + json_string(tables[i].first) + ": " +
            tables[i].second->render_json();
  }
  json += "}}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw Error("cannot write " + path);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (std::fclose(f) != 0 || !ok) throw Error("cannot write " + path);
}

}  // namespace xbgas
