#pragma once

// ASCII table printer for the figure/table reproduction binaries: prints
// the same rows/series the paper reports, aligned for terminal reading, and
// renders the same cells as JSON for the committed BENCH_paper.json.

#include <string>
#include <utility>
#include <vector>

namespace xbgas {

class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with %.3f and integers with %lld.
  static std::string cell(double v);
  static std::string cell(long long v);
  static std::string cell(unsigned long long v);

  /// Render with a header rule and column padding.
  std::string render() const;

  /// Render and write to stdout.
  void print() const;

  /// Render as a JSON object {"headers": [...], "rows": [[...], ...]}. Every
  /// cell stays the string print() shows, so the JSON is exactly as precise
  /// as the terminal table.
  std::string render_json() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Write `tables` (name, table) as {"bench": ..., "tables": {name: ...}} to
/// `path`; throws if the file cannot be written. The figure, table and
/// ablation binaries call this for their --json PATH flag.
void write_tables_json(
    const std::string& path, const std::string& bench,
    const std::vector<std::pair<std::string, const AsciiTable*>>& tables);

}  // namespace xbgas
