/**
 * @file
 * Console tables and CSV field quoting. Table prints sweep_runner's
 * and resilience_study's result tables; csvField quotes the fields of
 * the sweep result CSV, the trace analysis and diff summary CSVs, and
 * the cluster job CSV.
 */
#ifndef ASTRA_COMMON_TABLE_H_
#define ASTRA_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace astra {

/**
 * RFC-4180 CSV field quoting: fields containing commas, quotes, or
 * newlines are wrapped in double quotes with embedded quotes doubled.
 * Shared by every CSV writer (sweep result store, cluster job table)
 * so quoting rules cannot diverge between outputs.
 */
std::string csvField(const std::string &s);

/** Column-aligned ASCII table builder. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row; must have the same arity as the header. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format doubles with the given precision. */
    static std::string num(double v, int precision = 2);

    /** Render with column alignment and a separator under the header. */
    std::string render() const;

    /** Render directly to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace astra

#endif // ASTRA_COMMON_TABLE_H_
