#pragma once
// ASCII table printer: the benches print the paper's tables/figure series
// with this so every harness has uniform, diffable output.

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace rt {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with fixed precision.
  static std::string fmt(double v, int precision = 3);

  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rt
