// Minimal command-line flag parsing for example binaries.
//
// Supports --name=value and --name value forms plus boolean --flag switches.
// Unknown flags are collected so callers can report them. Numeric getters
// throw std::invalid_argument naming the flag when its value is empty, not
// a number, carries trailing characters or falls outside the given range.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pathsep::util {

class Args {
 public:
  Args(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def = "") const;
  std::int64_t get_int(const std::string& name, std::int64_t def,
                       std::int64_t min = INT64_MIN,
                       std::int64_t max = INT64_MAX) const;
  double get_double(const std::string& name, double def) const;
  /// get_double that also throws unless the value is finite and > 0 (NaN
  /// and inf parse as numbers).
  double get_positive(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  /// Non-flag positional arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were parsed but never queried via any getter; lets binaries
  /// warn about typos like --episilon.
  std::vector<std::string> unused() const;

  /// Throws std::invalid_argument("--NAME is not a PROGRAM flag") naming
  /// the first flag no getter has read. Binaries call it once every flag is
  /// read, before any work, so a typo fails instead of running on defaults.
  void reject_unused(const std::string& program) const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace pathsep::util
