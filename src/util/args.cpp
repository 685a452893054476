#include "util/args.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>

namespace pathsep::util {

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Args::has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::string Args::get(const std::string& name, const std::string& def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

namespace {

/// `text` parsed whole as a T; throws naming `--name` otherwise.
template <typename T>
T parse(const std::string& name, const std::string& text, const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc{} || stop != end)
    throw std::invalid_argument("--" + name + " expects " + what + ", got '" +
                                text + "'");
  return value;
}

}  // namespace

std::int64_t Args::get_int(const std::string& name, std::int64_t def,
                           std::int64_t min, std::int64_t max) const {
  if (!has(name)) return def;
  const std::string& text = values_.at(name);
  const auto value = parse<std::int64_t>(name, text, "an integer");
  if (value < min || value > max)
    throw std::invalid_argument("--" + name + " must be in [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "], got " + text);
  return value;
}

double Args::get_double(const std::string& name, double def) const {
  return has(name) ? parse<double>(name, values_.at(name), "a number") : def;
}

double Args::get_positive(const std::string& name, double def) const {
  const double value = get_double(name, def);
  // !(x > 0) also rejects NaN.
  if (!(value > 0) || !std::isfinite(value))
    throw std::invalid_argument("--" + name + " must be a finite number > 0, "
                                "got " + get(name));
  return value;
}

bool Args::get_bool(const std::string& name, bool def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : values_) {
    if (!queried_.count(name)) out.push_back(name);
  }
  return out;
}

void Args::reject_unused(const std::string& program) const {
  const std::vector<std::string> unknown = unused();
  if (!unknown.empty())
    throw std::invalid_argument("--" + unknown.front() + " is not a " +
                                program + " flag");
}

}  // namespace pathsep::util
