/// \file cli.hpp
/// \brief Minimal command-line flag parsing for examples and benches.
#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cosmo {

/// Parses "--key=value", "--key value", and bare "--flag" arguments.
/// Positional arguments are collected in order.
class CliArgs {
 public:
  /// Accepts any flag.
  CliArgs(int argc, const char* const* argv);

  /// Accepts only the \p declared flag names (without the leading "--")
  /// plus "help"; any other flag throws InvalidArgument naming it.
  CliArgs(int argc, const char* const* argv, std::initializer_list<std::string_view> declared);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// The strict CliArgs a tool's main() starts with. On --help it prints
/// \p usage to stdout and exits 0; on an undeclared flag it prints the
/// error and \p usage to stderr and exits 2.
CliArgs parse_tool_args(int argc, const char* const* argv,
                        std::initializer_list<std::string_view> declared, const char* usage);

}  // namespace cosmo
