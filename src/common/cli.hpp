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
/// Positional arguments are collected in order. A boolean flag ("help",
/// plus those a tool declares boolean) never takes the next argument, and
/// "--flag=value" on one is an error.
class CliArgs {
 public:
  /// Accepts any flag.
  CliArgs(int argc, const char* const* argv);

  /// Accepts only the \p declared and \p booleans flag names (without the
  /// leading "--") plus "help"; any other flag throws InvalidArgument
  /// naming it.
  CliArgs(int argc, const char* const* argv, std::initializer_list<std::string_view> declared,
          std::initializer_list<std::string_view> booleans = {});

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  /// The value of --key, or \p fallback when absent. A value that does not
  /// parse in full ("8x", "abc", "") is an InvalidArgument naming the flag
  /// and the value.
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  friend CliArgs parse_tool_args(int, const char* const*, std::initializer_list<std::string_view>,
                                 const char*, std::initializer_list<std::string_view>);

  void parse(int argc, const char* const* argv, std::initializer_list<std::string_view> booleans);
  [[noreturn]] void reject(const std::string& message) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  /// Set by parse_tool_args: errors print here with the usage and exit 2.
  std::string tool_;
  const char* usage_ = nullptr;
};

/// The strict CliArgs a tool's main() starts with. On --help it prints
/// \p usage to stdout and exits 0; on an undeclared flag, a value given to
/// a boolean flag, or (later) a get_int/get_double value that does not
/// parse, it prints the error and \p usage to stderr and exits 2.
CliArgs parse_tool_args(int argc, const char* const* argv,
                        std::initializer_list<std::string_view> declared, const char* usage,
                        std::initializer_list<std::string_view> booleans = {});

}  // namespace cosmo
