#include "common/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "common/str.hpp"

namespace cosmo {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "1";
    }
  }
}

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::initializer_list<std::string_view> declared)
    : CliArgs(argc, argv) {
  for (const auto& [key, value] : flags_) {
    if (key == "help") continue;
    if (std::find(declared.begin(), declared.end(), key) == declared.end()) {
      throw InvalidArgument("unknown flag --" + key + " (see --help)");
    }
  }
}

CliArgs parse_tool_args(int argc, const char* const* argv,
                        std::initializer_list<std::string_view> declared, const char* usage) {
  try {
    CliArgs args(argc, argv, declared);
    if (args.has("help")) {
      std::fputs(usage, stdout);
      std::exit(0);
    }
    return args;
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "%s: %s\n%s", argc > 0 ? argv[0] : "tool", e.what(), usage);
    std::exit(2);
  }
}

bool CliArgs::has(const std::string& key) const { return flags_.count(key) > 0; }

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

long CliArgs::get_int(const std::string& key, long fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : std::strtol(it->second.c_str(), nullptr, 10);
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

}  // namespace cosmo
