#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "common/str.hpp"

namespace cosmo {

namespace {

bool contains(std::initializer_list<std::string_view> names, std::string_view key) {
  return std::find(names.begin(), names.end(), key) != names.end();
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) { parse(argc, argv, {}); }

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::initializer_list<std::string_view> declared,
                 std::initializer_list<std::string_view> booleans) {
  parse(argc, argv, booleans);
  for (const auto& [key, value] : flags_) {
    if (key == "help" || contains(declared, key) || contains(booleans, key)) continue;
    throw InvalidArgument("unknown flag --" + key + " (see --help)");
  }
}

void CliArgs::parse(int argc, const char* const* argv,
                    std::initializer_list<std::string_view> booleans) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const bool boolean = key == "help" || contains(booleans, key);
    if (eq != std::string::npos) {
      if (boolean) throw InvalidArgument("flag --" + key + " takes no value");
      flags_[key] = arg.substr(eq + 1);
    } else if (!boolean && i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags_[key] = argv[++i];
    } else {
      flags_[key] = "1";
    }
  }
}

void CliArgs::reject(const std::string& message) const {
  if (usage_ == nullptr) throw InvalidArgument(message);
  std::fprintf(stderr, "%s: %s\n%s", tool_.c_str(), message.c_str(), usage_);
  std::exit(2);
}

CliArgs parse_tool_args(int argc, const char* const* argv,
                        std::initializer_list<std::string_view> declared, const char* usage,
                        std::initializer_list<std::string_view> booleans) {
  const char* tool = argc > 0 ? argv[0] : "tool";
  try {
    CliArgs args(argc, argv, declared, booleans);
    if (args.has("help")) {
      std::fputs(usage, stdout);
      std::exit(0);
    }
    args.tool_ = tool;
    args.usage_ = usage;
    return args;
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "%s: %s\n%s", tool, e.what(), usage);
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
  if (it == flags_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    reject("invalid integer '" + it->second + "' for --" + key);
  }
  return value;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) {
    reject("invalid number '" + it->second + "' for --" + key);
  }
  return value;
}

}  // namespace cosmo
