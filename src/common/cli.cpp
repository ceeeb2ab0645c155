#include "common/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace hayat {

FlagParser::FlagParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void FlagParser::addFlag(const std::string& name, const std::string& help,
                         const std::string& defaultValue) {
  HAYAT_REQUIRE(!name.empty() && name[0] != '-',
                "flag names are declared without dashes");
  HAYAT_REQUIRE(find(name) == nullptr, "duplicate flag declaration");
  flags_.emplace_back(name, Flag{help, defaultValue});
}

const FlagParser::Flag* FlagParser::find(const std::string& name) const {
  for (const auto& [n, f] : flags_)
    if (n == name) return &f;
  return nullptr;
}

bool FlagParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(helpText().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string value;
    bool hasValue = false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      hasValue = true;
    }
    const Flag* flag = find(arg);
    HAYAT_REQUIRE(flag != nullptr, "unknown flag --" + arg);
    if (!hasValue) {
      // `--key value` unless the next token is another flag (then treat
      // as boolean true).
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    values_[arg] = value;
  }
  return true;
}

std::string FlagParser::getString(const std::string& name) const {
  const Flag* flag = find(name);
  HAYAT_REQUIRE(flag != nullptr, "undeclared flag queried: " + name);
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : flag->defaultValue;
}

int FlagParser::getInt(const std::string& name) const {
  const std::string v = getString(name);
  try {
    std::size_t pos = 0;
    const int out = std::stoi(v, &pos);
    HAYAT_REQUIRE(pos == v.size(), "trailing characters in integer flag");
    return out;
  } catch (const std::exception&) {
    throw Error("flag --" + name + " expects an integer, got '" + v + "'");
  }
}

double FlagParser::getDouble(const std::string& name) const {
  const std::string v = getString(name);
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    HAYAT_REQUIRE(pos == v.size(), "trailing characters in numeric flag");
    return out;
  } catch (const std::exception&) {
    throw Error("flag --" + name + " expects a number, got '" + v + "'");
  }
}

std::uint64_t FlagParser::getUint64(const std::string& name) const {
  const std::string v = getString(name);
  try {
    // std::stoull would accept leading blanks and wrap a minus sign.
    HAYAT_REQUIRE(
        !v.empty() && std::isdigit(static_cast<unsigned char>(v[0])),
        "not a whole number");
    std::size_t pos = 0;
    const std::uint64_t out = std::stoull(v, &pos);
    HAYAT_REQUIRE(pos == v.size(), "trailing characters in integer flag");
    return out;
  } catch (const std::exception&) {
    throw Error("flag --" + name + " expects a whole number, got '" + v +
                "'");
  }
}

bool FlagParser::getBool(const std::string& name) const {
  std::string v = getString(name);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v.empty() || v == "false" || v == "0" || v == "no") return false;
  if (v == "true" || v == "1" || v == "yes") return true;
  throw Error("flag --" + name + " expects a boolean, got '" + v + "'");
}

bool FlagParser::provided(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::helpText() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nFlags:\n";
  std::size_t width = 4;  // at least as wide as "help"
  for (const auto& [name, flag] : flags_) width = std::max(width, name.size());
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << std::string(width - name.size() + 2, ' ')
       << flag.help;
    if (!flag.defaultValue.empty()) os << " (default: " << flag.defaultValue << ')';
    os << '\n';
  }
  os << "  --help" << std::string(width - 4 + 2, ' ') << "show this text\n";
  return os.str();
}

}  // namespace hayat
