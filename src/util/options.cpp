#include "util/options.h"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace knnpc {
namespace {

std::string kind_name(int kind) {
  switch (kind) {
    case 0: return "uint";
    case 1: return "double";
    case 2: return "string";
    default: return "flag";
  }
}

}  // namespace

void Options::add_uint(const std::string& name, const std::string& help,
                       std::uint64_t default_value) {
  specs_[name] = Spec{Kind::Uint, help, std::to_string(default_value)};
}

void Options::add_double(const std::string& name, const std::string& help,
                         double default_value) {
  std::ostringstream v;
  v << default_value;
  specs_[name] = Spec{Kind::Double, help, v.str()};
}

void Options::add_string(const std::string& name, const std::string& help,
                         const std::string& default_value) {
  specs_[name] = Spec{Kind::String, help, default_value};
}

void Options::add_flag(const std::string& name, const std::string& help) {
  specs_[name] = Spec{Kind::Flag, help, "0"};
}

bool Options::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    auto it = specs_.find(arg);
    if (it == specs_.end()) {
      throw std::invalid_argument("unknown option --" + arg);
    }
    if (it->second.kind == Kind::Flag) {
      if (has_value) {
        throw std::invalid_argument("option --" + arg + " takes no value");
      }
      // Move-assign a temporary: GCC 12's -Wrestrict misfires on the
      // inlined char* assignment path at -O3.
      it->second.value = std::string("1");
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        throw std::invalid_argument("option --" + arg + " needs a value");
      }
      value = argv[++i];
    }
    it->second.value = std::move(value);
  }
  return true;
}

std::uint64_t Options::get_uint(const std::string& name) const {
  const std::string& value = find(name, Kind::Uint).value;
  // from_chars, not stoull: stoull accepts a sign ("-1" wraps to 2^64-1)
  // and leading blanks, and stops silently at trailing junk ("5x").
  std::uint64_t parsed = 0;
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error != std::errc{} || stop != end) {
    throw std::invalid_argument("option --" + name +
                                ": not an unsigned integer: " + value);
  }
  return parsed;
}

double Options::get_double(const std::string& name) const {
  const std::string& value = find(name, Kind::Double).value;
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != value.size()) {
    throw std::invalid_argument("option --" + name +
                                ": not a number: " + value);
  }
  return parsed;
}

const std::string& Options::get_string(const std::string& name) const {
  return find(name, Kind::String).value;
}

bool Options::get_flag(const std::string& name) const {
  return find(name, Kind::Flag).value == "1";
}

const Options::Spec& Options::find(const std::string& name, Kind kind) const {
  auto it = specs_.find(name);
  if (it == specs_.end()) {
    throw std::invalid_argument("option --" + name + " was never declared");
  }
  if (it->second.kind != kind) {
    throw std::invalid_argument(
        "option --" + name + " is a " +
        kind_name(static_cast<int>(it->second.kind)) + ", requested " +
        kind_name(static_cast<int>(kind)));
  }
  return it->second;
}

std::string Options::usage(const std::string& program) const {
  std::ostringstream out;
  out << "usage: " << program << " [options]\n";
  for (const auto& [name, spec] : specs_) {
    out << "  --" << name;
    if (spec.kind != Kind::Flag) out << "=<" << kind_name(static_cast<int>(spec.kind)) << ">";
    out << "  " << spec.help;
    if (spec.kind != Kind::Flag) out << " (default: " << spec.value << ")";
    out << '\n';
  }
  return out.str();
}

}  // namespace knnpc
