// Tiny declarative CLI option parser used by examples and bench harnesses.
//
//   Options opts;
//   opts.add_uint("k", "neighbours per user", 10);
//   opts.add_string("heuristic", "seq|high-low|low-high", "low-high");
//   opts.parse(argc, argv);            // accepts --k=16 and --k 16
//   auto k = opts.get_uint("k");
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace knnpc {

class Options {
 public:
  void add_uint(const std::string& name, const std::string& help,
                std::uint64_t default_value);
  void add_double(const std::string& name, const std::string& help,
                  double default_value);
  void add_string(const std::string& name, const std::string& help,
                  const std::string& default_value);
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv. Throws std::invalid_argument on unknown options, a
  /// missing value, or a value given to a flag; numbers are checked by
  /// the getters. Recognises --help by printing usage and returning false
  /// (caller should exit 0).
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::uint64_t get_uint(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Positional arguments left after option parsing.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] std::string usage(const std::string& program) const;

 private:
  enum class Kind { Uint, Double, String, Flag };
  struct Spec {
    Kind kind;
    std::string help;
    std::string value;  // textual; parsed lazily by getters
  };

  const Spec& find(const std::string& name, Kind kind) const;

  std::map<std::string, Spec> specs_;
  std::vector<std::string> positional_;
};

}  // namespace knnpc
