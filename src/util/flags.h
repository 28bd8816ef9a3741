#ifndef OPENBG_UTIL_FLAGS_H_
#define OPENBG_UTIL_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "util/status.h"

namespace openbg::util {

/// A strict command-line flag table, shared by every bench and example
/// binary. Each flag is registered once with its name ("--seed"), help
/// text and a typed target that holds the default until Parse overwrites
/// it. Parse rejects an unknown or repeated flag, a missing value, and a
/// number that does not parse or does not fit its target; bool flags take
/// no value. `--help` lists the table.
///
///   util::Flags flags("table1_kg_stats");
///   flags.Unsigned("--seed", &seed, "world seed");
///   flags.Bool("--ann", &ann, "rank with the IVF+int8 path");
///   flags.ParseOrExit(argc, argv);
class Flags {
 public:
  explicit Flags(std::string program) : program_(std::move(program)) {}

  /// A string flag. A non-empty `choices` restricts the accepted values.
  void String(const char* name, std::string* target, const char* help,
              std::vector<std::string> choices = {});
  /// An unsigned decimal flag; values above the target type's maximum are
  /// rejected rather than wrapped.
  template <typename T>
  void Unsigned(const char* name, T* target, const char* help) {
    static_assert(std::numeric_limits<T>::is_integer &&
                  !std::numeric_limits<T>::is_signed);
    AddUnsigned(name, help, std::to_string(*target),
                std::numeric_limits<T>::max(),
                [target](uint64_t v) { *target = static_cast<T>(v); });
  }
  /// A finite floating-point flag.
  void Double(const char* name, double* target, const char* help);
  /// A valueless flag: present sets the target to true.
  void Bool(const char* name, bool* target, const char* help);

  /// Parses argv[1..argc). On `--help` returns OK with help_requested()
  /// set and no later argument read. Targets of flags parsed before an
  /// error keep their new values.
  Status Parse(int argc, const char* const* argv);
  bool help_requested() const { return help_requested_; }

  /// "usage: <program> [flags]" followed by one line per flag with its
  /// value type, help text and default.
  std::string Usage() const;

  /// Parse for a `main`: on `--help` prints Usage() to stdout and exits 0;
  /// on an error prints it and Usage() to stderr and exits 2.
  void ParseOrExit(int argc, const char* const* argv);

 private:
  struct Flag {
    std::string name;
    std::string value_kind;  // "" for a bool flag
    std::string help;
    std::string default_text;
    // Stores a parsed value; false when `value` is malformed or out of
    // range. Bool flags are called with nullptr.
    std::function<bool(const char* value)> set;
  };

  void AddUnsigned(const char* name, const char* help,
                   std::string default_text, uint64_t max,
                   std::function<void(uint64_t)> store);
  void Add(Flag flag);

  std::string program_;
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

}  // namespace openbg::util

#endif  // OPENBG_UTIL_FLAGS_H_
