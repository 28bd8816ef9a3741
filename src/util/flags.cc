#include "util/flags.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>

#include "util/logging.h"
#include "util/string_util.h"

namespace openbg::util {

void Flags::Add(Flag flag) {
  OPENBG_CHECK(flag.name.rfind("--", 0) == 0 && flag.name != "--help");
  for (const Flag& f : flags_) OPENBG_CHECK(f.name != flag.name);
  flags_.push_back(std::move(flag));
}

void Flags::String(const char* name, std::string* target, const char* help,
                   std::vector<std::string> choices) {
  std::string kind = "<string>";
  if (!choices.empty()) {
    kind = "<" + choices[0];
    for (size_t i = 1; i < choices.size(); ++i) kind += "|" + choices[i];
    kind += ">";
  }
  Add({name, kind, help, *target,
       [target, choices = std::move(choices)](const char* v) {
         if (!choices.empty() &&
             std::find(choices.begin(), choices.end(), v) == choices.end()) {
           return false;
         }
         *target = v;
         return true;
       }});
}

void Flags::AddUnsigned(const char* name, const char* help,
                        std::string default_text, uint64_t max,
                        std::function<void(uint64_t)> store) {
  // A narrow target shows its range, so "--port 70000" reads as out of it.
  std::string kind = max == std::numeric_limits<uint64_t>::max()
                         ? "<uint>"
                         : StrFormat("<0..%llu>",
                                     static_cast<unsigned long long>(max));
  Add({name, std::move(kind), help, std::move(default_text),
       [max, store = std::move(store)](const char* v) {
         // strtoull accepts a sign and leading blanks (and wraps "-1"), so
         // demand a digit first.
         if (*v < '0' || *v > '9') return false;
         errno = 0;
         char* end = nullptr;
         const unsigned long long x = std::strtoull(v, &end, 10);
         if (errno != 0 || *end != '\0' || x > max) return false;
         store(x);
         return true;
       }});
}

void Flags::Double(const char* name, double* target, const char* help) {
  Add({name, "<float>", help, StrFormat("%g", *target),
       [target](const char* v) {
         errno = 0;
         char* end = nullptr;
         const double x = std::strtod(v, &end);
         if (errno != 0 || end == v || *end != '\0' || !std::isfinite(x)) {
           return false;
         }
         *target = x;
         return true;
       }});
}

void Flags::Bool(const char* name, bool* target, const char* help) {
  Add({name, "", help, *target ? "on" : "off", [target](const char*) {
         *target = true;
         return true;
       }});
}

Status Flags::Parse(int argc, const char* const* argv) {
  help_requested_ = false;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      help_requested_ = true;
      return Status::OK();
    }
    auto it = std::find_if(flags_.begin(), flags_.end(),
                           [&](const Flag& f) { return f.name == arg; });
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
    if (!seen.insert(arg).second) {
      return Status::InvalidArgument("flag " + arg + " given twice");
    }
    if (it->value_kind.empty()) {
      it->set(nullptr);
      continue;
    }
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      return Status::InvalidArgument(arg + " needs a " + it->value_kind +
                                     " value");
    }
    const char* value = argv[++i];
    if (!it->set(value)) {
      return Status::InvalidArgument("bad value '" + std::string(value) +
                                     "' for " + arg + " (expects " +
                                     it->value_kind + ")");
    }
  }
  return Status::OK();
}

std::string Flags::Usage() const {
  std::string out = "usage: " + program_ + " [flags]\n";
  size_t width = 0;
  for (const Flag& f : flags_) {
    width = std::max(width, f.name.size() + 1 + f.value_kind.size());
  }
  width = std::max(width, std::strlen("--help"));
  for (const Flag& f : flags_) {
    const std::string lhs = f.value_kind.empty() ? f.name
                                                 : f.name + " " + f.value_kind;
    out += StrFormat("  %-*s  %s (default: %s)\n", static_cast<int>(width),
                     lhs.c_str(), f.help.c_str(),
                     f.default_text.empty() ? "\"\"" : f.default_text.c_str());
  }
  out += StrFormat("  %-*s  print this table and exit\n",
                   static_cast<int>(width), "--help");
  return out;
}

void Flags::ParseOrExit(int argc, const char* const* argv) {
  const Status s = Parse(argc, argv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), s.message().c_str(),
                 Usage().c_str());
    std::exit(2);
  }
  if (help_requested_) {
    std::fputs(Usage().c_str(), stdout);
    std::exit(0);
  }
}

}  // namespace openbg::util
