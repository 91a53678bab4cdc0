// Shared helpers for test suites.
#pragma once

#include <cstdlib>
#include <string>

namespace adq::infer::testutil {

/// RAII environment-variable pin, restoring the previous value (or
/// unsetting) on scope exit. Tests use it to pin knobs such as
/// ADQ_THREADS_PER_WORKER without leaking into sibling tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_ = false;
};

}  // namespace adq::infer::testutil
