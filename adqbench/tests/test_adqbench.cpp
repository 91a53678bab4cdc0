// The benchmark's own tests: seeded arrival schedule, nearest-rank
// percentiles, due-time latency, goodput / fail_frac counting, and the
// trace writer's JSON and self-time arithmetic.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <string>

#include "stats.h"
#include "trace.h"

namespace adqbench {
namespace {

TEST(Schedule, SameSeedSameArrivals) {
  const std::vector<double> a = poisson_schedule(7, 200.0, 5.0);
  const std::vector<double> b = poisson_schedule(7, 200.0, 5.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, poisson_schedule(8, 200.0, 5.0));
}

TEST(Schedule, AscendingWithinWindowAtTheRate) {
  const std::vector<double> due = poisson_schedule(3, 500.0, 20.0);
  ASSERT_FALSE(due.empty());
  for (std::size_t i = 1; i < due.size(); ++i) EXPECT_GT(due[i], due[i - 1]);
  EXPECT_GE(due.front(), 0.0);
  EXPECT_LT(due.back(), 20.0);
  EXPECT_EQ(due.size(), 10000u);  // the count is fixed; the pattern varies
  // Gaps are exponential with mean 1/rate: about 63% are below the mean.
  std::size_t short_gaps = 0;
  for (std::size_t i = 1; i < due.size(); ++i) {
    short_gaps += due[i] - due[i - 1] < 1.0 / 500.0;
  }
  EXPECT_NEAR(static_cast<double>(short_gaps) / 9999.0, 1.0 - std::exp(-1.0),
              0.03);
}

TEST(Schedule, RejectsNonPositiveRate) {
  EXPECT_THROW(poisson_schedule(1, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(poisson_schedule(1, 1.0, 0.0), std::invalid_argument);
}

TEST(SplitMix, KnownFirstOutput) {
  // Reference value of SplitMix64 seeded with 0.
  SplitMix64 r(0);
  EXPECT_EQ(r.next(), 0xE220A8397B1DCDAFull);
  const double u = SplitMix64(5).uniform();
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v{15, 20, 35, 40, 50};
  EXPECT_EQ(percentile(v, 5), 15);
  EXPECT_EQ(percentile(v, 30), 20);
  EXPECT_EQ(percentile(v, 40), 20);
  EXPECT_EQ(percentile(v, 50), 35);
  EXPECT_EQ(percentile(v, 100), 50);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2);  // nearest rank: no interpolation
}

TEST(Percentile, P99OfHundredIsTheNinetyNinthSample) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(samples_beyond(100, 99), 1);
  EXPECT_EQ(samples_beyond(1000, 99), 10);
  EXPECT_EQ(samples_beyond(0, 99), 0);
}

TEST(Percentile, RejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

TEST(Latency, TimedFromDueTime) {
  // Submitted 1.5 ms late, 2 ms inside the server: 3.5 ms from due.
  EXPECT_DOUBLE_EQ(due_latency_ms(1500.0, 2000.0), 3.5);
  // A clock read a hair before the due instant never lowers latency.
  EXPECT_DOUBLE_EQ(due_latency_ms(-3.0, 2000.0), 2.0);
}

TEST(Tally, GoodputAndFailFrac) {
  Tally t;
  t.add(Outcome::kOk, 5.0, 10.0);
  t.add(Outcome::kOk, 10.0, 10.0);   // at the limit counts
  t.add(Outcome::kOk, 12.0, 10.0);   // late: completed, not goodput
  t.add(Outcome::kRefused, 0.0, 10.0);
  t.add(Outcome::kFailed, 0.0, 10.0);
  EXPECT_EQ(t.attempted, 5);
  EXPECT_EQ(t.ok, 3);
  EXPECT_EQ(t.within_limit, 2);
  EXPECT_DOUBLE_EQ(t.fail_frac(), 0.4);
  EXPECT_DOUBLE_EQ(t.goodput_per_s(2.0), 1.0);
  EXPECT_DOUBLE_EQ(Tally{}.fail_frac(), 0.0);
}

// Minimal JSON validator: accepts exactly one RFC 8259 value.
class JsonCheck {
 public:
  explicit JsonCheck(const std::string& s) : s_(s) {}
  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool lit(const char* w) {
    const std::string word(w);
    if (s_.compare(i_, word.size(), word) != 0) return false;
    i_ += word.size();
    return true;
  }
  bool str() {
    if (s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') {
        ++i_;
      } else if (s_[i_] == '"') {
        ++i_;
        return true;
      } else if (static_cast<unsigned char>(s_[i_]) < 0x20) {
        return false;
      }
    }
    return false;
  }
  bool num() {
    const std::size_t start = i_;
    if (s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    if (i_ == start) return false;
    std::size_t used = 0;
    std::stod(s_.substr(start, i_ - start), &used);
    return used == i_ - start;
  }
  bool value() {
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '"') return str();
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i_;
      ws();
      if (i_ < s_.size() && s_[i_] == close) return ++i_, true;
      for (;;) {
        ws();
        if (c == '{') {
          if (!str()) return false;
          ws();
          if (i_ >= s_.size() || s_[i_++] != ':') return false;
          ws();
        }
        if (!value()) return false;
        ws();
        if (i_ >= s_.size()) return false;
        if (s_[i_] == close) return ++i_, true;
        if (s_[i_++] != ',') return false;
      }
    }
    if (lit("true") || lit("false") || lit("null")) return true;
    return num();
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(Trace, ChromeJsonParses) {
  std::vector<Span> spans{
      {"infer.forward_into", "infer", 0, 10.0, 100.0, 0, false},
      {"quote\"and\\slash", "serve", 1, 0.0, 5.0, 0, false},
      {"serve.request", "serve", 2, 3.0, 40.0, 42, true},
  };
  const std::string json = chrome_trace_json(spans);
  EXPECT_TRUE(JsonCheck(json).valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_TRUE(JsonCheck(chrome_trace_json({})).valid());
  EXPECT_FALSE(JsonCheck("{\"a\": }").valid());
}

TEST(Trace, SelfTimeSubtractsChildrenOnTheSameThread) {
  std::vector<Span> spans{
      {"parent", "infer", 0, 0.0, 1000.0, 0, false},
      {"child", "backend", 0, 100.0, 300.0, 0, false},
      {"child", "backend", 0, 500.0, 200.0, 0, false},
      {"grandchild", "tensor", 0, 550.0, 50.0, 0, false},
      {"other_thread", "serve", 1, 100.0, 800.0, 0, false},
      {"request", "serve", 0, 0.0, 5000.0, 7, true},
  };
  std::map<std::string, SelfTime> by;
  for (const SelfTime& t : self_times(spans)) by[t.name] = t;
  EXPECT_NEAR(by["parent"].self_ms, 0.5, 1e-9);
  EXPECT_NEAR(by["child"].self_ms, 0.45, 1e-9);
  EXPECT_EQ(by["child"].count, 2);
  EXPECT_NEAR(by["grandchild"].self_ms, 0.05, 1e-9);
  EXPECT_NEAR(by["other_thread"].self_ms, 0.8, 1e-9);
  EXPECT_NEAR(by["request"].self_ms, 5.0, 1e-9);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer t;
  t.add("x", "infer", 0.0, 1.0);
  EXPECT_TRUE(t.spans().empty());
  t.set_enabled(true);
  t.add("x", "infer", 0.0, 1.0);
  t.add_async("r", "serve", 3, 0.0, 2.0);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_TRUE(t.spans()[1].async);
}

}  // namespace
}  // namespace adqbench
