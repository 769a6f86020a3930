// Tests for gridsec::obs structured logging: level parsing and gating,
// the retained ring tail, and the JSON shape of emitted records.
#include "gridsec/obs/log.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"

namespace obs = gridsec::obs;

namespace {

// Saves and restores the process-global logger configuration so tests in
// this binary do not leak levels or the stderr sink into each other.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = obs::Logger::level();
    obs::Logger::set_level(obs::LogLevel::kDebug);
    obs::Logger::reset_ring();
  }
  void TearDown() override {
    obs::Logger::set_stderr_sink(false);
    obs::Logger::set_level(saved_level_);
    obs::Logger::reset_ring();
  }

  obs::LogLevel saved_level_ = obs::LogLevel::kInfo;
};

TEST(LogLevel, ToStringParseRoundTrip) {
  const obs::LogLevel levels[] = {
      obs::LogLevel::kTrace, obs::LogLevel::kDebug, obs::LogLevel::kInfo,
      obs::LogLevel::kWarn,  obs::LogLevel::kError, obs::LogLevel::kOff,
  };
  for (const obs::LogLevel lvl : levels) {
    obs::LogLevel back = obs::LogLevel::kOff;
    ASSERT_TRUE(obs::parse_log_level(obs::to_string(lvl), &back))
        << obs::to_string(lvl);
    EXPECT_EQ(back, lvl);
  }
}

TEST(LogLevel, ParseIsCaseInsensitiveAndRejectsUnknown) {
  obs::LogLevel lvl = obs::LogLevel::kOff;
  EXPECT_TRUE(obs::parse_log_level("WARN", &lvl));
  EXPECT_EQ(lvl, obs::LogLevel::kWarn);
  EXPECT_TRUE(obs::parse_log_level("Debug", &lvl));
  EXPECT_EQ(lvl, obs::LogLevel::kDebug);
  EXPECT_FALSE(obs::parse_log_level("loud", &lvl));
  EXPECT_FALSE(obs::parse_log_level("", &lvl));
}

TEST_F(LogTest, OffSilencesEverything) {
  obs::Logger::set_level(obs::LogLevel::kOff);
  const std::uint64_t before = obs::Logger::records_emitted();
  GRIDSEC_LOG(kError, "test").message("still silent");
  EXPECT_EQ(obs::Logger::records_emitted(), before);
}

#ifdef GRIDSEC_NO_OBS

// With logging compiled out, no threshold lets a record through: the ring
// stays empty and nothing is ever counted as emitted.
TEST_F(LogTest, CompiledOutIsAlwaysEmpty) {
  obs::Logger::set_level(obs::LogLevel::kTrace);
  EXPECT_FALSE(obs::Logger::enabled(obs::LogLevel::kError));
  GRIDSEC_LOG(kError, "unit.test").field("i", 1).message("dropped");
  EXPECT_TRUE(obs::Logger::tail().empty());
  EXPECT_EQ(obs::Logger::records_emitted(), 0u);
}

#else  // record-dependent tests below need real logging compiled in

obs::json::JsonValue parse_record(const std::string& line) {
  obs::json::JsonParser parser(line);
  auto parsed = parser.parse();
  EXPECT_TRUE(parsed.is_ok()) << parsed.status().message() << "\n" << line;
  return parsed.is_ok() ? parsed.value() : obs::json::JsonValue{};
}

TEST_F(LogTest, ThresholdGatesEmission) {
  obs::Logger::set_level(obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::Logger::enabled(obs::LogLevel::kDebug));
  EXPECT_FALSE(obs::Logger::enabled(obs::LogLevel::kInfo));
  EXPECT_TRUE(obs::Logger::enabled(obs::LogLevel::kWarn));
  EXPECT_TRUE(obs::Logger::enabled(obs::LogLevel::kError));

  const std::uint64_t before = obs::Logger::records_emitted();
  GRIDSEC_LOG(kInfo, "test").message("suppressed");
  EXPECT_EQ(obs::Logger::records_emitted(), before);
  GRIDSEC_LOG(kWarn, "test").message("passes");
  EXPECT_EQ(obs::Logger::records_emitted(), before + 1);
}

TEST_F(LogTest, RecordIsOneParseableJsonObject) {
  GRIDSEC_LOG(kWarn, "unit.test")
      .field("text", "he said \"hi\"\n")
      .field("ratio", 0.5)
      .field("count", 42)
      .field("big", std::uint64_t{18446744073709551615ULL})
      .field("flag", true)
      .message("all field kinds");

  const std::vector<std::string> tail = obs::Logger::tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].find('\n'), std::string::npos)
      << "record must be a single line";

  const obs::json::JsonValue v = parse_record(tail[0]);
  ASSERT_EQ(v.kind, obs::json::JsonValue::Kind::kObject);
  ASSERT_NE(v.find("ts"), nullptr);
  EXPECT_FALSE(v.find("ts")->string.empty());
  EXPECT_EQ(v.find("level")->string_or(""), "warn");
  EXPECT_EQ(v.find("component")->string_or(""), "unit.test");
  EXPECT_EQ(v.find("text")->string_or(""), "he said \"hi\"\n");
  EXPECT_DOUBLE_EQ(v.find("ratio")->number_or(-1.0), 0.5);
  EXPECT_DOUBLE_EQ(v.find("count")->number_or(-1.0), 42.0);
  ASSERT_NE(v.find("big"), nullptr);
  EXPECT_EQ(v.find("big")->kind, obs::json::JsonValue::Kind::kNumber);
  ASSERT_NE(v.find("flag"), nullptr);
  EXPECT_TRUE(v.find("flag")->boolean);
  EXPECT_EQ(v.find("msg")->string_or(""), "all field kinds");
}

TEST_F(LogTest, NonFiniteDoublesStayValidJson) {
  GRIDSEC_LOG(kWarn, "unit.test")
      .field("nan", std::nan(""))
      .field("inf", std::numeric_limits<double>::infinity());
  const std::vector<std::string> tail = obs::Logger::tail(1);
  ASSERT_EQ(tail.size(), 1u);
  const obs::json::JsonValue v = parse_record(tail[0]);
  // Non-finite values are quoted rather than emitted as bare tokens.
  EXPECT_EQ(v.find("nan")->kind, obs::json::JsonValue::Kind::kString);
  EXPECT_EQ(v.find("inf")->kind, obs::json::JsonValue::Kind::kString);
}

TEST_F(LogTest, TailIsOldestFirstAndBounded) {
  for (int i = 0; i < 5; ++i) {
    GRIDSEC_LOG(kInfo, "unit.test").field("i", i);
  }
  const std::vector<std::string> all = obs::Logger::tail();
  ASSERT_EQ(all.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const obs::json::JsonValue v = parse_record(all[static_cast<size_t>(i)]);
    EXPECT_DOUBLE_EQ(v.find("i")->number_or(-1.0), static_cast<double>(i));
  }
  const std::vector<std::string> last2 = obs::Logger::tail(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[1], all[4]);
}

TEST_F(LogTest, RingOverwritesOldestBeyondCapacity) {
  const std::size_t cap = obs::Logger::kDefaultRingCapacity;
  for (std::size_t i = 0; i < cap + 10; ++i) {
    GRIDSEC_LOG(kInfo, "unit.test").field("i", i);
  }
  const std::vector<std::string> all = obs::Logger::tail();
  ASSERT_EQ(all.size(), cap);
  // The oldest retained record is i = 10.
  const obs::json::JsonValue v = parse_record(all.front());
  EXPECT_DOUBLE_EQ(v.find("i")->number_or(-1.0), 10.0);
}

#endif  // GRIDSEC_NO_OBS

}  // namespace
