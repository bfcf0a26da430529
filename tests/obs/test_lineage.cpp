// Flight-recorder tests: bounded rings keep the NEWEST events, faults dump
// valid JSON (rank kill and permanent read fault, via the vmpi fault
// observer), and wall/virtual timestamps can never be differenced across
// domains. Runs under the TSan preset: the recorder is hit from every rank
// thread of a Runtime::run world at once.
#include "obs/lineage.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "metrics/json.hpp"
#include "metrics/metrics.hpp"
#include "obs/stage.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/file.hpp"

namespace qv::obs::lineage {
namespace {

using Kind = ChannelKind;

// Every test starts from a clean recorder and restores the global defaults,
// so ordering between tests can't matter.
class LineageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_capacity(256);
    enable();  // resets the rings
  }
  void TearDown() override {
    disable();
    reset();
    set_dump_path("");
    set_capacity(256);
    vmpi::set_fault_observer(nullptr);
  }
};

std::string tmp_json(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string(name) + "." + std::to_string(::getpid()) + ".json"))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::string write_temp_floats(const char* name, std::size_t n_floats) {
  std::string path = (std::filesystem::temp_directory_path() /
                      (std::string(name) + "." + std::to_string(::getpid())))
                         .string();
  std::ofstream os(path, std::ios::binary);
  for (std::size_t i = 0; i < n_floats; ++i) {
    float v = float(i);
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  return path;
}

// Parse a dump file into `doc` and assert the envelope. ASSERT_* macros
// require a void function, hence the out-parameter.
void checked_dump(const std::string& path, const std::string& want_reason,
                  metrics::Json& doc) {
  const std::string text = slurp(path);
  std::string err;
  auto parsed = metrics::parse_json(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err << "\n" << text;
  doc = std::move(*parsed);
  ASSERT_TRUE(doc.is_object());
  const metrics::Json* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str(), "qv-flight-recorder");
  const metrics::Json* version = doc.find("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->num(), 1.0);
  const metrics::Json* reason = doc.find("reason");
  ASSERT_NE(reason, nullptr);
  EXPECT_EQ(reason->str(), want_reason);
  const metrics::Json* channels = doc.find("channels");
  ASSERT_NE(channels, nullptr);
  ASSERT_TRUE(channels->is_array());
}

// --- ring semantics ---------------------------------------------------------

TEST_F(LineageTest, RingOverflowKeepsTheNewestEvents) {
  set_capacity(4);
  for (int s = 0; s < 10; ++s)
    record_wall(Stage::kRender, s, /*epoch=*/0, Kind::kRank, /*channel=*/0);
  const auto dumps = collect();
  ASSERT_EQ(dumps.size(), 1u);
  const ChannelDump& d = dumps[0];
  EXPECT_EQ(d.kind, Kind::kRank);
  EXPECT_EQ(d.id, 0);
  EXPECT_EQ(d.overwritten, 6u);
  ASSERT_EQ(d.events.size(), 4u);
  for (int i = 0; i < 4; ++i) {  // oldest -> newest: 6, 7, 8, 9
    EXPECT_EQ(d.events[std::size_t(i)].step, 6 + i);
    EXPECT_EQ(d.events[std::size_t(i)].stage, Stage::kRender);
  }
}

TEST_F(LineageTest, ChannelsAreIndependentRings) {
  set_capacity(2);
  record_wall(Stage::kRender, 1, 0, Kind::kRank, 0);
  record_wall(Stage::kDecode, 1, 0, Kind::kClient, 7);
  record_wall(Stage::kDecode, 2, 0, Kind::kClient, 7);
  record_wall(Stage::kDecode, 3, 0, Kind::kClient, 7);
  const auto dumps = collect();  // ordered: ranks before clients
  ASSERT_EQ(dumps.size(), 2u);
  EXPECT_EQ(dumps[0].kind, Kind::kRank);
  EXPECT_EQ(dumps[0].events.size(), 1u);
  EXPECT_EQ(dumps[0].overwritten, 0u);
  EXPECT_EQ(dumps[1].kind, Kind::kClient);
  EXPECT_EQ(dumps[1].id, 7);
  ASSERT_EQ(dumps[1].events.size(), 2u);
  EXPECT_EQ(dumps[1].events[0].step, 2);  // step 1 was displaced
  EXPECT_EQ(dumps[1].events[1].step, 3);
  EXPECT_EQ(dumps[1].overwritten, 1u);
}

TEST_F(LineageTest, DisabledRecorderIsANoOp) {
  record_wall(Stage::kRender, 1, 0, Kind::kRank, 0);
  ASSERT_EQ(collect().size(), 1u);
  disable();
  record_wall(Stage::kRender, 2, 0, Kind::kRank, 0);
  record_virtual(Stage::kWire, 2, 0, Kind::kClient, 0, /*t_s=*/1.0);
  const auto dumps = collect();  // still only the pre-disable event
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].events.size(), 1u);
  EXPECT_EQ(dumps[0].events[0].step, 1);
}

TEST_F(LineageTest, DumpNowWithoutAPathReportsFailure) {
  record_wall(Stage::kRender, 1, 0, Kind::kRank, 0);
  EXPECT_FALSE(dump_now("no_path_set"));
  disable();
  set_dump_path(tmp_json("qv_lineage_disabled"));
  EXPECT_FALSE(dump_now("disabled"));  // disabled recorder never dumps
}

// --- obs::Stage -------------------------------------------------------------

// A stage with nothing to feed reads no clock; one with a counter times
// regardless of the switches, and its counter, its stop() and its lineage
// event carry the same pair of clock reads.
TEST_F(LineageTest, StageFeedsEverySinkFromOnePairOfClockReads) {
  disable();
  obs::Stage idle({.cat = "test", .name = "idle"});
  EXPECT_EQ(idle.stop(), 0.0);  // tracing, metrics and lineage are off
  enable();
  metrics::Counter& ns = metrics::counter("test.stage_ns");
  const std::uint64_t before = ns.value();
  obs::Stage stage({.step = 7, .ns = &ns, .lineage = Stage::kEncode,
                    .epoch = 2, .kind = Kind::kClient, .channel = 4});
  std::this_thread::sleep_for(std::chrono::microseconds(50));
  const double s = stage.stop();
  EXPECT_GT(s, 0.0);
  EXPECT_EQ(stage.stop(), s);  // closes once
  EXPECT_EQ(ns.value() - before, std::uint64_t(std::llround(s * 1e9)));
  const auto dumps = collect();
  ASSERT_EQ(dumps.size(), 1u);
  ASSERT_EQ(dumps[0].events.size(), 1u);
  const Event& ev = dumps[0].events[0];
  EXPECT_EQ(ev.stage, Stage::kEncode);
  EXPECT_EQ(ev.step, 7);
  EXPECT_EQ(ev.epoch, 2u);
  EXPECT_EQ(ev.domain, Domain::kWall);
  EXPECT_EQ(ev.dur_s, s);
}

// --- time-domain hygiene ----------------------------------------------------

TEST_F(LineageTest, DeltaAcrossDomainsIsRefused) {
  record_wall(Stage::kEncode, 5, 1, Kind::kClient, 3);
  record_virtual(Stage::kWire, 5, 1, Kind::kClient, 3, /*t_s=*/2.0,
                 /*dur_s=*/0.25);
  record_virtual(Stage::kWire, 6, 1, Kind::kClient, 3, /*t_s=*/3.5);
  const auto dumps = collect();
  ASSERT_EQ(dumps.size(), 1u);
  ASSERT_EQ(dumps[0].events.size(), 3u);
  const Event& wall = dumps[0].events[0];
  const Event& virt_a = dumps[0].events[1];
  const Event& virt_b = dumps[0].events[2];
  ASSERT_EQ(wall.domain, Domain::kWall);
  ASSERT_EQ(virt_a.domain, Domain::kVirtual);
  // Same domain: a real delta. Mixed domains: nullopt, never a number.
  auto ok = delta_s(virt_a, virt_b);
  ASSERT_TRUE(ok.has_value());
  EXPECT_DOUBLE_EQ(*ok, 1.5);
  EXPECT_FALSE(delta_s(wall, virt_a).has_value());
  EXPECT_FALSE(delta_s(virt_b, wall).has_value());
}

TEST_F(LineageTest, ChromeFragmentSplitsDomainsIntoProcesses) {
  record_wall(Stage::kRender, 5, 1, Kind::kRank, 0);
  record_wall(Stage::kEncode, 5, 1, Kind::kClient, 2);
  record_virtual(Stage::kWire, 5, 1, Kind::kClient, 2, /*t_s=*/0.1,
                 /*dur_s=*/0.05);
  const std::string frag = chrome_fragment();
  // Async begin/instant/end events, tagged by category and frame id...
  EXPECT_NE(frag.find("\"cat\":\"lineage\""), std::string::npos);
  EXPECT_NE(frag.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(frag.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(frag.find("frame 5@1"), std::string::npos);
  // ...with the wall and virtual clocks in separate track ids, so a merged
  // trace cannot place a WAN timestamp on the wall timeline.
  EXPECT_NE(frag.find("5@1:wall"), std::string::npos);
  EXPECT_NE(frag.find("5@1:virtual"), std::string::npos);
  EXPECT_NE(frag.find("wan virtual time"), std::string::npos);
}

// --- dump-on-fault ----------------------------------------------------------

TEST_F(LineageTest, RankKillDumpsTheFlightRecorder) {
  const std::string path = tmp_json("qv_lineage_kill");
  set_dump_path(path);
  install_fault_observer();
  auto p = std::make_shared<vmpi::FaultPlan>();
  p->kill_rank = 1;
  p->kill_at_step = 2;
  vmpi::Runtime::run(
      2,
      [](vmpi::Comm& comm) {
        for (int s = 0; s < 4; ++s) {
          record_wall(Stage::kRender, s, 0, Kind::kRank, comm.rank());
          comm.fault_checkpoint(s);
        }
      },
      p);  // RankKilled is a clean exit: run() does not throw
  metrics::Json doc;
  ASSERT_NO_FATAL_FAILURE(checked_dump(path, "rank_killed", doc));
  // The checkpoints don't synchronize the ranks, so the survivor's channel
  // may hold anything at dump time — but the dead rank recorded its own
  // steps before dying, and its last one is the step of the kill.
  const metrics::Json* channels = doc.find("channels");
  ASSERT_GE(channels->arr().size(), 1u);
  bool saw_rank1 = false;
  for (const auto& ch : channels->arr()) {
    if (ch.find("id")->num() != 1.0) continue;
    saw_rank1 = true;
    const auto& evs = ch.find("events")->arr();
    ASSERT_FALSE(evs.empty());
    EXPECT_EQ(evs.back().find("step")->num(), 2.0);  // died entering step 2
    EXPECT_EQ(evs.back().find("domain")->str(), "wall");
  }
  EXPECT_TRUE(saw_rank1);
  std::remove(path.c_str());
}

TEST_F(LineageTest, PermanentReadFaultDumpsOnWorldAbort) {
  const std::string data = write_temp_floats("qv_lineage_dead.bin", 16);
  const std::string path = tmp_json("qv_lineage_abort");
  set_dump_path(path);
  install_fault_observer();
  auto p = std::make_shared<vmpi::FaultPlan>();
  p->fail_path_substrings = {"qv_lineage_dead"};
  EXPECT_THROW(
      vmpi::Runtime::run(
          1,
          [&](vmpi::Comm& comm) {
            record_wall(Stage::kFrame, 3, 0, Kind::kRank, comm.rank());
            vmpi::File f(comm, data);
            io::RetryPolicy quick;
            quick.max_attempts = 3;
            quick.base_delay = std::chrono::microseconds(1);
            f.set_retry_policy(quick);
            std::vector<std::uint8_t> buf(64);
            f.read_at(0, buf);  // throws IoError -> world abort -> dump
          },
          p),
      vmpi::IoError);
  metrics::Json doc;
  ASSERT_NO_FATAL_FAILURE(checked_dump(path, "world_abort", doc));
  const metrics::Json* channels = doc.find("channels");
  ASSERT_EQ(channels->arr().size(), 1u);
  const auto& evs = channels->arr()[0].find("events")->arr();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].find("stage")->str(), "frame");
  std::remove(path.c_str());
  std::remove(data.c_str());
}

TEST_F(LineageTest, ConcurrentRanksRecordWithoutLoss) {
  // No faults: every rank hammers its own channel plus a shared client
  // channel. Under TSan this is the data-race check for the recorder.
  constexpr int kRanks = 4;
  constexpr int kSteps = 50;
  vmpi::Runtime::run(kRanks, [](vmpi::Comm& comm) {
    for (int s = 0; s < kSteps; ++s) {
      record_wall(Stage::kRender, s, 0, Kind::kRank, comm.rank());
      record_wall(Stage::kEncode, s, 0, Kind::kClient, /*channel=*/0);
    }
  });
  const auto dumps = collect();
  ASSERT_EQ(dumps.size(), std::size_t(kRanks) + 1);
  std::uint64_t total = 0;
  for (const auto& d : dumps) total += d.events.size() + d.overwritten;
  EXPECT_EQ(total, std::uint64_t(2 * kRanks * kSteps));
}

}  // namespace
}  // namespace qv::obs::lineage
