// Tests for the cycle-stamped event-tracing subsystem (src/obs/): recorder
// staging/draining, category parsing, Chrome trace-event JSON validity, the
// hand-off == Transfers accounting contract, byte-identical results with
// tracing off vs on, identical traces across execution engines and engine
// job counts, and trace bytes pinned across commits by a golden file.
//
// Suite names all start with "Trace" so `--gtest_filter='Trace*'` (the TSan
// recipe in EXPERIMENTS.md) covers the whole layer.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_engine.hpp"
#include "core/simulator.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/event_recorder.hpp"
#include "obs/lock_timeline.hpp"
#include "report/lock_timeline.hpp"
#include "sync/scheme_factory.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace syncpat {
namespace {

using obs::EventKind;
using obs::TraceEvent;

/// Records every delivered event.
class RecordingSink final : public obs::TraceSink {
 public:
  void on_event(const TraceEvent& event) override { events.push_back(event); }

  std::vector<TraceEvent> events;
};

TEST(TraceRecorder, DeliversEventsInOrderThroughATinyRing) {
  // Two full batches and a partial one: emitting into a full batch hands it
  // to the sink first, and flush() hands over the rest, all in emission
  // order.
  constexpr std::size_t kBatch = obs::EventRecorder::kBatchEvents;
  constexpr std::size_t kEvents = 2 * kBatch + 3;
  obs::TraceConfig config;
  config.enabled = true;
  obs::EventRecorder recorder(config);
  RecordingSink sink;
  recorder.add_sink(&sink);

  for (std::size_t i = 0; i < kEvents; ++i) {
    if (i == kBatch) {
      EXPECT_TRUE(sink.events.empty());
    }
    TraceEvent ev;
    ev.cycle = i + 1;
    ev.kind = EventKind::kAcquired;
    recorder.emit(ev);
    if (i == kBatch) {
      EXPECT_EQ(sink.events.size(), kBatch);
    }
  }
  EXPECT_EQ(sink.events.size(), 2 * kBatch);
  recorder.flush();
  recorder.flush();  // nothing staged: nothing delivered twice

  ASSERT_EQ(sink.events.size(), kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    ASSERT_EQ(sink.events[i].cycle, i + 1) << "event " << i;
  }
}

TEST(TraceRecorder, CategoryMaskFiltersWants) {
  obs::TraceConfig config;
  config.categories = obs::category::kLocks | obs::category::kBarriers;
  obs::EventRecorder recorder(config);
  EXPECT_TRUE(recorder.wants(obs::category::kLocks));
  EXPECT_TRUE(recorder.wants(obs::category::kBarriers));
  EXPECT_FALSE(recorder.wants(obs::category::kBus));
  EXPECT_FALSE(recorder.wants(obs::category::kCoherence));
}

TEST(TraceCategories, ParseAndRender) {
  EXPECT_EQ(obs::parse_categories("locks"), obs::category::kLocks);
  EXPECT_EQ(obs::parse_categories("locks,bus,coherence"),
            obs::category::kLocks | obs::category::kBus |
                obs::category::kCoherence);
  EXPECT_EQ(obs::parse_categories("all"), obs::category::kAll);
  EXPECT_THROW(static_cast<void>(obs::parse_categories("nope")),
               std::invalid_argument);
  // No engine emits idle spans, so there is no idle category to ask for.
  EXPECT_THROW(static_cast<void>(obs::parse_categories("locks,idle")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(obs::parse_categories("")),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker — enough to prove the exporter's output is
// well-formed (Perfetto rejects anything a standard parser would).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') { ++pos_; return true; }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

core::ExperimentOutcome traced_qsort(
    std::uint32_t categories,
    core::EngineKind engine = core::EngineKind::kDes) {
  core::MachineConfig config;
  config.lock_scheme = sync::SchemeKind::kQueuing;
  config.trace.enabled = true;
  config.trace.categories = categories;
  config.engine = engine;
  return core::run_experiment(config, workload::qsort_profile(), 128);
}

TEST(TraceChrome, ExportIsWellFormedJson) {
  const core::ExperimentOutcome outcome = traced_qsort(obs::category::kAll);
  ASSERT_FALSE(outcome.trace_json.empty());
  JsonChecker checker(outcome.trace_json);
  EXPECT_TRUE(checker.valid());
  // The four fixed tracks plus the per-processor thread names.
  EXPECT_GE(count_occurrences(outcome.trace_json, "\"process_name\""), 4u);
  EXPECT_GE(count_occurrences(outcome.trace_json, "\"thread_name\""),
            static_cast<std::size_t>(workload::qsort_profile().num_procs));
}

// The acceptance contract: hand-off events are emitted at the exact source
// line that counts a transfer, so their count in the exported JSON equals
// the Transfers column of the contention tables — under both engines.
TEST(TraceChrome, HandoffCountEqualsTransfersColumn) {
  for (const core::EngineKind engine :
       {core::EngineKind::kDes, core::EngineKind::kTick}) {
    const core::ExperimentOutcome outcome =
        traced_qsort(obs::category::kAll, engine);
    EXPECT_GT(outcome.sim.locks.transfers, 0u) << core::engine_name(engine);
    EXPECT_EQ(count_occurrences(outcome.trace_json, "\"name\":\"handoff\""),
              outcome.sim.locks.transfers)
        << core::engine_name(engine);
    EXPECT_EQ(outcome.lock_timeline.total_handoffs(),
              outcome.sim.locks.transfers)
        << core::engine_name(engine);
  }
}

// The DES core ticks only event cycles but emits the exact per-cycle event
// stream, so the exported trace bytes must match per-cycle ticking exactly.
TEST(TraceEngine, TraceBytesIdenticalAcrossExecutionEngines) {
  const core::ExperimentOutcome per_cycle =
      traced_qsort(obs::category::kAll, core::EngineKind::kTick);
  const core::ExperimentOutcome des = traced_qsort(obs::category::kAll);
  ASSERT_FALSE(des.trace_json.empty());
  EXPECT_EQ(des.trace_json, per_cycle.trace_json);
}

TEST(TraceChrome, CategoryFilterDropsOtherTracks) {
  const core::ExperimentOutcome locks_only =
      traced_qsort(obs::category::kLocks);
  EXPECT_GT(count_occurrences(locks_only.trace_json, "\"name\":\"handoff\""),
            0u);
  EXPECT_EQ(count_occurrences(locks_only.trace_json, "->"), 0u);  // no MESI
}

TEST(TraceChrome, OutPathSplicesSanitizedLabel) {
  EXPECT_EQ(obs::trace_out_path("out.json", "Grav/queuing"),
            "out.Grav-queuing.json");
  EXPECT_EQ(obs::trace_out_path("trace", "Qsort x128"), "trace.Qsort-x128");
}

/// Everything the paper tables report, for exact comparison.
std::string result_fingerprint(const core::SimulationResult& sim) {
  std::string out;
  out += "run_time=" + std::to_string(sim.run_time);
  out += " acq=" + std::to_string(sim.locks.acquisitions);
  out += " xfer=" + std::to_string(sim.locks.transfers);
  out += " bus=" + std::to_string(sim.traffic.total());
  out += " barriers=" + std::to_string(sim.barriers_completed);
  for (const core::ProcResult& p : sim.per_proc) {
    out += " [" + std::to_string(p.work_cycles) + "," +
           std::to_string(p.stall_cache) + "," + std::to_string(p.stall_lock) +
           "," + std::to_string(p.completion_cycle) + "]";
  }
  return out;
}

// Tracing must be a pure observer: results with the recorder attached are
// identical to a default-off run.
TEST(TraceParity, ResultsIdenticalTracingOffVsOn) {
  core::MachineConfig off;
  off.lock_scheme = sync::SchemeKind::kTtas;
  const core::ExperimentOutcome plain =
      core::run_experiment(off, workload::grav_profile(), 128);
  EXPECT_TRUE(plain.trace_json.empty());

  core::MachineConfig on = off;
  on.trace.enabled = true;
  const core::ExperimentOutcome traced =
      core::run_experiment(on, workload::grav_profile(), 128);
  EXPECT_FALSE(traced.trace_json.empty());

  EXPECT_EQ(result_fingerprint(plain.sim), result_fingerprint(traced.sim));
}

// Per-cell sinks make the trace documents an engine-level determinism
// guarantee: the same grid yields the same bytes at any worker count.
TEST(TraceEngine, TraceJsonIdenticalAcrossJobCounts) {
  core::ExperimentGrid grid;
  grid.base.trace.enabled = true;
  grid.profiles = {workload::qsort_profile()};
  grid.schemes = {sync::SchemeKind::kQueuing, sync::SchemeKind::kTtas};
  grid.scales = {128};

  core::EngineOptions serial;
  serial.jobs = 1;
  core::EngineOptions pooled;
  pooled.jobs = 4;
  const core::GridResult a = core::run_grid(grid, serial);
  const core::GridResult b = core::run_grid(grid, pooled);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a.results[i].ok());
    ASSERT_TRUE(b.results[i].ok());
    EXPECT_FALSE(a.results[i].outcome.trace_json.empty());
    EXPECT_EQ(a.results[i].outcome.trace_json, b.results[i].outcome.trace_json)
        << "cell " << a.cells[i].label();
    EXPECT_EQ(a.results[i].outcome.lock_timeline.total_handoffs(),
              a.results[i].outcome.sim.locks.transfers)
        << "cell " << a.cells[i].label();
  }
}

TEST(TraceTimeline, ReportTableCoversEveryPhase) {
  const core::ExperimentOutcome outcome = traced_qsort(obs::category::kLocks);
  ASSERT_FALSE(outcome.lock_timeline.locks.empty());
  const report::Table t =
      report::lock_timeline_table(outcome.lock_timeline, 4, 4);
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("all"), std::string::npos);
  EXPECT_NE(text.str().find("1/4"), std::string::npos);
  EXPECT_NE(text.str().find("4/4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden trace bytes.  The tests above compare engines and job counts within
// one build; this one pins the exported documents across commits: each
// cell's byte length and FNV-1a 64 hash are committed in tests/golden/.  To
// regenerate, run with SYNCPAT_UPDATE_GOLDEN=1 and
// --gtest_filter='TraceGolden.*', in a commit that leaves src/obs/ alone.

constexpr std::size_t kNumEventKinds =
    static_cast<std::size_t>(EventKind::kBarrierRelease) + 1;

/// Counts the delivered events of each kind.
class KindCounter final : public obs::TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    ++counts[static_cast<std::size_t>(event.kind)];
  }

  std::array<std::uint64_t, kNumEventKinds> counts{};
};

struct GoldenTraceCell {
  std::string label;
  workload::BenchmarkProfile profile;  // already scaled
  core::MachineConfig config;
};

/// Grav at scale 256 under three schemes and under weak ordering with
/// write-through, plus the barrier-bearing scale study (Grav has no barrier
/// at this scale).
std::vector<GoldenTraceCell> golden_trace_cells() {
  const workload::BenchmarkProfile grav = workload::grav_profile().scaled(256);
  std::vector<GoldenTraceCell> cells;
  for (const sync::SchemeKind scheme :
       {sync::SchemeKind::kQueuing, sync::SchemeKind::kTtas,
        sync::SchemeKind::kTas}) {
    core::MachineConfig config;
    config.lock_scheme = scheme;
    cells.push_back({std::string("Grav/") + sync::scheme_kind_name(scheme) +
                         "/sequential",
                     grav, config});
  }
  core::MachineConfig weak_wt;
  weak_wt.consistency = bus::ConsistencyModel::kWeak;
  weak_wt.write_policy = cache::WritePolicy::kWriteThrough;
  cells.push_back({"Grav/queuing/weak/write-through", grav, weak_wt});
  cells.push_back({"ScaleStudy/queuing/sequential",
                   testutil::scale_study(16, 400), core::MachineConfig{}});
  return cells;
}

/// The cell's Chrome document, built the way run_experiment builds it.
std::string golden_trace_document(const GoldenTraceCell& cell,
                                  KindCounter& kinds) {
  trace::ProgramTrace program = workload::make_program_trace(cell.profile);
  core::MachineConfig config = cell.config;
  config.num_procs = cell.profile.num_procs;
  config.trace.enabled = true;
  core::Simulator sim(config, program);
  obs::ChromeTraceSink chrome(cell.profile.name, cell.profile.num_procs);
  sim.recorder()->add_sink(&chrome);
  sim.recorder()->add_sink(&kinds);
  static_cast<void>(sim.run());
  std::string document = chrome.finish();
  EXPECT_EQ(chrome.finish(), document)
      << cell.label << ": a second finish() returned other bytes";
  return document;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// "<label> <bytes> <hash>", one golden-file line.
std::string golden_trace_line(const std::string& label,
                              const std::string& document) {
  char hash[24];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(fnv1a64(document)));
  return label + " " + std::to_string(document.size()) + " " + hash;
}

std::string golden_trace_path() {
  return std::string(SYNCPAT_GOLDEN_DIR) + "/chrome_trace_scale256.txt";
}

TEST(TraceGolden, DocumentBytesPinnedAcrossCommits) {
  const std::vector<GoldenTraceCell> cells = golden_trace_cells();
  KindCounter kinds;
  std::vector<std::string> actual;
  std::size_t grant_responses = 0;
  std::size_t waiter_samples = 0;
  std::size_t bus_busy_samples = 0;
  for (const GoldenTraceCell& cell : cells) {
    const std::string document = golden_trace_document(cell, kinds);
    EXPECT_TRUE(JsonChecker(document).valid()) << cell.label;
    grant_responses += count_occurrences(document, " resp\",\"cat\":\"bus\"");
    waiter_samples += count_occurrences(
        document, "\"cat\":\"locks\",\"ph\":\"C\"");
    bus_busy_samples += count_occurrences(
        document, "{\"name\":\"bus busy cycles\",\"cat\":\"bus\",\"ph\":\"C\"");
    actual.push_back(golden_trace_line(cell.label, document));
  }
  // The cells between them exercise every event kind and both counter
  // series, so the pinned bytes cover every branch of the exporter.
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    EXPECT_GT(kinds.counts[k], 0u)
        << obs::event_kind_name(static_cast<EventKind>(k));
  }
  EXPECT_GT(grant_responses, 0u) << "no response-phase bus grant";
  EXPECT_GT(waiter_samples, 0u) << "no lock waiter counter sample";
  EXPECT_GT(bus_busy_samples, 0u) << "no bus-busy counter sample";

  std::string rendered =
      "# Chrome trace documents: cell, byte length, FNV-1a 64 hash.\n";
  for (const std::string& line : actual) rendered += line + "\n";
  if (std::getenv("SYNCPAT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_trace_path(), std::ios::trunc);
    out << rendered;
    ASSERT_TRUE(out.good()) << "cannot write " << golden_trace_path();
    GTEST_SKIP() << "golden trace regenerated at " << golden_trace_path()
                 << "; review and commit the diff";
  }

  std::ifstream in(golden_trace_path());
  ASSERT_TRUE(in.good()) << "missing golden trace " << golden_trace_path()
                         << " — regenerate with SYNCPAT_UPDATE_GOLDEN=1";
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  ASSERT_EQ(expected.size(), actual.size())
      << "the golden trace lists another set of cells";
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i])
        << "cell " << cells[i].label
        << ": trace bytes differ from " << golden_trace_path();
  }
}

}  // namespace
}  // namespace syncpat
