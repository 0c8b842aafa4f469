#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_engine.hpp"
#include "core/simulator.hpp"
#include "report/paper_tables.hpp"
#include "report/per_lock.hpp"
#include "report/table.hpp"
#include "trace/address_map.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace syncpat::report {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t("Title");
  t.columns({"Name", "Value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "12345"});
  const std::string s = t.render();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("Name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Separator line present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, NotesAppended) {
  Table t("T");
  t.columns({"A"}).add_row({"x"}).note("a footnote");
  EXPECT_NE(t.render().find("a footnote"), std::string::npos);
}

TEST(Table, CsvEscapesCommas) {
  Table t("T");
  t.columns({"A", "B"});
  t.add_row({"1,000", "2"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"1,000\",2"), std::string::npos);
}

TEST(Table, CsvHasHeaderAndRows) {
  Table t("T");
  t.columns({"A", "B"}).add_row({"1", "2"}).add_row({"3", "4"});
  EXPECT_EQ(t.to_csv(), "A,B\n1,2\n3,4\n");
}

TEST(PaperReference, AllSixBenchmarksPresent) {
  const auto& refs = paper_reference();
  ASSERT_EQ(refs.size(), 6u);
  EXPECT_STREQ(refs[0].name, "Grav");
  EXPECT_STREQ(refs[5].name, "Topopt");
  EXPECT_FALSE(refs[5].has_locks);
  for (std::size_t i = 0; i + 1 < 5; ++i) EXPECT_TRUE(refs[i].has_locks);
}

TEST(PaperReference, Table3ValuesTranscribed) {
  const auto& refs = paper_reference();
  EXPECT_DOUBLE_EQ(refs[0].q_runtime, 9228727.0);
  EXPECT_DOUBLE_EQ(refs[0].q_util, 32.6);
  EXPECT_DOUBLE_EQ(refs[3].q_held, 3766.0);
  EXPECT_DOUBLE_EQ(refs[1].t_waiters, 6.21);
  EXPECT_DOUBLE_EQ(refs[2].w_diff, 0.31);
}

TEST(PaperTables, RuntimeTableHasRowPerResult) {
  core::SimulationResult r;
  r.program = "Grav";
  r.run_time = 100;
  r.avg_utilization = 0.5;
  Table t = table_runtime(3, {r}, 1);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(PaperTables, ContentionTableSkipsLocklessPrograms) {
  core::SimulationResult grav, topopt;
  grav.program = "Grav";
  topopt.program = "Topopt";
  Table t = table_contention(4, {grav, topopt}, 1);
  EXPECT_EQ(t.num_rows(), 1u);  // Topopt has no lock row
}

TEST(PerLockTable, SortsByAcquisitionsAndCaps) {
  sync::LockStatsCollector stats;
  const std::uint32_t hot = trace::AddressMap::lock_addr(0);
  const std::uint32_t cold = trace::AddressMap::lock_addr(5);
  for (int i = 0; i < 10; ++i) {
    stats.acquired(hot, 0, static_cast<std::uint64_t>(i * 100), 0);
    stats.released(hot, static_cast<std::uint64_t>(i * 100 + 40), false, 0);
  }
  stats.acquired(cold, 1, 0, 0);
  stats.released(cold, 20, false, 0);

  Table t = per_lock_table(stats.per_lock(), 1);
  const std::string s = t.render();
  EXPECT_NE(s.find("lock 0"), std::string::npos);   // hot lock shown
  EXPECT_EQ(s.find("lock 5"), std::string::npos);   // cold lock capped away
  EXPECT_NE(s.find("1 more locks omitted"), std::string::npos);
}

TEST(PerLockTable, EmptyCollectorRendersEmptyTable) {
  sync::LockStatsCollector stats;
  Table t = per_lock_table(stats.per_lock());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(PaperTables, WeakTableComputesDifference) {
  core::SimulationResult sc, wo;
  sc.program = wo.program = "Qsort";
  sc.run_time = 1000;
  wo.run_time = 990;
  Table t = table7_weak({wo}, {sc}, 1);
  EXPECT_NE(t.render().find("1.00"), std::string::npos);  // 1% improvement
}

// The paper run selects every table's results from one 17-cell grid.  Its
// tables must equal those rendered the way each table used to run: a
// standalone ideal pass per program for Tables 1-2, T&T&S + queuing over the
// five lock programs for Table 5, queuing x SC/WO over all six for Table 7,
// and a standalone Grav simulation for Table 4's per-lock breakdown.
TEST(PaperRun, OneRunTablesMatchPerTableGrids) {
  constexpr std::uint64_t kScale = 256;
  core::EngineOptions options;
  options.jobs = 2;
  const core::GridResult run =
      core::run_grid(paper_cells(core::MachineConfig{}, kScale), options);
  ASSERT_EQ(run.size(), 17u);
  std::ostringstream rendered;
  print_paper_tables(run, rendered);
  const std::string text = rendered.str();
  auto expect_block = [&](const std::string& block) {
    EXPECT_NE(text.find(block), std::string::npos) << "missing:\n" << block;
  };

  std::vector<trace::IdealProgramStats> stats;
  for (const workload::BenchmarkProfile& p : workload::paper_profiles()) {
    stats.push_back(core::run_ideal(p, kScale));
  }
  expect_block(table1_ideal(stats, kScale).render());
  expect_block(table2_ideal_locks(stats, kScale).render());

  core::ExperimentGrid table5;
  for (const workload::BenchmarkProfile& p : workload::paper_profiles()) {
    if (p.locking.pairs_per_proc > 0) table5.profiles.push_back(p);
  }
  table5.schemes = {sync::SchemeKind::kTtas, sync::SchemeKind::kQueuing};
  table5.scales = {kScale};
  const core::GridResult g5 = core::run_grid(table5, options);
  std::vector<core::SimulationResult> ttas, queuing;
  for (std::size_t i = 0; i < g5.size(); ++i) {
    (g5.cells[i].config.lock_scheme == sync::SchemeKind::kTtas ? ttas : queuing)
        .push_back(g5.results[i].outcome.sim);
  }
  ASSERT_EQ(ttas.size(), 5u);
  std::ostringstream increase, bus;
  for (std::size_t i = 0; i < ttas.size(); ++i) {
    const double pct = -ttas[i].runtime_change_pct(queuing[i]);
    increase << "  " << ttas[i].program << ": " << (pct >= 0 ? "+" : "")
             << pct << "%\n";
    bus << "  " << ttas[i].program << ": " << 100.0 * queuing[i].bus_utilization
        << "% -> " << 100.0 * ttas[i].bus_utilization << "%\n";
  }
  expect_block(table_runtime(5, ttas, kScale).render() + "\n" +
               "Run-time increase vs queuing locks (paper: Grav +8.0%, Pdsa "
               "+8.1%, others ~0%):\n" +
               increase.str());
  expect_block("Bus utilization, queuing -> T&T&S (paper: Grav doubles, Pdsa "
               "+40%):\n" +
               bus.str());
  expect_block(table_contention(6, ttas, kScale).render());

  core::ExperimentGrid table7;
  table7.profiles = workload::paper_profiles();
  table7.consistency_models = {bus::ConsistencyModel::kSequential,
                               bus::ConsistencyModel::kWeak};
  table7.scales = {kScale};
  const core::GridResult g7 = core::run_grid(table7, options);
  std::vector<core::SimulationResult> sc, weak;
  for (std::size_t i = 0; i < g7.size(); ++i) {
    (g7.cells[i].config.consistency == bus::ConsistencyModel::kWeak ? weak : sc)
        .push_back(g7.results[i].outcome.sim);
  }
  ASSERT_EQ(weak.size(), 6u);
  std::ostringstream pending;
  for (const core::SimulationResult& r : weak) {
    if (r.syncs == 0) continue;
    pending << "  " << r.program << ": " << r.syncs_with_pending << " of "
            << r.syncs << " syncs\n";
  }
  expect_block(table7_weak(weak, sc, kScale).render() + "\n" +
               "Syncs that found unfinished buffered accesses (paper: \"almost "
               "never\"):\n" +
               pending.str());
  expect_block(table_runtime(3, sc, kScale).render());
  expect_block(table_contention(4, sc, kScale).render());
  expect_block(table_contention(8, weak, kScale).render());

  // Table 4's Grav breakdown, from the simulator itself.
  const workload::BenchmarkProfile grav =
      workload::grav_profile().scaled(kScale);
  trace::ProgramTrace program = workload::make_program_trace(grav);
  core::MachineConfig config;
  config.num_procs = grav.num_procs;
  core::Simulator sim(config, program);
  (void)sim.run();
  expect_block("Grav breakdown (lock 0 is the scheduler lock, lock 1 the "
               "nested thread-queue lock):\n" +
               per_lock_table(sim.lock_stats().per_lock(), 6).render());
}

}  // namespace
}  // namespace syncpat::report
