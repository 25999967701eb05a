// The workload zoo: scripted scenario definitions shared by tests,
// benches and the golden corpus.
//
// Every bench and golden row used to run the same synthetic clustered
// generator, so the engine's auto-tuning defaults (resolve_shard_count,
// heuristic choice) and its bit-identity contract were only ever
// exercised on one data shape. A WorkloadSpec packages one *named*
// scenario — an initial profile set P(0) plus an optional per-iteration
// update script — behind a registry, so the differential tests
// (golden_test's wl-* rows, the workloads test suite) and the benchmark
// harness replay the exact same scenario definitions everywhere. Two calls to
// make_workload() with the same (name, params) produce bit-identical
// profiles and bit-identical update streams, whichever engine or
// execution mode consumes them — that is what turns the five-mode
// determinism contract from a single-corpus claim into a property checked
// across adversarial data shapes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/churn.h"
#include "profiles/generators.h"
#include "profiles/profile.h"
#include "profiles/update_queue.h"
#include "util/types.h"

namespace knnpc {

/// Scale knobs of one workload instance. The *shape* lives in the spec;
/// these only size it, so a tiny CI grid and a large bench sweep replay
/// the same scenario.
struct WorkloadParams {
  VertexId users = 400;
  ItemId items = 400;
  /// Planted communities (where the scenario has any).
  std::uint32_t clusters = 4;
  /// Seeds both P(0) generation and the update script.
  std::uint64_t seed = 1007;
};

/// Engine-agnostic per-iteration update script, the generalisation of
/// ChurnDriver::tick(UpdateQueue&, VertexId): call once per iteration
/// *before* run_iteration() so the updates land in that iteration's
/// phase 5. Same script state + same call sequence => identical update
/// stream, regardless of which engine or execution mode consumes it.
class WorkloadScript {
 public:
  virtual ~WorkloadScript() = default;

  /// Pushes this iteration's updates; returns the number pushed.
  virtual std::size_t tick(UpdateQueue& queue, VertexId num_users) = 0;
};

/// ChurnDriver behind the WorkloadScript interface (the steady-churn
/// scenarios are exactly the scripted churn the tests always ran).
class ChurnScript final : public WorkloadScript {
 public:
  explicit ChurnScript(ChurnConfig config) : driver_(std::move(config)) {}

  std::size_t tick(UpdateQueue& queue, VertexId num_users) override {
    return driver_.tick(queue, num_users);
  }

  [[nodiscard]] ChurnDriver& driver() noexcept { return driver_; }

 private:
  ChurnDriver driver_;
};

/// One instantiated workload: P(0) plus the (possibly null) script.
struct Workload {
  std::string name;
  std::vector<SparseProfile> profiles;
  /// Null for static scenarios (no profile churn).
  std::unique_ptr<WorkloadScript> script;

  /// Convenience: ticks the script if present, else returns 0.
  std::size_t tick(UpdateQueue& queue, VertexId num_users) {
    return script ? script->tick(queue, num_users) : 0;
  }
};

/// One registered scenario definition.
struct WorkloadSpec {
  std::string name;
  std::string summary;
  Workload (*make)(const WorkloadParams&);
};

/// The zoo. Current scenarios (see ARCHITECTURE.md "Workload zoo"):
///   steady-trickle      clustered profiles + proportional churn trickle
///   zipf-tail           heavy-tailed (Zipf) item popularity + rating drip
///   flash-crowd         1% of users rewrite 50% of their profile in one
///                       scripted iteration, trickle otherwise
///   cold-start          waves of brand-new users onboarded from stub
///                       profiles, one wave per iteration
///   adversarial-pair    partitioner-hostile: similarity mass concentrated
///                       between the two extreme user ranges, so a range
///                       partitioner funnels nearly all candidate pairs
///                       through one partition pair
///   movielens-synthetic star-rating profiles from synthetic_ratings plus
///                       a live rating stream
const std::vector<WorkloadSpec>& workload_zoo();

/// Names of every registered workload, in registry order.
std::vector<std::string> workload_names();

/// Instantiates `name` at `params`; throws std::invalid_argument for an
/// unknown name. Each call returns fresh state (profiles + script), so a
/// differential run instantiates once per engine under test.
Workload make_workload(std::string_view name, const WorkloadParams& params);

// ---------------------------------------------------------------------------
// Shared churn scripting (the scenario definitions golden_test,
// shard_process_test and bench_churn used to duplicate inline).

/// The pinned clustered-generator shape of the scripted scenarios:
/// 15-25 items per user, in-cluster probability 0.9. Golden checksums
/// depend on these knobs — change them only with a corpus regeneration.
ClusteredGenConfig scripted_generator(VertexId users, ItemId items,
                                      std::uint32_t clusters);

/// Named churn intensities, one vocabulary for every ChurnDriver user:
///   Trickle       the ChurnConfig defaults (50 ratings / 2 drifts /
///                 1 reset per iteration) — golden churn rows,
///                 shard_process_test
///   Heavy         the delta-heavy regime (120 / 15 / 10) — the
///                 "churn-heavy" golden row
///   Proportional  scales with n (n/20 ratings, n/200+1 drifts,
///                 n/400+1 resets) — bench_churn, steady-trickle
enum class ChurnScenario { Trickle, Heavy, Proportional };

/// Builds the ChurnConfig of a named scenario over `generator`.
ChurnConfig scripted_churn(ChurnScenario scenario,
                           ClusteredGenConfig generator, std::uint64_t seed);

}  // namespace knnpc
