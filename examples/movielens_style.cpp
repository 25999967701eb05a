// Ratings-file example: the standard recommender on-ramp.
//
// Reads a MovieLens-shaped rating file (user,item,rating triples) — or
// synthesises one if no path is given — builds the KNN user graph out of
// core, and reports its quality (sampled recall with a confidence
// interval, mean worst-kept similarity).
//
// Usage:
//   movielens_style                         # synthetic 5k-user log
//   movielens_style --ratings=ratings.csv   # your own file
#include <cstdio>

#include "core/convergence.h"
#include "core/engine.h"
#include "profiles/ratings_io.h"
#include "util/options.h"
#include "util/rng.h"

using namespace knnpc;

int main(int argc, char** argv) {
  Options opts;
  opts.add_string("ratings", "rating file (user,item,rating); empty = "
                  "synthesise", "");
  opts.add_uint("k", "neighbours per user", 10);
  opts.add_uint("users", "synthetic users (when no file)", 5000);
  if (!opts.parse(argc, argv)) return 0;

  RatingsData data;
  if (!opts.get_string("ratings").empty()) {
    data = load_ratings_file(opts.get_string("ratings"));
    std::printf("loaded %s: %zu users, %zu items, %zu ratings\n",
                opts.get_string("ratings").c_str(), data.profiles.size(),
                data.item_ids.size(), data.num_ratings);
  } else {
    Rng rng(2014);
    SyntheticRatingsConfig config;
    config.num_users = static_cast<VertexId>(opts.get_uint("users"));
    config.num_items = config.num_users / 3;
    data = synthetic_ratings(config, rng);
    std::printf("synthesised %zu users, %u items, %zu ratings "
                "(Zipf popularity)\n",
                data.profiles.size(), config.num_items, data.num_ratings);
  }

  const InMemoryProfileStore snapshot{data.profiles};
  EngineConfig config;
  config.k = static_cast<std::uint32_t>(opts.get_uint("k"));
  config.num_partitions = 16;
  config.measure = SimilarityMeasure::Cosine;
  KnnEngine engine(config, std::move(data.profiles));
  const RunStats run = engine.run(12, 0.01);
  std::printf("KNN graph: converged=%s after %zu iterations\n",
              run.converged ? "yes" : "no", run.iterations.size());

  // Quality estimate without the O(n^2) ground truth.
  const auto recall = sampled_recall(engine.graph(), snapshot,
                                     config.measure, 50, 23, 8);
  std::printf("sampled recall@%u: %.3f +/- %.3f (%zu users sampled)\n",
              config.k, recall.recall, recall.margin95,
              recall.sampled_users);
  std::printf("mean worst-kept similarity: %.3f\n",
              mean_kth_score(engine.graph()));
  return 0;
}
