// Reproduces Figs 1 and 5 as numbers: where do the learned feature
// locations (first L columns of V) land relative to the data observations?
//
// For NMF, SMF with gradient descent (SMF-GD), SMF with multiplicative
// updates (SMF-Multi), and SMFL, reports:
//   * the feature coordinates themselves (the Fig 5 scatter),
//   * fraction inside the observations' bounding box (Fig 5's dashed box),
//   * mean/max distance to the nearest observation.
//
// Expected shape (paper): SMF-GD and SMF-Multi features stray far outside
// the box ("points in the ocean"); SMFL landmarks are always inside and at
// essentially zero distance from the data.

#include "bench/bench_util.h"
#include "src/core/feature_geometry.h"
#include "src/core/smfl.h"
#include "src/data/inject.h"

using namespace smfl;
using la::Index;
using la::Matrix;

int main() {
  auto prepared = bench::ValueOrDie(
      exp::PrepareDataset("vehicle", 1000, /*seed=*/7));
  std::vector<std::string> names;
  for (Index j = 0; j < prepared.truth.cols(); ++j) {
    names.push_back("c" + std::to_string(j));
  }
  auto table =
      bench::ValueOrDie(data::Table::Create(names, prepared.truth, 2));
  data::MissingInjectionOptions inject;
  inject.missing_rate = 0.1;
  inject.seed = 5;
  auto injection = bench::ValueOrDie(data::InjectMissing(table, inject));
  Matrix input = data::ApplyMask(prepared.truth, injection.observed);
  Matrix si = prepared.truth.Block(0, 0, prepared.truth.rows(), 2);

  exp::ReportTable report(
      {"Method", "InBoundingBox", "MeanDistToData", "MaxDistToData"});

  auto add_row = [&](const std::string& name, const Matrix& features) {
    auto stats =
        bench::ValueOrDie(core::ComputeFeatureGeometry(si, features));
    report.BeginRow(name);
    report.AddNumber(stats.fraction_in_bounding_box, 2);
    report.AddNumber(stats.mean_distance_to_nearest_observation, 4);
    report.AddNumber(stats.max_distance_to_nearest_observation, 4);
    std::printf("%s feature locations (normalized lat, lon):\n",
                name.c_str());
    for (Index k = 0; k < features.rows(); ++k) {
      std::printf("  (%.3f, %.3f)\n", features(k, 0), features(k, 1));
    }
  };

  const Index rank = 5;  // matches the paper's Fig 5 (K = 5)
  {
    core::SmflOptions options;  // NMF: λ = 0, no landmarks
    options.lambda = 0.0;
    options.use_landmarks = false;
    options.rank = rank;
    options.seed = 3;
    auto model = bench::ValueOrDie(
        core::FitSmfl(input, injection.observed, 2, options));
    add_row("NMF", model.v.Block(0, 0, rank, 2));
  }
  {
    core::SmflOptions options;
    options.rank = rank;
    options.use_landmarks = false;
    options.update = core::UpdateMethod::kGradientDescent;
    options.learning_rate = 1e-3;
    auto model = bench::ValueOrDie(
        core::FitSmfl(input, injection.observed, 2, options));
    add_row("SMF-GD", model.FeatureLocations());
  }
  {
    core::SmflOptions options;
    options.rank = rank;
    options.use_landmarks = false;
    auto model = bench::ValueOrDie(
        core::FitSmfl(input, injection.observed, 2, options));
    add_row("SMF-Multi", model.FeatureLocations());
  }
  {
    core::SmflOptions options;
    options.rank = rank;
    options.use_landmarks = true;
    auto model = bench::ValueOrDie(
        core::FitSmfl(input, injection.observed, 2, options));
    add_row("SMFL", model.FeatureLocations());
  }
  report.Print("Fig 5: learned feature locations vs data observations");
  std::printf("%s", report.ToCsv().c_str());
  return 0;
}
