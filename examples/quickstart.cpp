// Quickstart: generate a spatial dataset, knock out 10% of the values,
// impute them with NMF, SMF, and SMFL, and compare RMS errors.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "src/core/smfl.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/exp/metrics.h"

using namespace smfl;  // examples favor brevity; library code never does this

int main() {
  // 1. A Vehicle-like spatial dataset: lat/lon + speed/torque/fuel columns.
  auto dataset = data::MakeVehicleLike(/*rows=*/800, /*seed=*/42);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const data::Table& table = dataset->table;
  std::printf("dataset: %lld rows x %lld cols (%lld spatial)\n",
              static_cast<long long>(table.NumRows()),
              static_cast<long long>(table.NumCols()),
              static_cast<long long>(table.SpatialCols()));

  // 2. Normalize to [0, 1] and inject 10% missing values.
  auto normalizer = data::MinMaxNormalizer::Fit(table.values());
  la::Matrix truth = normalizer->Transform(table.values());

  data::MissingInjectionOptions inject;
  inject.missing_rate = 0.1;
  inject.seed = 7;
  auto injection = data::InjectMissing(table, inject);
  const data::Mask& observed = injection->observed;
  la::Matrix input = data::ApplyMask(truth, observed);
  std::printf("observed entries: %lld of %lld\n",
              static_cast<long long>(observed.Count()),
              static_cast<long long>(truth.size()));

  // 3. Impute with plain NMF, SMF (spatial regularization), and SMFL
  //    (spatial regularization + landmarks).
  auto report = [&](const char* name, const Result<la::Matrix>& imputed) {
    if (!imputed.ok()) {
      std::printf("%-5s failed: %s\n", name,
                  imputed.status().ToString().c_str());
      return;
    }
    auto rms = exp::RmsOverMask(*imputed, truth, observed.Complement());
    std::printf("%-5s imputation RMS: %.4f\n", name, *rms);
  };

  {
    core::SmflOptions options;
    options.rank = 5;
    options.seed = 3;
    options.lambda = 0.0;           // NMF: no spatial regularization
    options.use_landmarks = false;  // and no landmarks
    report("NMF", core::SmflImpute(input, observed, table.SpatialCols(),
                                   options));
  }
  {
    core::SmflOptions options;
    options.rank = 5;
    options.use_landmarks = false;  // SMF
    report("SMF", core::SmflImpute(input, observed, table.SpatialCols(),
                                   options));
  }
  {
    core::SmflOptions options;
    options.rank = 5;
    options.use_landmarks = true;  // SMFL: the paper's method
    auto model = core::FitSmfl(input, observed, table.SpatialCols(), options);
    if (!model.ok()) {
      std::printf("SMFL failed: %s\n", model.status().ToString().c_str());
      return 1;
    }
    report("SMFL", Result<la::Matrix>(data::CombineByMask(
                       input, model->Reconstruct(), observed)));
    std::printf(
        "SMFL converged after %d iterations (objective %.4f -> %.4f)\n",
        model->report.iterations, model->report.objective_trace.front(),
        model->report.final_objective());
    // Landmarks live in the first L columns of V.
    la::Matrix landmarks = model->FeatureLocations();
    std::printf("landmark locations (normalized lat, lon):\n");
    for (la::Index k = 0; k < landmarks.rows(); ++k) {
      std::printf("  feature %lld: (%.3f, %.3f)\n", static_cast<long long>(k),
                  landmarks(k, 0), landmarks(k, 1));
    }
  }
  return 0;
}
