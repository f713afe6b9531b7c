// Reproduces Fig 1 as data artifacts: the fuel-consumption-rate map of the
// Vehicle dataset (rasterized field, CSV), the SMFL landmark locations, and
// the free feature locations learned by NMF — the three point sets the
// figure overlays. Also prints the quantitative Fig 1 claims: the planted
// east-west fuel gradient and how far each method's features sit from the
// observations.

#include "bench/bench_util.h"
#include "src/apps/field_raster.h"
#include "src/core/feature_geometry.h"
#include "src/core/smfl.h"
#include "src/data/inject.h"
#include "src/data/stats.h"

using namespace smfl;
using la::Index;
using la::Matrix;

int main() {
  auto prepared =
      bench::ValueOrDie(exp::PrepareDataset("vehicle", 2000, /*seed=*/7));
  const Index fuel_col = prepared.truth.cols() - 1;
  Matrix si_raw = prepared.raw.Block(0, 0, prepared.raw.rows(), 2);

  // --- The fuel map (Fig 1's blue field), written as CSV.
  std::vector<double> fuel(static_cast<size_t>(prepared.raw.rows()));
  for (Index i = 0; i < prepared.raw.rows(); ++i) {
    fuel[static_cast<size_t>(i)] = prepared.raw(i, fuel_col);
  }
  auto raster = bench::ValueOrDie(apps::RasterizeField(si_raw, fuel));
  const std::string map_path = "/tmp/smfl_fig1_fuel_map.csv";
  if (auto st = apps::WriteRasterCsv(raster, map_path); st.ok()) {
    std::printf("fuel map raster (%lldx%lld cells) -> %s\n",
                static_cast<long long>(raster.grid.rows()),
                static_cast<long long>(raster.grid.cols()), map_path.c_str());
  }
  // East-west gradient check: mean of the eastern third vs western third.
  double west = 0.0, east = 0.0;
  Index third = raster.grid.cols() / 3;
  for (Index r = 0; r < raster.grid.rows(); ++r) {
    for (Index c = 0; c < third; ++c) west += raster.grid(r, c);
    for (Index c = raster.grid.cols() - third; c < raster.grid.cols(); ++c) {
      east += raster.grid(r, c);
    }
  }
  west /= static_cast<double>(raster.grid.rows() * third);
  east /= static_cast<double>(raster.grid.rows() * third);
  std::printf("mean fuel rate, west third %.3f vs east third %.3f "
              "(east higher, as in Fig 1: %s)\n\n",
              west, east, east > west ? "yes" : "NO");

  // --- Feature locations (Fig 1's purple NMF points vs red landmarks),
  // learned from the 10%-missing normalized matrix.
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
  Matrix si_norm = prepared.truth.Block(0, 0, prepared.truth.rows(), 2);

  exp::ReportTable report({"Method", "InBoundingBox", "MeanDistToData"});
  {
    core::SmflOptions options;  // NMF: λ = 0, no landmarks
    options.lambda = 0.0;
    options.use_landmarks = false;
    options.rank = 5;
    options.seed = 3;
    auto model = bench::ValueOrDie(
        core::FitSmfl(input, injection.observed, 2, options));
    auto stats = bench::ValueOrDie(core::ComputeFeatureGeometry(
        si_norm, model.v.Block(0, 0, 5, 2)));
    report.BeginRow("NMF");
    report.AddNumber(stats.fraction_in_bounding_box, 2);
    report.AddNumber(stats.mean_distance_to_nearest_observation, 4);
  }
  {
    core::SmflOptions options;
    options.rank = 5;
    auto model = bench::ValueOrDie(
        core::FitSmfl(input, injection.observed, 2, options));
    auto stats = bench::ValueOrDie(
        core::ComputeFeatureGeometry(si_norm, model.FeatureLocations()));
    report.BeginRow("SMFL");
    report.AddNumber(stats.fraction_in_bounding_box, 2);
    report.AddNumber(stats.mean_distance_to_nearest_observation, 4);
    std::printf("SMFL landmarks (normalized lat, lon):\n");
    for (Index k = 0; k < model.landmarks.rows(); ++k) {
      std::printf("  (%.3f, %.3f)\n", model.landmarks(k, 0),
                  model.landmarks(k, 1));
    }
  }
  report.Print("Fig 1: where the learned features live");
  std::printf("%s", report.ToCsv().c_str());
  return 0;
}
